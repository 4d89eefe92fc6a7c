package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// rowOwnerModel is a BatchCostModel that keeps its own EXEC rows and
// hands them out by reference, the way the advisor's row store does.
type rowOwnerModel struct {
	*additiveModel
	configs []Config
}

func (m *rowOwnerModel) BatchExec(stage int, configs []Config, _ []float64) []float64 {
	if slices.Equal(configs, m.configs) {
		return m.exec[stage] // raw-config-indexed, dense over the full lattice
	}
	out := make([]float64, len(configs))
	for j, c := range configs {
		out[j] = m.exec[stage][c]
	}
	return out
}

// TestSolversShareModelRowsReadOnly pins the row-reference contract of
// the matrix build: the rows a BatchCostModel returns become the matrix
// rows themselves (no copy), several retained table sets alias them,
// and no solver, kernel, sweep, or cache upgrade ever writes one.
func TestSolversShareModelRowsReadOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	const stages, structs = 9, 4
	am, configs := randomAdditiveModel(rng, stages, structs)
	pristine := make([][]float64, stages)
	for i, row := range am.exec {
		pristine[i] = slices.Clone(row)
	}
	model := &rowOwnerModel{additiveModel: am, configs: configs}
	f := Config(0)
	problem := func(kernel transKernel, cache *SolveCache) *Problem {
		return &Problem{Stages: stages, Configs: configs, Final: &f, K: 2,
			Model: model, kernel: kernel, Cache: cache, Metrics: &Metrics{}}
	}

	m, err := problem(kernelAuto, nil).buildMatrices(bg, configs, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.exec {
		if &m.exec[i][0] != &am.exec[i][0] {
			t.Fatalf("stage %d: the matrix row is a copy of the model's row, want the row itself", i)
		}
	}

	cache := NewSolveCache()
	for _, kernel := range []transKernel{kernelHypercube, kernelDense} {
		for _, s := range everySolver() {
			if _, err := s.run(bg, problem(kernel, cache)); err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
		}
		if _, err := SolveUnconstrained(bg, problem(kernel, cache)); err != nil {
			t.Fatal(err)
		}
		if _, err := SweepK(bg, problem(kernel, cache), 4); err != nil {
			t.Fatal(err)
		}
	}
	for i, row := range am.exec {
		for j, v := range row {
			if math.Float64bits(v) != math.Float64bits(pristine[i][j]) {
				t.Fatalf("exec[%d][%d] changed from %v to %v: a solver wrote a shared row", i, j, pristine[i][j], v)
			}
		}
	}
}
