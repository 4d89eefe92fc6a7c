package core

import (
	"math/rand"
	"testing"

	"dyndesign/internal/obs"
)

// Cost shapes of the exact-path differential: float costs make the
// perturbed optimum unique; small integers force exact ties between
// distinct sequences; integers scaled by 1e9 also absorb changeEpsilon
// (1e9 + 1e-9 == 1e9), so sequences with different change counts tie.
const (
	costsFloat = iota
	costsSmallInt
	costsScaledInt
	costShapes
)

// spanAttrSink keeps the attributes of the last span named name.
type spanAttrSink struct {
	name  string
	attrs map[string]any
}

func (s *spanAttrSink) Emit(rec obs.SpanRecord) {
	if rec.Name != s.name {
		return
	}
	s.attrs = map[string]any{}
	for _, a := range rec.Attrs {
		s.attrs[a.Key] = a.Value()
	}
}

// runExactCase holds the exact production path — Solve's kaware row,
// which answers from one unconstrained pass when that optimum fits K —
// against SolveKAware, the always-layered relaxation, on one random
// problem: feasibility agreed, Cost bit-equal, Changes within K,
// CheckSolution clean, and the designs identical whenever the costs are
// floats (on the tie-forcing integer shapes the two may pick different
// sequences of one cost; DESIGN.md §12). It returns whether the layered
// run was needed, so callers can check both branches were exercised.
func runExactCase(t *testing.T, seed int64, stages, structs, k, shape int, policy ChangePolicy, hyper, withFinal, subset bool) (layered bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m, configs := randomAdditiveModel(rng, stages, structs)
	if shape != costsFloat {
		scale := 1.0
		if shape == costsScaledInt {
			scale = 1e9
		}
		for _, row := range m.exec {
			for j := range row {
				row[j] = float64(rng.Intn(4)) * scale
			}
		}
		for s := range m.add {
			m.add[s] = float64(rng.Intn(3)) * scale
			m.drop[s] = float64(rng.Intn(2)) * scale
		}
	}
	if subset {
		configs = subsetConfigs(rng, configs)
	}
	sink := &spanAttrSink{name: SpanSolve}
	p := &Problem{
		Stages: stages, Configs: configs, Initial: Config(rng.Intn(1 << uint(structs))),
		K: k, Policy: policy, Model: m, Parallelism: 1,
		kernel: kernelDense, Tracer: obs.NewTracer(sink),
	}
	if hyper {
		p.kernel = kernelHypercube
	}
	if withFinal {
		f := configs[rng.Intn(len(configs))]
		p.Final = &f
	}

	want, wantErr := SolveKAware(bg, p)
	got, gotErr := Solve(bg, p, StrategyKAware)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("feasibility disagrees: SolveKAware err %v, exact path err %v", wantErr, gotErr)
	}
	layered, _ = sink.attrs["layered"].(bool)
	if seedChanges, _ := sink.attrs["seed_changes"].(int64); !layered && gotErr == nil && (seedChanges < 0 || seedChanges > int64(k)) {
		t.Fatalf("answered without the layered run on seed_changes=%d, K=%d", seedChanges, k)
	}
	if wantErr != nil {
		return layered
	}
	if got.Cost != want.Cost {
		t.Fatalf("exact path cost %v != SolveKAware cost %v", got.Cost, want.Cost)
	}
	if got.Changes > k {
		t.Fatalf("exact path made %d changes, bound is %d", got.Changes, k)
	}
	if err := p.CheckSolution(got); err != nil {
		t.Fatalf("exact path solution invalid: %v", err)
	}
	if shape == costsFloat {
		for i := range want.Designs {
			if got.Designs[i] != want.Designs[i] {
				t.Fatalf("float costs: exact path design diverges from SolveKAware at stage %d", i)
			}
		}
	}
	return layered
}

// TestExactFitsKMatchesKAware is the differential row the fits-k return
// landed behind: a seeded grid over both kernels, both change policies,
// constrained and free final endpoints, candidate subsets, K from 0 to
// 4 and the three cost shapes.
func TestExactFitsKMatchesKAware(t *testing.T) {
	seed := int64(0)
	cases, fits := 0, 0
	for _, structs := range []int{1, 2, 3, 5} {
		for _, stages := range []int{1, 2, 6, 14} {
			for k := 0; k <= 4; k++ {
				for shape := 0; shape < costShapes; shape++ {
					for _, policy := range []ChangePolicy{FreeEndpoints, CountAll} {
						for _, hyper := range []bool{false, true} {
							seed++
							layered := runExactCase(t, seed, stages, structs, k, shape, policy,
								hyper, seed%2 == 0, seed%3 == 0)
							cases++
							if !layered {
								fits++
							}
						}
					}
				}
			}
		}
	}
	// Both branches must carry weight: K <= 1 and binding bounds run the
	// layers, loose bounds answer from the seed pass.
	if fits < cases/10 || fits > cases*9/10 {
		t.Errorf("%d of %d cases answered from the seed pass; the grid no longer exercises both branches", fits, cases)
	}
}

// FuzzExactFitsK fuzzes the same property (make fuzz-smoke); the corpus
// leads with the tie-heavy integer shapes.
func FuzzExactFitsK(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(3), uint8(2), uint8(costsSmallInt), false, false, false, false)
	f.Add(int64(2), uint8(9), uint8(4), uint8(4), uint8(costsScaledInt), true, true, false, true)
	f.Add(int64(3), uint8(12), uint8(2), uint8(3), uint8(costsSmallInt), true, false, true, false)
	f.Add(int64(4), uint8(7), uint8(5), uint8(2), uint8(costsScaledInt), false, true, true, true)
	f.Add(int64(5), uint8(8), uint8(3), uint8(3), uint8(costsFloat), false, true, false, true)
	f.Fuzz(func(t *testing.T, seed int64, nRaw, structsRaw, kRaw, shapeRaw uint8, countAll, hyper, withFinal, subset bool) {
		policy := FreeEndpoints
		if countAll {
			policy = CountAll
		}
		runExactCase(t, seed, 1+int(nRaw%14), 1+int(structsRaw%5), int(kRaw%5), int(shapeRaw%costShapes),
			policy, hyper, withFinal, subset)
	})
}
