package advisor

import (
	"math"
	"testing"

	"dyndesign/internal/core"
	"dyndesign/internal/cost"
	"dyndesign/internal/workload"
)

// TestTransMatchesDiffReference holds whatIfModel.Trans to its
// Config.Diff definition — build costs of the added structures in
// ascending order, then the drop cost times the removed count — bit for
// bit over every pair of the ten-structure lattice, and checks that a
// call allocates nothing.
func TestTransMatchesDiffReference(t *testing.T) {
	adv := fullLatticeAdvisor(t)
	w, err := workload.PaperWorkload("W1", testRows, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := adv.Problem(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := p.Model.(*whatIfModel)
	reference := func(from, to core.Config) float64 {
		added, removed := from.Diff(to)
		total := 0.0
		for _, s := range added {
			total += cost.BuildCost(m.phys[s], m.table)
		}
		total += float64(len(removed)) * cost.DropCost()
		return total
	}
	if len(p.Configs) != 1<<10 {
		t.Fatalf("%d configurations, want the full ten-structure lattice", len(p.Configs))
	}
	for _, from := range p.Configs {
		for _, to := range p.Configs {
			if got, want := m.Trans(from, to), reference(from, to); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Trans(%b, %b) = %v, reference %v", from, to, got, want)
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { m.Trans(0b1010110101, 0b0111001011) }); allocs != 0 {
		t.Fatalf("Trans allocates %v times a call", allocs)
	}
}
