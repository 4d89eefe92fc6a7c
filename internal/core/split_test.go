package core

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestSolutionCostSplit pins the Solution cost-attribution invariant:
// every strategy's solution carries EXEC and TRANS totals that sum —
// exactly, not within tolerance — to Cost, and each component matches
// an independent recomputation over the design sequence.
func TestSolutionCostSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	model, configs := randomModel(rng, 12, 3)
	for _, k := range []int{0, 2, Unconstrained} {
		p := &Problem{
			Stages:  12,
			Configs: configs,
			K:       k,
			Policy:  FreeEndpoints,
			Model:   model,
		}
		f := ConfigOf()
		p.Final = &f
		for _, s := range everySolver() {
			strat := s.name
			if k == 0 && (strat == "ranking" || strat == "rankmerge") {
				// Unpruned ranking at k=0 can be slow; the split logic is
				// identical, so skip the expensive cells.
				continue
			}
			sol, err := s.run(bg, p)
			if err != nil {
				t.Fatalf("k=%d %s: %v", k, strat, err)
			}
			if sol.ExecCost+sol.TransCost != sol.Cost {
				t.Errorf("k=%d %s: ExecCost %v + TransCost %v != Cost %v",
					k, strat, sol.ExecCost, sol.TransCost, sol.Cost)
			}
			var exec, trans float64
			prev := p.Initial
			for i, c := range sol.Designs {
				trans += model.Trans(prev, c)
				exec += model.Exec(i, c)
				prev = c
			}
			trans += model.Trans(prev, *p.Final)
			if exec != sol.ExecCost || trans != sol.TransCost {
				t.Errorf("k=%d %s: split (%v, %v) != recomputed (%v, %v)",
					k, strat, sol.ExecCost, sol.TransCost, exec, trans)
			}
		}
	}
}

// TestSweepKCurve pins the cost-of-constraint curve: monotone
// non-increasing in k, exact agreement with SolveKAware at every bound,
// and flat once k reaches the unconstrained optimum's change count.
func TestSweepKCurve(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	model, configs := randomModel(rng, 10, 3)
	p := &Problem{
		Stages:  10,
		Configs: configs,
		K:       2,
		Policy:  FreeEndpoints,
		Model:   model,
	}
	const maxK = 9
	curve, err := SweepK(bg, p, maxK)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != maxK+1 {
		t.Fatalf("curve has %d points, want %d", len(curve), maxK+1)
	}
	unc := *p
	unc.K = Unconstrained
	opt, err := SolveUnconstrained(bg, &unc)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range curve {
		if pt.K != i {
			t.Fatalf("point %d reports K=%d", i, pt.K)
		}
		if !pt.Feasible {
			t.Fatalf("point k=%d infeasible under FreeEndpoints", i)
		}
		if pt.ExecCost+pt.TransCost != pt.Cost {
			t.Errorf("k=%d: split does not sum to cost", i)
		}
		if i > 0 && pt.Cost > curve[i-1].Cost {
			t.Errorf("curve not monotone: cost(%d)=%v > cost(%d)=%v",
				i, pt.Cost, i-1, curve[i-1].Cost)
		}
		if pt.Changes > pt.K {
			t.Errorf("k=%d: point uses %d changes", i, pt.Changes)
		}
		kp := *p
		kp.K = i
		sol, err := SolveKAware(bg, &kp)
		if err != nil {
			t.Fatalf("kaware k=%d: %v", i, err)
		}
		if !almostEqual(sol.Cost, pt.Cost) {
			t.Errorf("k=%d: sweep cost %v != kaware cost %v", i, pt.Cost, sol.Cost)
		}
		if pt.K >= opt.Changes && !almostEqual(pt.Cost, opt.Cost) {
			t.Errorf("k=%d >= l=%d but sweep cost %v != unconstrained %v",
				i, opt.Changes, pt.Cost, opt.Cost)
		}
	}
	// Swept to Unconstrained, the curve stops at l and its last point
	// is the unconstrained optimum.
	toL, err := SweepK(bg, p, Unconstrained)
	if err != nil {
		t.Fatal(err)
	}
	if len(toL) != opt.Changes+1 || !reflect.DeepEqual(toL, curve[:opt.Changes+1]) || toL[opt.Changes].Cost != opt.Cost {
		t.Errorf("SweepK(Unconstrained) has %d points ending %+v, want the first %d of SweepK(%d) ending at cost %v",
			len(toL), toL[len(toL)-1], opt.Changes+1, maxK, opt.Cost)
	}
	if _, err := SweepK(bg, p, -2); err == nil {
		t.Error("SweepK accepted a negative bound other than Unconstrained")
	}
}

// TestSweepKInfeasiblePrefix pins infeasible-point reporting: under
// CountAll with an initial configuration outside the candidate list,
// k = 0 admits no design and the sweep marks the point instead of
// failing the whole curve.
func TestSweepKInfeasiblePrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	model, configs := randomModel(rng, 6, 2)
	var usable []Config
	for _, c := range configs {
		if c != ConfigOf(0) {
			usable = append(usable, c)
		}
	}
	p := &Problem{
		Stages:  6,
		Configs: usable,
		Initial: ConfigOf(0), // valid TRANS source, not a candidate
		K:       1,
		Policy:  CountAll,
		Model:   model,
	}
	curve, err := SweepK(bg, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if curve[0].Feasible {
		t.Error("k=0 reported feasible with the initial design unusable under CountAll")
	}
	for _, pt := range curve[1:] {
		if !pt.Feasible {
			t.Errorf("k=%d reported infeasible", pt.K)
		}
	}
}
