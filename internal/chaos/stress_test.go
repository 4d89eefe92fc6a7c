package chaos

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"dyndesign/internal/core"
)

// solveDeadline is the per-solve watchdog: a resilient solve that has
// not returned by then counts as a hang, which is exactly what the
// supervisor promises can never happen.
const solveDeadline = 30 * time.Second

// stressSeeds is how many seeded chaos solves the suite runs. Seeds
// cycle through every strategy as the ladder's primary rung and
// through budget/timeout/persistent-fault variations.
const stressSeeds = 126

// TestResilientSolveUnderChaos is the supervisor's acceptance test:
// across stressSeeds seeded fault patterns — evaluation errors, panics,
// latency spikes; one-shot and persistent; with and without budgets and
// rung deadlines — every SolveResilient call must return a feasible
// solution or a typed error within the watchdog deadline. Run under
// -race (make chaos) this also proves the recovery paths are data-race
// free.
func TestResilientSolveUnderChaos(t *testing.T) {
	strategies := core.Strategies()
	var degradations, recoveredPanics, fallbacks, failures atomic.Int64

	for seed := 0; seed < stressSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%03d", seed), func(t *testing.T) {
			t.Parallel()
			opts := Options{
				Seed:        int64(seed),
				ErrorRate:   0.02 + 0.08*float64(seed%5)/4,
				PanicRate:   0.01 + 0.04*float64(seed%3)/2,
				LatencyRate: 0.01,
				Latency:     200 * time.Microsecond,
				Persistent:  seed%7 == 0,
			}
			model := Wrap(cleanModel{}, opts)
			configs, err := core.EnumerateConfigs(4, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			p := &core.Problem{
				Stages: 10, Configs: configs, Initial: 0, K: 2,
				Model: model, Metrics: &core.Metrics{},
			}
			// The last-known-good design never leaves the initial
			// configuration: feasible under every policy and bound here.
			clean := *p
			clean.Model = cleanModel{}
			lkg := clean.NewSolution(make([]core.Config, p.Stages))

			ropts := core.ResilientOptions{
				Ladder:        core.DefaultLadder(strategies[seed%len(strategies)]),
				LastKnownGood: lkg,
			}
			if seed%3 == 0 {
				ropts.MaxWhatIfCalls = 50
			}
			if seed%5 == 0 {
				ropts.RungTimeout = 5 * time.Millisecond
			}

			type outcome struct {
				res *core.ResilientResult
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				res, err := core.SolveResilient(context.Background(), p, ropts)
				done <- outcome{res, err}
			}()
			var out outcome
			select {
			case out = <-done:
			case <-time.After(solveDeadline):
				t.Fatalf("seed %d: resilient solve hung past %v", seed, solveDeadline)
			}

			if out.err != nil {
				// Typed failure: the result must still carry rung
				// diagnostics and no solution.
				failures.Add(1)
				if out.res == nil || len(out.res.Reports) == 0 {
					t.Fatalf("seed %d: failure without rung reports: %v", seed, out.err)
				}
				if out.res.Solution != nil {
					t.Fatalf("seed %d: error return carried a solution", seed)
				}
				for _, r := range out.res.Reports {
					if r.Class == "" || r.Err == nil {
						t.Fatalf("seed %d: failed rung report unclassified: %+v", seed, r)
					}
				}
				return
			}
			// Success: the design must be feasible for the problem,
			// judged under the clean model (the chaos wrapper only
			// perturbs costs transiently, not the design space).
			if out.res.Solution == nil || out.res.Rung == "" {
				t.Fatalf("seed %d: success without solution/rung: %+v", seed, out.res)
			}
			if err := clean.CheckSolution(clean.NewSolution(out.res.Solution.Designs)); err != nil {
				t.Fatalf("seed %d: rung %s returned infeasible design: %v", seed, out.res.Rung, err)
			}
			if out.res.Degraded && out.res.Rung == ropts.Ladder[0] {
				t.Fatalf("seed %d: degraded but answered by first rung", seed)
			}
			if out.res.Rung == core.RungLastKnownGood {
				fallbacks.Add(1)
			}
			degradations.Add(p.Metrics.Snapshot().Degradations)
			recoveredPanics.Add(p.Metrics.Snapshot().RecoveredPanics)
		})
	}

	t.Cleanup(func() {
		t.Logf("chaos stress: %d degradations, %d recovered panics, %d last-known-good fallbacks, %d typed failures",
			degradations.Load(), recoveredPanics.Load(), fallbacks.Load(), failures.Load())
		// The suite must actually have exercised the recovery machinery:
		// a chaos run where nothing ever degraded or panicked proves
		// nothing.
		if degradations.Load() == 0 {
			t.Error("no solve ever degraded — injection rates too low to test the ladder")
		}
		if recoveredPanics.Load() == 0 {
			t.Error("no panic was ever recovered — injection rates too low to test recovery")
		}
	})
}
