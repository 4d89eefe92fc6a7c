package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	"dyndesign/internal/core"
)

// Figure4Result reproduces Figure 4: the runtime of the constrained
// design optimizers relative to the unconstrained optimizer, as a
// function of the change constraint k.
type Figure4Result struct {
	Ks []int
	// KAwareRel and MergeRel are runtimes relative to the unconstrained
	// optimizer (1.0 = same).
	KAwareRel []float64
	MergeRel  []float64
	// Unconstrained is the absolute baseline runtime.
	Unconstrained time.Duration
	// UnconstrainedChanges is l, the change count of the unconstrained
	// optimum — the point past which merging needs no steps.
	UnconstrainedChanges int
}

// timeIt measures fn with enough repetitions for a stable reading: at
// least 3 runs and at least ~250 ms of total work (Figure 4 divides
// every cell by one baseline of about a millisecond, which therefore
// gets a few hundred runs). It reports the fastest run and the median
// one. The fastest is Figure 4's reading, as it was the paper's; where
// two solvers a few milliseconds apart are ranked against each other
// the median is, because a run that finds its memory already swept can
// take half the usual time and the fastest of sixty is then that run.
// A first run of 200 ms or more is the reading by itself: a solver that
// slow is placed by its magnitude, and repeating a ranking run would
// multiply the seconds it already costs. The first error (a fault or a
// cancellation mid-rep) aborts the measurement.
func timeIt(fn func() error) (best, median time.Duration, err error) {
	start := time.Now()
	if err := fn(); err != nil { // warm up
		return 0, 0, err
	}
	if d := time.Since(start); d >= 200*time.Millisecond {
		return d, d, nil
	}
	var runs []time.Duration
	total := time.Duration(0)
	for len(runs) < 3 || (total < 250*time.Millisecond && len(runs) < 500) {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, 0, err
		}
		d := time.Since(start)
		runs = append(runs, d)
		total += d
	}
	slices.Sort(runs)
	return runs[0], runs[len(runs)/2], nil
}

// RunFigure4 times the k-aware-graph optimizer and the sequential
// merging optimizer for each k, relative to the unconstrained optimizer,
// on the W1 problem. The cost matrix (what-if EXEC evaluations) is
// warmed once and shared — it is identical preprocessing for every
// optimizer and every k, so the figure isolates optimization time the
// way the paper's does. Merging runs in its faithful mode (segment costs
// re-summed per evaluation, the complexity the paper states); the
// memoized variant is covered by the ablation benchmarks.
func RunFigure4(ctx context.Context, t2 *Table2Result, ks []int) (_ *Figure4Result, err error) {
	end := experimentSpan("fig4")
	defer func() { end(err == nil) }()
	if len(ks) == 0 {
		for k := 2; k <= 18; k += 2 {
			ks = append(ks, k)
		}
	}
	base, _, err := t2.Advisor.Problem(t2.W1, PaperOptions(core.Unconstrained))
	if err != nil {
		return nil, err
	}
	// Warm the what-if memo so timing measures graph work, not cost
	// model evaluation.
	seed, err := core.SolveUnconstrained(ctx, base)
	if err != nil {
		return nil, err
	}
	res := &Figure4Result{
		Ks:                   ks,
		UnconstrainedChanges: seed.Changes,
	}
	// The table build and the Table 2 solves leave garbage behind;
	// collect it now, or the collector works through it beside the
	// baseline and not beside the cells (measured: a baseline of 0.91 to
	// 1.07 ms before the cells against 0.83 ms after them).
	runtime.GC()
	res.Unconstrained, _, err = timeIt(func() error {
		_, err := core.SolveUnconstrained(ctx, base)
		return err
	})
	if err != nil {
		return nil, err
	}

	// One cell at a time, on this goroutine, like the baseline above: a
	// cell timed beside another shares its cores with that cell's
	// solver pool (Problem.Parallelism), and the ratio to a baseline
	// timed alone then measures the neighbour.
	res.KAwareRel = make([]float64, len(ks))
	res.MergeRel = make([]float64, len(ks))
	for i, k := range ks {
		pk := *base
		pk.K = k
		dK, _, err := timeIt(func() error {
			_, err := core.SolveKAware(ctx, &pk)
			return err
		})
		if err != nil {
			return nil, err
		}
		dM, _, err := timeIt(func() error {
			s, err := core.SolveUnconstrained(ctx, &pk)
			if err != nil {
				return err
			}
			_, _, err = core.SolveMergeOpts(ctx, &pk, s, core.MergeOptions{})
			return err
		})
		if err != nil {
			return nil, err
		}
		res.KAwareRel[i] = float64(dK) / float64(res.Unconstrained)
		res.MergeRel[i] = float64(dM) / float64(res.Unconstrained)
	}
	return res, nil
}

// Render prints the figure as a text series in the paper's layout.
func (r *Figure4Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 4: Runtimes of Constrained Design Optimizers Relative to\n")
	fmt.Fprintf(w, "          Runtime of Unconstrained Design Optimizer\n")
	fmt.Fprintf(w, "          (unconstrained baseline %.2f ms; unconstrained optimum has l=%d changes)\n\n",
		float64(r.Unconstrained.Microseconds())/1000, r.UnconstrainedChanges)
	fmt.Fprintf(w, "%4s %18s %18s\n", "k", "k-aware graph", "merging")
	for i, k := range r.Ks {
		fmt.Fprintf(w, "%4d %17.0f%% %17.0f%%\n", k, r.KAwareRel[i]*100, r.MergeRel[i]*100)
	}
}
