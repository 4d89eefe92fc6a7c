// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations of the design choices called out in
// DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// The fixture (a loaded, analyzed database plus the W1/W2/W3 workloads
// and both W1-based recommendations) is built once and shared.
package dyndesign_test

import (
	"context"
	"sync"
	"testing"

	"dyndesign/internal/advisor"
	"dyndesign/internal/catalog"
	"dyndesign/internal/core"
	"dyndesign/internal/cost"
	"dyndesign/internal/experiments"
	"dyndesign/internal/workload"
)

// bg is the context used by tests that don't exercise cancellation.
var bg = context.Background()

var (
	fixtureOnce sync.Once
	fixture     *experiments.Table2Result
	fixtureErr  error
)

// benchScale keeps the full suite fast while preserving every regime the
// experiments rely on; cmd/paperexp runs the same code at paper scale.
var benchScale = experiments.Scale{Rows: 50000, BlockSize: 100, Seed: 1}

func getFixture(b *testing.B) *experiments.Table2Result {
	b.Helper()
	fixtureOnce.Do(func() {
		fixture, fixtureErr = experiments.RunTable2(bg, benchScale)
	})
	if fixtureErr != nil {
		b.Fatal(fixtureErr)
	}
	return fixture
}

// warmProblem returns the W1 problem with its what-if memo warmed, so
// solver benchmarks measure graph work, not cost-model evaluation.
func warmProblem(b *testing.B, k int) *core.Problem {
	b.Helper()
	t2 := getFixture(b)
	p, _, err := t2.Advisor.Problem(t2.W1, experiments.PaperOptions(core.Unconstrained))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := core.SolveUnconstrained(bg, p); err != nil {
		b.Fatal(err)
	}
	p.K = k
	return p
}

// --- Table 1 -----------------------------------------------------------

// BenchmarkTable1Mixes regenerates the query-mix table (Table 1): mix
// construction plus generation of one block of queries per mix.
func BenchmarkTable1Mixes(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t1 := experiments.RunTable1()
		if len(t1.Rows) != 4 {
			b.Fatal("bad mix table")
		}
	}
}

// --- Table 2 -----------------------------------------------------------

// BenchmarkTable2Designs regenerates Table 2's design columns: the full
// advisor pipeline (what-if costing plus the k-aware graph) for the
// unconstrained and the k=2 recommendation on W1.
func BenchmarkTable2Designs(b *testing.B) {
	t2 := getFixture(b)
	for _, run := range []struct {
		name string
		k    int
	}{
		{"unconstrained", core.Unconstrained},
		{"k=2", 2},
	} {
		b.Run(run.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec, err := t2.Advisor.Recommend(t2.W1, experiments.PaperOptions(run.k))
				if err != nil {
					b.Fatal(err)
				}
				if run.k >= 0 && rec.Solution.Changes > run.k {
					b.Fatal("change bound violated")
				}
			}
		})
	}
}

// --- Figure 3 -----------------------------------------------------------

// BenchmarkFigure3Execution regenerates one bar of Figure 3 per
// sub-benchmark: a full workload replay (index builds/drops at change
// points plus every query) measured in logical page accesses.
func BenchmarkFigure3Execution(b *testing.B) {
	t2 := getFixture(b)
	runs := []struct {
		name string
		w    *workload.Workload
		rec  *advisor.Recommendation
	}{
		{"W1/unconstrained", t2.W1, t2.Unconstrained},
		{"W1/constrained", t2.W1, t2.Constrained},
		{"W2/unconstrained", t2.W2, t2.Unconstrained},
		{"W2/constrained", t2.W2, t2.Constrained},
		{"W3/unconstrained", t2.W3, t2.Unconstrained},
		{"W3/constrained", t2.W3, t2.Constrained},
	}
	for _, run := range runs {
		b.Run(run.name, func(b *testing.B) {
			designs := run.rec.PerStatement()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				report, err := advisor.Replay(t2.DB, run.w, run.rec, designs)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(report.TotalPages()), "pages")
			}
		})
	}
}

// --- Figure 4 -----------------------------------------------------------

// BenchmarkFigure4KAware times the k-aware-graph optimizer per k; the
// paper's figure shows it growing linearly in k relative to the
// unconstrained optimizer (BenchmarkFigure4Unconstrained).
func BenchmarkFigure4KAware(b *testing.B) {
	for _, k := range []int{2, 6, 10, 14, 18} {
		p := warmProblem(b, k)
		b.Run(kName(k), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.SolveKAware(bg, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure4Merging times the sequential-merging optimizer per k in
// its faithful mode (segment costs re-summed per evaluation, the
// complexity the paper states); the figure shows it shrinking as k
// approaches the unconstrained optimum's change count.
func BenchmarkFigure4Merging(b *testing.B) {
	for _, k := range []int{2, 6, 10, 14, 18} {
		p := warmProblem(b, k)
		b.Run(kName(k), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seed, err := core.SolveUnconstrained(bg, p)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := core.SolveMergeOpts(bg, p, seed, core.MergeOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure4Unconstrained is the figure's 100% baseline.
func BenchmarkFigure4Unconstrained(b *testing.B) {
	p := warmProblem(b, core.Unconstrained)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveUnconstrained(bg, p); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ------------------------------------------------------------

// BenchmarkAblationGreedySeq times the §4.1 candidate-reduction
// heuristic, which the paper describes but does not measure.
func BenchmarkAblationGreedySeq(b *testing.B) {
	p := warmProblem(b, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.SolveGreedySeq(bg, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMergeMemoized quantifies the improvement of
// prefix-sum segment memoization over the paper's assumed cost profile
// (compare against BenchmarkFigure4Merging/k=2).
func BenchmarkAblationMergeMemoized(b *testing.B) {
	p := warmProblem(b, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed, err := core.SolveUnconstrained(bg, p)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := core.SolveMergeOpts(bg, p, seed, core.MergeOptions{MemoizeSegments: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRankingPruned times the §5 ranking optimizer with
// infeasible-prefix pruning at a k large enough to terminate quickly;
// plain ranking's small-k blowup is demonstrated (with a budget) by
// `paperexp -exp ablations`.
func BenchmarkAblationRankingPruned(b *testing.B) {
	p := warmProblem(b, 14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.SolveRanking(bg, p, core.RankingOptions{Prune: true, MaxExpansions: 10_000_000})
		if err != nil {
			b.Fatal(err)
		}
		if res.Exhausted {
			b.Fatal("ranking budget exhausted")
		}
	}
}

// --- Parallel costing ------------------------------------------------------

// benchMatrixBuild times one *cold* dense cost-table build — n stages ×
// m configurations of real what-if EXEC calls, the advisor's dominant
// expense — at a fixed parallelism degree. A fresh Problem per
// iteration keeps the exec memo cold so the build measures costing, not
// map lookups. The degree goes in through the options, so it governs both
// halves of the costing: the plan-table compile that validates the
// workload inside Advisor.Problem, and the row fills of the build.
func benchMatrixBuild(b *testing.B, parallelism int) {
	t2 := getFixture(b)
	opts := experiments.PaperOptions(core.Unconstrained)
	opts.Parallelism = parallelism
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, _, err := t2.Advisor.Problem(t2.W1, opts)
		if err != nil {
			b.Fatal(err)
		}
		if err := p.BuildCostTables(bg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatrixBuildSerial is the single-worker baseline.
func BenchmarkMatrixBuildSerial(b *testing.B) { benchMatrixBuild(b, 1) }

// BenchmarkMatrixBuildParallel uses one worker per core; compare
// against BenchmarkMatrixBuildSerial for the costing-layer speedup.
func BenchmarkMatrixBuildParallel(b *testing.B) { benchMatrixBuild(b, 0) }

// BenchmarkExecRowFill times the fill of one EXEC row at the
// solve_lattice shape — 50 compiled statements over the full 2¹⁰ lattice
// of ten candidate indexes, 51 200 what-if cells — by the row kernel:
// statement-major over 50 separately compiled tables ("kernel"), and by
// configuration classes over the same statements resolved through a
// cost.PlanSet, as a problem resolves them ("interned"); and by the
// per-cell PlanTable.Cost sum that defines both results.
func BenchmarkExecRowFill(b *testing.B) {
	t2 := getFixture(b)
	tp, err := t2.DB.TablePhys(workload.PaperTable)
	if err != nil {
		b.Fatal(err)
	}
	var phys []cost.IndexPhys
	for _, cols := range [][]string{
		{"a"}, {"b"}, {"c"}, {"d"}, {"a", "b"}, {"c", "d"}, {"b", "a"}, {"d", "c"}, {"a", "c"}, {"b", "d"},
	} {
		ip, err := cost.HypotheticalIndex(catalog.IndexDef{Table: workload.PaperTable, Columns: cols}, tp)
		if err != nil {
			b.Fatal(err)
		}
		phys = append(phys, ip)
	}
	set := cost.NewPlanSet(tp, phys)
	tables := make([]*cost.PlanTable, 50)
	interned := make([]*cost.PlanTable, len(tables))
	for i := range tables {
		stmt := t2.W1.Statements[i].Stmt
		if tables[i], err = cost.CompilePlan(stmt, tp, phys); err != nil {
			b.Fatal(err)
		}
		if interned[i], err = set.Compile(stmt); err != nil {
			b.Fatal(err)
		}
	}
	configs := make([]core.Config, 1<<len(phys))
	for c := range configs {
		configs[c] = core.Config(c)
	}
	row := make([]float64, len(configs))
	b.Run("kernel", func(b *testing.B) {
		kernel := cost.NewRowKernel(configs)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			kernel.Fill(tables, row)
		}
	})
	b.Run("interned", func(b *testing.B) {
		kernel := cost.NewRowKernel(configs)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			kernel.Fill(interned, row)
		}
	})
	b.Run("percell", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j, c := range configs {
				total := 0.0
				for _, pt := range tables {
					total += pt.Cost(uint64(c))
				}
				row[j] = total
			}
		}
	})
}

// BenchmarkRecommendConcurrent drives the whole advisor pipeline from
// several goroutines at once — the "shared advisor under heavy traffic"
// shape — reporting aggregate throughput per op.
func BenchmarkRecommendConcurrent(b *testing.B) {
	t2 := getFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			rec, err := t2.Advisor.Recommend(t2.W1, experiments.PaperOptions(2))
			if err != nil {
				b.Fatal(err)
			}
			if rec.Solution.Changes > 2 {
				b.Fatal("change bound violated")
			}
		}
	})
}

// BenchmarkAblationWhatIfCosting times one full what-if cost-matrix
// evaluation (the advisor's preprocessing, shared by every strategy).
func BenchmarkAblationWhatIfCosting(b *testing.B) {
	t2 := getFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, _, err := t2.Advisor.Problem(t2.W1, experiments.PaperOptions(core.Unconstrained))
		if err != nil {
			b.Fatal(err)
		}
		// Force a cold matrix evaluation.
		if _, err := core.SolveUnconstrained(bg, p); err != nil {
			b.Fatal(err)
		}
	}
}

func kName(k int) string {
	return "k=" + string(rune('0'+k/10)) + string(rune('0'+k%10))
}
