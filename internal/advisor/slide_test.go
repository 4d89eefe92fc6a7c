package advisor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dyndesign/internal/candidates"
	"dyndesign/internal/catalog"
	"dyndesign/internal/core"
	"dyndesign/internal/workload"
)

// latticeAdvisor is the test table under eight structures with every
// subset allowed: 256 configurations, wide enough (splitMinBits) for the
// seed pass to split between two workers.
func latticeAdvisor(t *testing.T) (*Advisor, func()) {
	t.Helper()
	db := buildDB(t)
	structures := append(candidates.PaperStructures("t"),
		catalog.IndexDef{Table: "t", Columns: []string{"b", "a"}},
		catalog.IndexDef{Table: "t", Columns: []string{"d", "c"}})
	adv, err := New(db, DesignSpace{Table: "t", Structures: structures})
	if err != nil {
		t.Fatal(err)
	}
	invalidate := func() {
		var sb strings.Builder
		sb.WriteString("INSERT INTO t VALUES (0, 0, 0, 0)")
		for i := 1; i < testRows/10; i++ {
			fmt.Fprintf(&sb, ", (%d, %d, %d, %d)", i, i, i, i)
		}
		db.MustExec(sb.String())
		if err := db.Analyze("t"); err != nil {
			t.Fatal(err)
		}
	}
	return adv, invalidate
}

// loadStream is W1 then W2 at 250-statement blocks with a 300-row
// INSERT burst after every 500 reads, the shape of the benchmark's
// solve_lattice trace: the bursts make index maintenance pay, so most
// slides' seed passes forget the dropped head within the window.
func loadStream(t *testing.T) *workload.Workload {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	stream := &workload.Workload{Name: "load"}
	reads := 0
	for i, name := range []string{"W1", "W2"} {
		w, err := workload.PaperWorkload(name, testRows, 250, int64(70+i))
		if err != nil {
			t.Fatal(err)
		}
		for j, s := range w.Statements {
			stream.Append(w.Labels[j], s)
			if reads++; reads%500 == 0 {
				ins, err := workload.GenerateInserts("t", 4, workload.DomainForRows(testRows), rng, 300)
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range ins {
					stream.Append("LOAD", d)
				}
			}
		}
	}
	return stream
}

// TestSlidesMatchColdSolves is the retained seed pass's differential
// test: 505 consecutive slides of a 40-segment window over one retained
// Memo and Cache, each compared with a solve of the same window on a
// fresh Memo and Cache — designs, Cost bits, changes and gap — at
// Parallelism 1 and 2. On the way the world is invalidated (DML and
// ANALYZE), the initial design changes and the window slides by two
// segments at once. Most slides must reuse retained stages, and the
// invalidation must take a full pass.
func TestSlidesMatchColdSolves(t *testing.T) {
	adv, invalidate := latticeAdvisor(t)
	stream := loadStream(t)
	const seg, stages, slides = 20, 40, 505
	const invalidateAt, initialAt, doubleAt = 150, 300, 420
	for _, par := range []int{1, 2} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			f := core.Config(0)
			opts := Options{K: 2, SegmentSize: seg, Final: &f, Parallelism: par,
				Memo: NewMemo(0), Cache: core.NewSolveCache()}
			lo, reusing := 0, 0
			for i := 0; i <= slides; i++ {
				switch i {
				case invalidateAt:
					invalidate()
				case initialAt:
					opts.Initial = core.Config(0b101)
				case doubleAt:
					lo += seg
				}
				w := stream.Slice(lo, lo+seg*stages)
				rec, err := adv.Recommend(w, opts)
				if err != nil {
					t.Fatalf("slide %d: %v", i, err)
				}
				cold := opts
				cold.Memo, cold.Cache = nil, nil
				want, err := adv.Recommend(w, cold)
				if err != nil {
					t.Fatalf("slide %d, cold: %v", i, err)
				}
				got, exp := rec.Solution, want.Solution
				if !slices.Equal(got.Designs, exp.Designs) || math.Float64bits(got.Cost) != math.Float64bits(exp.Cost) ||
					got.Changes != exp.Changes || got.Gap != exp.Gap {
					t.Fatalf("slide %d: retained solve (cost %v, %d changes, gap %v) differs from the cold solve (cost %v, %d changes, gap %v)",
						i, got.Cost, got.Changes, got.Gap, exp.Cost, exp.Changes, exp.Gap)
				}
				if rec.SeedStagesReused > 0 {
					reusing++
				}
				if i == 0 && (rec.SeedStagesReused != 0 || rec.SeedFullPasses != 0) {
					t.Fatalf("first solve: %d stages reused, %d full passes, want neither", rec.SeedStagesReused, rec.SeedFullPasses)
				}
				if i == invalidateAt && (rec.SeedFullPasses != 1 || rec.SeedStagesReused != 0) {
					t.Fatalf("slide after the world changed: %d full passes, %d stages reused, want one full pass",
						rec.SeedFullPasses, rec.SeedStagesReused)
				}
				lo += seg
			}
			if reusing < slides*3/4 {
				t.Fatalf("%d of %d slides reused retained stages, want at least three in four", reusing, slides)
			}
		})
	}
}
