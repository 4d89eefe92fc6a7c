package advisor

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"dyndesign/internal/workload"
)

// coldWindow is one window shape of a cold problem assembly.
type coldWindow struct {
	name string
	adv  *Advisor
	w    *workload.Workload
	opts Options
}

// coldWindows are the two window shapes of a cold problem assembly: the
// solve_lattice window, 360 stages of 50 statements over the full 2¹⁰
// lattice at k = 4, and 2 220 one-statement stages over the paper's seven
// configurations at k = 2, ending in the empty design, the shape of the
// replay_engine windows.
func coldWindows(tb testing.TB) []coldWindow {
	stream := loadStream(tb)
	for stream.Len() < 360*50 {
		stream.Append("", stream.Statements...)
	}
	_, paper := testAdvisor(tb)
	return []coldWindow{
		{"360x50", fullLatticeAdvisor(tb), stream.Slice(0, 360*50), Options{K: 4, SegmentSize: 50}},
		{"2220x1", paper, stream.Slice(0, 2220), paperOpts(2)},
	}
}

// BenchmarkColdProblem times Advisor.Problem from a fresh row store — the
// assembly every first solve, statistics refresh and one-shot run pays —
// and reports it per statement. Run it at -cpu 1,2: the default
// Parallelism compiles on one worker per CPU.
func BenchmarkColdProblem(b *testing.B) {
	for _, win := range coldWindows(b) {
		b.Run(win.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, _, err := win.adv.Problem(win.w, win.opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*win.w.Len()), "ns/stmt")
		})
	}
}

// TestColdProblemSameAtOneAndTwoWorkers pins that the compile's worker
// count changes nothing a cold problem holds: at Parallelism 1 and 2 the
// rows cost the same bits, the plan tables retain the same bytes over
// the same number of builds, and a window with a bad statement fails
// with the same first error.
func TestColdProblemSameAtOneAndTwoWorkers(t *testing.T) {
	for _, win := range coldWindows(t) {
		var ref []uint64
		var refStats CostStats
		for _, par := range []int{1, 2} {
			opts := win.opts
			opts.Parallelism = par
			p, _, err := win.adv.Problem(win.w, opts)
			if err != nil {
				t.Fatal(err)
			}
			m := p.Model.(*whatIfModel)
			var bits []uint64
			for i := range p.Stages {
				for _, v := range m.BatchExec(i, m.pinned, nil) {
					bits = append(bits, math.Float64bits(v))
				}
			}
			st := m.costStats()
			if par == 1 {
				ref, refStats = bits, st
				continue
			}
			if len(bits) != len(ref) {
				t.Fatalf("%s: %d cells at Parallelism 2, %d at 1", win.name, len(bits), len(ref))
			}
			for j := range bits {
				if bits[j] != ref[j] {
					t.Fatalf("%s: cell %d has bits %x at Parallelism 2, %x at 1", win.name, j, bits[j], ref[j])
				}
			}
			if st.PlanTableBytes != refStats.PlanTableBytes || st.PlanTableBuilds != refStats.PlanTableBuilds {
				t.Fatalf("%s: Parallelism 2 retains %d table bytes over %d builds, Parallelism 1 %d over %d",
					win.name, st.PlanTableBytes, st.PlanTableBuilds, refStats.PlanTableBytes, refStats.PlanTableBuilds)
			}
		}

		// A statement of a valid template's shape but a literal of the
		// wrong kind, and a second bad statement after it: both worker
		// counts name the first.
		bad := &workload.Workload{Name: "bad"}
		bad.Append("", win.w.Statements...)
		for _, at := range []int{bad.Len() / 3, bad.Len() / 2} {
			s := workload.MustStatement(fmt.Sprintf("SELECT a FROM t WHERE b = 'x%d'", at))
			bad.Statements[at] = s
		}
		var want string
		for _, par := range []int{1, 2} {
			opts := win.opts
			opts.Parallelism = par
			_, _, err := win.adv.Problem(bad, opts)
			if err == nil {
				t.Fatalf("%s: Parallelism %d accepted a window with a bad statement", win.name, par)
			}
			if par == 1 {
				want = err.Error()
				continue
			}
			if err.Error() != want {
				t.Fatalf("%s: Parallelism 2 fails with %q, Parallelism 1 with %q", win.name, err, want)
			}
		}
		if wantAt := fmt.Sprintf("statement %d ", bad.Len()/3); !strings.Contains(want, wantAt) {
			t.Fatalf("%s: the error %q does not name the first bad statement (%s)", win.name, want, wantAt)
		}
	}
}
