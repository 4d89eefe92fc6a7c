package obs

import (
	"bytes"
	"math"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// promText matches one exposition line: a comment, or a sample with an
// optional label set whose values contain no raw newline or unescaped
// quote. Used by the concurrency tests to assert scrape output stays
// parseable while writers are racing.
var promText = regexp.MustCompile(`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? ([0-9.e+-]+|\+Inf|NaN))$`)

func assertParseable(t *testing.T, text string) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			continue
		}
		if !promText.MatchString(line) {
			t.Fatalf("unparseable exposition line: %q", line)
		}
	}
}

// TestHistogramSetPrometheusOutput pins the rendered shape of one
// histogram family: HELP, TYPE, cumulative buckets, +Inf, sum, count.
func TestHistogramSetPrometheusOutput(t *testing.T) {
	h := NewHistogramSet()
	h.Help("advisord_solve_seconds", "Wall time of one advisor solve.")
	h.Observe("advisord_solve_seconds", 3*time.Microsecond)
	h.Observe("advisord_solve_seconds", 5*time.Millisecond)
	var buf bytes.Buffer
	if err := h.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	assertParseable(t, out)
	for _, want := range []string{
		"# HELP advisord_solve_seconds Wall time of one advisor solve.\n",
		"# TYPE advisord_solve_seconds histogram\n",
		"advisord_solve_seconds_bucket{le=\"+Inf\"} 2\n",
		"advisord_solve_seconds_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// The two observations land in different log2 buckets, so some
	// bucket strictly between them must hold exactly 1.
	if !strings.Contains(out, "} 1\n") {
		t.Errorf("expected an intermediate cumulative bucket of 1:\n%s", out)
	}
	if got := h.Count("advisord_solve_seconds"); got != 2 {
		t.Errorf("Count = %d, want 2", got)
	}
	if got := h.Count("nope"); got != 0 {
		t.Errorf("Count(unknown) = %d, want 0", got)
	}
}

// TestHistogramSetNil pins that the disabled (nil) histogram set drops
// all calls without panicking, matching the GaugeSet contract.
func TestHistogramSetNil(t *testing.T) {
	var h *HistogramSet
	h.Help("x", "y")
	h.Observe("x", time.Second)
	if got := h.Count("x"); got != 0 {
		t.Errorf("nil Count = %d, want 0", got)
	}
	var buf bytes.Buffer
	if err := h.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil WritePrometheus wrote %q, err %v", buf.String(), err)
	}
}

// TestGaugeSetFunc pins scrape-time families: one read per scrape
// shared by the group, declared HELP and TYPE rendered, NaN suppressed
// header and all.
func TestGaugeSetFunc(t *testing.T) {
	g := NewGaugeSet()
	age, reads := 1.5, 0
	g.Func([]Family{
		{Name: "age_seconds", Help: "Age of the thing.", Kind: Gauge},
		{Name: "things_total", Help: "Things seen.", Kind: Counter},
	}, func() []float64 {
		reads++
		return []float64{age, 7}
	})
	render := func() string {
		var buf bytes.Buffer
		if err := g.WritePrometheus(&buf); err != nil {
			t.Fatalf("WritePrometheus: %v", err)
		}
		return buf.String()
	}
	want := "# HELP age_seconds Age of the thing.\n# TYPE age_seconds gauge\nage_seconds 1.5\n" +
		"# HELP things_total Things seen.\n# TYPE things_total counter\nthings_total 7\n"
	if out := render(); out != want {
		t.Errorf("func families rendered:\n%s\nwant:\n%s", out, want)
	}
	if reads != 1 {
		t.Errorf("one scrape read the group %d times, want 1", reads)
	}
	age = 2.5
	if out := render(); !strings.Contains(out, "age_seconds 2.5\n") {
		t.Errorf("func gauge not re-evaluated:\n%s", out)
	}
	age = math.NaN()
	if out := render(); strings.Contains(out, "age_seconds") || !strings.Contains(out, "things_total 7\n") {
		t.Errorf("NaN should suppress age_seconds entirely and nothing else:\n%s", out)
	}
	// Nil-set and nil-read registrations are dropped silently.
	var nilG *GaugeSet
	nilG.Func([]Family{{Name: "x"}}, func() []float64 { return []float64{1} })
	g.Func([]Family{{Name: "x"}}, nil)
	if out := render(); strings.Contains(out, "\nx ") {
		t.Errorf("nil read registered:\n%s", out)
	}
}

// TestPrometheusEscaping pins the exposition-format escaping rules on
// both exporters: label values escape backslash, quote, and newline;
// HELP escapes backslash and newline but leaves quotes literal.
func TestPrometheusEscaping(t *testing.T) {
	g := NewGaugeSet()
	g.Help("weird", "line one\nline \\two \"quoted\"")
	g.Set("weird", 1, "path", "C:\\tmp\n\"x\"")
	var buf bytes.Buffer
	if err := g.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	assertParseable(t, out)
	if want := `# HELP weird line one\nline \\two "quoted"` + "\n"; !strings.Contains(out, want) {
		t.Errorf("HELP not escaped per format, want %q in:\n%s", want, out)
	}
	if want := `weird{path="C:\\tmp\n\"x\""} 1` + "\n"; !strings.Contains(out, want) {
		t.Errorf("label value not escaped per format, want %q in:\n%s", want, out)
	}

	// Span names flow into label values on the aggregator exporter.
	agg := NewAggregator()
	tr := NewTracer(agg)
	sp := tr.Start("evil\"span\nname\\")
	sp.End()
	buf.Reset()
	if err := agg.WritePrometheus(&buf); err != nil {
		t.Fatalf("agg WritePrometheus: %v", err)
	}
	assertParseable(t, buf.String())
	if want := `span="evil\"span\nname\\"`; !strings.Contains(buf.String(), want) {
		t.Errorf("span label not escaped, want %s in:\n%s", want, buf.String())
	}
}

// TestGaugeSetConcurrentScrape races Set and Func registration against
// WritePrometheus; under -race this proves the registry is data-race
// free, and every mid-flight scrape must still parse.
func TestGaugeSetConcurrentScrape(t *testing.T) {
	g := NewGaugeSet()
	g.Help("racy_metric", "Updated while being scraped.")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var n atomic.Int64
			g.Func([]Family{{Name: "racy_func_" + string(rune('a'+w)), Kind: Counter}},
				func() []float64 { return []float64{float64(n.Load())} })
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				g.Set("racy_metric", float64(i), "worker", string(rune('a'+w)))
				n.Add(1)
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := g.WritePrometheus(&buf); err != nil {
			t.Fatalf("scrape %d: %v", i, err)
		}
		assertParseable(t, buf.String())
	}
	close(stop)
	wg.Wait()
}

// TestAggregatorConcurrentScrape races span emission (and histogram
// observation) against in-flight scrapes of the full metrics handler
// stack; output must always parse.
func TestAggregatorConcurrentScrape(t *testing.T) {
	agg := NewAggregator()
	tr := NewTracer(agg)
	hists := NewHistogramSet()
	hists.Help("advisord_ingest_seconds", "Ingest latency.")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sp := tr.Start("solve.step")
				sp.End()
				hists.Observe("advisord_ingest_seconds", time.Duration(i)*time.Microsecond)
			}
		}()
	}
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := agg.WritePrometheus(&buf); err != nil {
			t.Fatalf("agg scrape %d: %v", i, err)
		}
		if err := hists.WritePrometheus(&buf); err != nil {
			t.Fatalf("hist scrape %d: %v", i, err)
		}
		assertParseable(t, buf.String())
	}
	close(stop)
	wg.Wait()
}
