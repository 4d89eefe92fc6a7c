package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{15, 0, false}, {99, 0, false}, // p90 of 99 leaves nine beyond it
		{100, 0.90, true}, {999, 0.90, true},
		{1000, 0.99, true}, {9000, 0.99, true}, {9999, 0.99, true},
		{10000, 0.999, true}, {90000, 0.999, true},
		{100000, 0.9999, true},
	} {
		p, ok := tailPercentile(tc.n)
		if ok != tc.ok || p != tc.want {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, p, ok, tc.want, tc.ok)
		}
	}
}

func TestMedianQuantileSpread(t *testing.T) {
	xs := []float64{9, 1, 4, 2, 8}
	if got := median(xs); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := quantile([]float64{0, 10, 20, 30, 40}, 0.9); math.Abs(got-36) > 1e-9 {
		t.Errorf("p90 = %v, want 36", got)
	}
	if got := spread(xs); got != 2 {
		t.Errorf("spread = %v, want (9-1)/4", got)
	}
	if !slices.Equal(xs, []float64{9, 1, 4, 2, 8}) {
		t.Errorf("input reordered: %v", xs)
	}
	// statistics.quantiles([1,2,4,8,9,12,13.5,20,21,40], n=4) is
	// [3.5, 10.5, 20.25]; for [1,2] it extrapolates to [0.75, 1.5, 2.25].
	ten := []float64{1, 2, 4, 8, 9, 12, 13.5, 20, 21, 40}
	if got, want := iqrShare(ten), (20.25-3.5)/10.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare(ten) = %v, want %v", got, want)
	}
	if got, want := iqrShare([]float64{1, 2}), (2.25-0.75)/1.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare(two) = %v, want %v", got, want)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},                 // nested below
		{Name: "a.inner", Start: 15, End: 25, Parent: 1},           // grandchild: root does not see it twice
		{Name: "b", Start: 30, End: 60, Parent: 0},                 // overlaps a by 10
		{Name: "c", Start: 60, End: 70, Parent: 0},                 // abuts b
		{Name: "d", Start: 90, End: 120, Parent: 0},                // reaches past the root: clipped
		{Name: "x", Start: 0, End: 100, Parent: 0, External: true}, // ignored
	}
	self := selfTimes(spans)
	// Children cover [10,70) and [90,100): 70 of 100.
	want := []int64{30, 20, 10, 30, 10, 30, 0}
	if !slices.Equal(self, want) {
		t.Fatalf("selfTimes = %v, want %v", self, want)
	}
	// Grouping spans (root, a) keep 30 + 20 uncovered of a 100 wall.
	if got := coverage(spans); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("coverage = %v, want 0.5", got)
	}
	lt := layerTotals(spans)
	if lt["b"].SelfNS != 30 || lt["b"].Count != 1 || lt["x"].Count != 0 {
		t.Errorf("layerTotals = %+v", lt)
	}
}

func TestRecorderSharesClockReadings(t *testing.T) {
	rec := newRecorder()
	rec.begin("group")
	rec.begin("one")
	rec.next("two")
	rec.next("three")
	rec.end()
	rec.end()
	if len(rec.spans) != 4 || len(rec.stack) != 0 {
		t.Fatalf("spans %d, open %d", len(rec.spans), len(rec.stack))
	}
	for i := 1; i < 3; i++ {
		if rec.spans[i].End != rec.spans[i+1].Start || rec.spans[i].Parent != 0 {
			t.Errorf("span %d ends %d, next starts %d, parent %d", i, rec.spans[i].End, rec.spans[i+1].Start, rec.spans[i].Parent)
		}
	}
	var off *recorder
	off.begin("x")
	off.next("y")
	off.end()
	off.nextOp()
}

func sqlOf(stmts []stmt) string {
	var sb strings.Builder
	for _, s := range stmts {
		sb.WriteString(s.Label)
		sb.WriteByte('\t')
		sb.WriteString(s.S.SQL)
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestGeneratorsDeterministic(t *testing.T) {
	const rows = 3000
	gens := map[string]func(seed int64) ([]stmt, error){
		"stream":     func(seed int64) ([]stmt, error) { return newStreamSource(rows, seed, false).next(2000) },
		"stream_dml": func(seed int64) ([]stmt, error) { return newStreamSource(rows, seed, true).next(2000) },
		"lattice":    func(seed int64) ([]stmt, error) { return latticeTrace(rows, seed, smokeSizes) },
		"replay":     func(seed int64) ([]stmt, error) { return replayTrace(rows, seed, 10) },
	}
	for name, gen := range gens {
		a, err := gen(1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, _ := gen(1)
		c, _ := gen(2)
		if sqlOf(a) != sqlOf(b) {
			t.Errorf("%s: one seed, two traces", name)
		}
		if sqlOf(a) == sqlOf(c) {
			t.Errorf("%s: two seeds, one trace", name)
		}
	}
	// The DML pattern: every run of 20 is 16 SELECTs, 3 INSERTs, 1 UPDATE.
	dml, err := gens["stream_dml"](1)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range dml {
		want := "SELECT"
		switch pos := i % 20; {
		case pos == 19:
			want = "UPDATE"
		case pos >= 16:
			want = "INSERT"
		}
		if !strings.HasPrefix(s.S.SQL, want) {
			t.Fatalf("statement %d is %q, want a %s", i, s.S.SQL, want)
		}
	}
}

// benchmarkJSON is BENCHMARK.json's shape.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	var wls []string
	for _, w := range bj.Workloads {
		wls = append(wls, w.Name)
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why (%d chars)", w.Name, len(w.Why))
		}
	}
	if !slices.Equal(wls, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, harness runs %v", wls, workloadNames)
	}

	type key struct{ name, unit, better string }
	want := map[metricKind][]key{}
	for _, d := range metricDefs {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metricDefs entry %+v breaks the naming rules", d)
		}
		want[d.Kind] = append(want[d.Kind], key{d.Name, d.Unit, d.Better})
	}
	var e2e, layer []key
	hasSetup := false
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, key{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	for _, m := range bj.PerLayer {
		layer = append(layer, key{m.Name, m.Unit, m.Better})
	}
	if !slices.Equal(e2e, want[kindEndToEnd]) {
		t.Errorf("end_to_end is %v, harness emits %v", e2e, want[kindEndToEnd])
	}
	if !slices.Equal(layer, want[kindLayer]) {
		t.Errorf("per_layer is %v, harness emits %v", layer, want[kindLayer])
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower")
	}
	if !slices.Equal(bj.Command, []string{"go", "run", "./bench/e2e"}) || !slices.Equal(bj.Paths, []string{"bench/e2e"}) {
		t.Errorf("command %v, paths %v", bj.Command, bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", bj.RunSeconds)
	}
}

// TestSmoke runs all four workloads untraced, and one traced, at 3 000
// rows and a few hundred statements. Every correctness check must pass
// and every contract metric must be present.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts advisord children")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(root, workDirName), 0o755); err != nil {
		t.Fatal(err)
	}
	bin, err := buildAdvisord(root)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stopAllChildren)
	cfg := config{seed: 7, rows: 3000, seconds: 0.2, trace: "0", repeat: 1, setups: 1, size: smokeSizes}
	run := func(cfg config) {
		res, err := runWorkload(cfg, root, bin)
		if err != nil {
			t.Fatalf("%s (trace %s): %v", cfg.workload, cfg.trace, err)
		}
		line := contractLine(res)
		if !line.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s (trace %s): %d of %d operations failed: %v", cfg.workload, cfg.trace, res.Failed, res.Attempted, res.Failures)
		}
		kind := kindEndToEnd
		if cfg.traced() {
			kind = kindLayer
		}
		n := 0
		for _, d := range metricDefs {
			if d.Kind != kind {
				continue
			}
			n++
			v, ok := line.Metrics[d.Name]
			if !ok || (kind == kindEndToEnd && v.Value <= 0) {
				t.Errorf("%s (trace %s): metric %s missing or not positive: %+v", cfg.workload, cfg.trace, d.Name, v)
			}
		}
		if len(line.Metrics) != n {
			t.Errorf("%s (trace %s): %d metrics on the contract line, want %d", cfg.workload, cfg.trace, len(line.Metrics), n)
		}
	}
	for _, wl := range workloadNames {
		cfg.workload = wl
		run(cfg)
	}
	cfg.workload = wlStreamDurable
	cfg.trace = filepath.Join(t.TempDir(), "spans.jsonl")
	run(cfg)
	if st, err := os.Stat(cfg.trace); err != nil || st.Size() == 0 {
		t.Errorf("span file: %v", err)
	}
}
