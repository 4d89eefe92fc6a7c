package alerter

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dyndesign/internal/advisor"
	"dyndesign/internal/candidates"
	"dyndesign/internal/core"
	"dyndesign/internal/engine"
	"dyndesign/internal/workload"
)

const testRows = 20000

func fixture(t testing.TB) (*advisor.Advisor, []core.Config) {
	t.Helper()
	db := engine.New()
	db.MustExec("CREATE TABLE t (a INT, b INT, c INT, d INT)")
	domain := workload.DomainForRows(testRows)
	rng := rand.New(rand.NewSource(55))
	var sb strings.Builder
	for i := 0; i < testRows; i += 500 {
		sb.Reset()
		sb.WriteString("INSERT INTO t VALUES ")
		for j := 0; j < 500; j++ {
			if j > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, %d, %d)",
				rng.Int63n(domain), rng.Int63n(domain), rng.Int63n(domain), rng.Int63n(domain))
		}
		db.MustExec(sb.String())
	}
	if err := db.Analyze("t"); err != nil {
		t.Fatal(err)
	}
	structures := candidates.PaperStructures("t")
	configs := advisor.SingleIndexConfigs(len(structures))
	adv, err := advisor.New(db, advisor.DesignSpace{
		Table: "t", Structures: structures, Configs: configs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return adv, configs
}

// feed sends n statements from a mix, returning the first alert.
func feed(t *testing.T, a *Alerter, mix workload.Mix, rng *rand.Rand, n int) *Alert {
	t.Helper()
	stmts, err := mix.Generate(rng, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stmts {
		alert, err := a.Observe(s)
		if err != nil {
			t.Fatal(err)
		}
		if alert != nil {
			return alert
		}
	}
	return nil
}

func TestAlerterFiresOnDrift(t *testing.T) {
	adv, configs := fixture(t)
	mixes := workload.PaperMixes(testRows)
	// Start on I(a,b) — the right design for mix A.
	current := core.ConfigOf(4)
	a, err := New(adv, configs, current, Options{WindowSize: 200, CheckEvery: 20, Threshold: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	// Phase 1: mix A. The current design is good; no alert.
	if alert := feed(t, a, mixes["A"], rng, 400); alert != nil {
		t.Fatalf("false alert during the matching phase: %+v", alert)
	}
	// Phase 2: the workload shifts to mix C. The alerter must fire and
	// point at a c-serving configuration.
	alert := feed(t, a, mixes["C"], rng, 400)
	if alert == nil {
		t.Fatal("no alert after a major workload shift")
	}
	if alert.Improvement < 0.2 {
		t.Errorf("improvement = %f", alert.Improvement)
	}
	best := alert.BestConfig.Structures()
	if len(best) != 1 || (best[0] != 2 && best[0] != 5) { // I(c) or I(c,d)
		t.Errorf("best config = %v, want a c-serving index", alert.BestConfig)
	}
}

func TestAlerterCooldown(t *testing.T) {
	adv, configs := fixture(t)
	mixes := workload.PaperMixes(testRows)
	current := core.ConfigOf(4) // I(a,b)
	a, err := New(adv, configs, current, Options{
		WindowSize: 100, CheckEvery: 10, Threshold: 0.2, Cooldown: 10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	feed(t, a, mixes["A"], rng, 150)
	first := feed(t, a, mixes["C"], rng, 300)
	if first == nil {
		t.Fatal("no first alert")
	}
	// Continuing drift within the cooldown stays quiet.
	if again := feed(t, a, mixes["C"], rng, 300); again != nil {
		t.Fatalf("alert during cooldown: %+v", again)
	}
	// After the design is updated, a new drift fires again.
	if err := a.SetCurrent(first.BestConfig); err != nil {
		t.Fatal(err)
	}
	if alert := feed(t, a, mixes["C"], rng, 300); alert != nil {
		t.Fatalf("alert while the design matches the workload: %+v", alert)
	}
	if alert := feed(t, a, mixes["A"], rng, 400); alert == nil {
		t.Fatal("no alert after shifting back to mix A")
	}
}

func TestAlerterNoAlertBeforeWindowFills(t *testing.T) {
	adv, configs := fixture(t)
	mixes := workload.PaperMixes(testRows)
	a, err := New(adv, configs, core.ConfigOf(4), Options{WindowSize: 1000, CheckEvery: 10, Threshold: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	// Even on a mismatched mix, nothing fires before the window fills.
	if alert := feed(t, a, mixes["C"], rng, 999); alert != nil {
		t.Fatalf("alert before window filled: %+v", alert)
	}
	if a.Observed() != 999 {
		t.Errorf("observed = %d", a.Observed())
	}
}

func TestAlerterValidation(t *testing.T) {
	adv, configs := fixture(t)
	if _, err := New(adv, nil, 0, Options{}); err == nil {
		t.Error("no candidates accepted")
	}
	if _, err := New(adv, configs, core.ConfigOf(0, 1, 2), Options{}); err == nil {
		t.Error("current config outside candidates accepted")
	}
	a, err := New(adv, configs, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SetCurrent(core.ConfigOf(0, 1, 2)); err == nil {
		t.Error("SetCurrent outside candidates accepted")
	}
	if a.Current() != 0 {
		t.Error("failed SetCurrent changed the config")
	}
}

// TestAlerterStateRoundTrip is the durability contract: serialize the
// alerter mid-stream (through JSON, the way a snapshot stores it),
// restore into a fresh alerter, and drive both over the identical
// continuation — the restored one must raise the same alerts at the
// same statements.
func TestAlerterStateRoundTrip(t *testing.T) {
	adv, configs := fixture(t)
	mixes := workload.PaperMixes(testRows)
	opts := Options{WindowSize: 150, CheckEvery: 15, Threshold: 0.2}
	current := core.ConfigOf(4) // I(a,b)
	orig, err := New(adv, configs, current, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the window on mix A, then shift to mix C and stop mid-drift,
	// before the alert has fired.
	rng := rand.New(rand.NewSource(11))
	if alert := feed(t, orig, mixes["A"], rng, 200); alert != nil {
		t.Fatalf("false alert during warmup: %+v", alert)
	}
	preDrift, err := mixes["C"].Generate(rng, 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range preDrift {
		if alert, err := orig.Observe(s); err != nil {
			t.Fatal(err)
		} else if alert != nil {
			t.Fatalf("alert fired before the serialization point: %+v", alert)
		}
	}

	// JSON round-trip, exactly like the durable snapshot stores it
	// (float64 survives encoding/json bit-exactly).
	buf, err := json.Marshal(orig.State())
	if err != nil {
		t.Fatal(err)
	}
	var st State
	if err := json.Unmarshal(buf, &st); err != nil {
		t.Fatal(err)
	}
	restored, err := New(adv, configs, core.Config(0), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if restored.Current() != current || restored.Observed() != orig.Observed() {
		t.Fatalf("restored current %v observed %d, want %v %d",
			restored.Current(), restored.Observed(), current, orig.Observed())
	}

	// Identical continuation streams: both alerters must agree on every
	// alert, statement by statement.
	cont, err := mixes["C"].Generate(rng, 400)
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	for i, s := range cont {
		a1, err := orig.Observe(s)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := restored.Observe(s)
		if err != nil {
			t.Fatal(err)
		}
		if (a1 == nil) != (a2 == nil) {
			t.Fatalf("statement %d: original alert %+v, restored alert %+v", i, a1, a2)
		}
		if a1 != nil {
			fired++
			if a1.AtStatement != a2.AtStatement || a1.Current != a2.Current ||
				a1.Best != a2.Best || a1.BestConfig != a2.BestConfig {
				t.Fatalf("statement %d: alerts diverge:\noriginal: %+v\nrestored: %+v", i, a1, a2)
			}
		}
	}
	if fired == 0 {
		t.Fatal("continuation stream never fired; the round-trip proved nothing")
	}
}

// TestAlerterRestoreShapeMismatch pins the reject-don't-corrupt
// contract: a state captured under a different shape fails cleanly.
func TestAlerterRestoreShapeMismatch(t *testing.T) {
	adv, configs := fixture(t)
	opts := Options{WindowSize: 50, CheckEvery: 10}
	a, err := New(adv, configs, core.Config(0), opts)
	if err != nil {
		t.Fatal(err)
	}
	good := a.State()

	wrongWindow, err := New(adv, configs, core.Config(0), Options{WindowSize: 60, CheckEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := wrongWindow.RestoreState(good); err == nil {
		t.Fatal("restore across window sizes succeeded")
	}
	wrongConfigs, err := New(adv, configs[:len(configs)-1], core.Config(0), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := wrongConfigs.RestoreState(good); err == nil {
		t.Fatal("restore across candidate lists succeeded")
	}
	bad := good
	bad.Current = core.ConfigOf(62) // not a candidate
	if err := a.RestoreState(bad); err == nil {
		t.Fatal("restore with a foreign current configuration succeeded")
	}
}

// observeMix returns the statement mix of the observe benchmark: 800
// point SELECTs of the paper's mix A, 100 single-row INSERTs and 100
// point UPDATEs, shuffled.
func observeMix(t testing.TB) []workload.Statement {
	t.Helper()
	rng := rand.New(rand.NewSource(91))
	domain := workload.DomainForRows(testRows)
	stmts, err := workload.PaperMixes(testRows)["A"].Generate(rng, 800)
	if err != nil {
		t.Fatal(err)
	}
	ins, err := workload.GenerateInserts("t", 4, domain, rng, 100)
	if err != nil {
		t.Fatal(err)
	}
	upd, err := workload.GenerateUpdates("t", "b", "a", domain, rng, 100)
	if err != nil {
		t.Fatal(err)
	}
	stmts = append(append(stmts, ins...), upd...)
	rng.Shuffle(len(stmts), func(i, j int) { stmts[i], stmts[j] = stmts[j], stmts[i] })
	return stmts
}

// TestObserveCompilesOnce pins that Observe prices its whole candidate
// list from one compile of the statement: its allocations do not grow
// with the number of candidates, here 2 against 7.
func TestObserveCompilesOnce(t *testing.T) {
	adv, configs := fixture(t)
	stmts := observeMix(t)[:20]
	allocs := func(configs []core.Config) float64 {
		a, err := New(adv, configs, configs[0], Options{WindowSize: 1000})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			for _, s := range stmts {
				if _, err := a.Observe(s); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	if two, seven := allocs(configs[:2]), allocs(configs); two != seven {
		t.Fatalf("Observe over 20 statements allocates %v objects with 2 candidates and %v with 7; one compile prices them all", two, seven)
	}
}

// BenchmarkObserve times the drift alerter's per-statement work — one
// statement priced under the 7 candidate configurations of the paper's
// design space, and the window update — over a mix of SELECTs, INSERTs
// and UPDATEs.
func BenchmarkObserve(b *testing.B) {
	adv, configs := fixture(b)
	stmts := observeMix(b)
	a, err := New(adv, configs, configs[0], Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Observe(stmts[i%len(stmts)]); err != nil {
			b.Fatal(err)
		}
	}
}
