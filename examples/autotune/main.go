// Autotune demonstrates the toolkit's extensions around the paper:
//
//  1. choosing the change bound k automatically (the paper's first open
//     question) — by cross-validation over representative traces and by
//     the elbow rule on a single trace, and
//  2. the drift alerter (the trigger §7 delegates to "design alerter"
//     technology): a monitor watches the live statement stream and fires
//     when the installed design no longer fits, at which point the
//     advisor is re-run.
//
// Run with:
//
//	go run ./examples/autotune
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"

	"dyndesign"
)

const rows = 40000

func main() {
	db := buildDatabase()
	structures := dyndesign.PaperStructures("t")
	space := dyndesign.DesignSpace{
		Table:      "t",
		Structures: structures,
		Configs:    dyndesign.SingleIndexConfigs(len(structures)),
	}
	adv, err := dyndesign.NewAdvisor(db, space)
	if err != nil {
		log.Fatal(err)
	}
	empty := dyndesign.Config(0)
	opts := dyndesign.Options{Final: &empty}

	// --- Part 1: choose k -------------------------------------------------
	// Three representative traces of the same process (captured on
	// different "days"): same major trends, different details.
	var traces []*dyndesign.Workload
	for day := 0; day < 3; day++ {
		name := "W1"
		if day == 2 {
			name = "W3" // one day had its minor shifts out of phase
		}
		w, err := dyndesign.PaperWorkload(name, rows, 100, int64(100+day))
		if err != nil {
			log.Fatal(err)
		}
		traces = append(traces, w)
	}

	cv, err := dyndesign.CrossValidateK(adv, traces, opts, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cross-validation over %d traces chose k = %d\n", len(traces), cv.K)
	fmt.Printf("%4s %14s %14s\n", "k", "train cost", "holdout cost")
	for k, p := range cv.Curve {
		marker := ""
		if k == cv.K {
			marker = "  <- chosen"
		}
		fmt.Printf("%4d %14.0f %14.0f%s\n", k, p.Cost, cv.Holdout[k], marker)
	}

	elbow, err := dyndesign.ElbowK(adv, traces[0], opts, -1, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nelbow rule on a single trace chose k = %d\n\n", elbow.K)

	// --- Part 2: monitor, alert, re-tune -----------------------------------
	// Install the static best design for the morning mix and watch the
	// stream; when the workload shifts, the alerter fires and we re-run
	// the advisor on the recent window.
	mixes := dyndesign.PaperMixes(rows)
	mon, err := dyndesign.NewAlerter(adv, space.Configs, empty, dyndesign.AlerterOptions{
		WindowSize: 300,
		CheckEvery: 50,
		Threshold:  0.3,
	})
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	phases := []string{"A", "A", "C", "C", "A"}
	fmt.Println("monitoring a live stream (phases A A C C A)...")
	for pi, phase := range phases {
		stmts, err := mixes[phase].Generate(rng, 600)
		if err != nil {
			log.Fatal(err)
		}
		for si, s := range stmts {
			alert, err := mon.Observe(s)
			if err != nil {
				log.Fatal(err)
			}
			if alert == nil {
				continue
			}
			fmt.Printf("  phase %d (%s), statement %d: ALERT — current design %s, "+
				"window would run %.0f%% cheaper under %s\n",
				pi, phase, si, mon.Current().Format(spaceNames(space)),
				alert.Improvement*100, alert.BestConfig.Format(spaceNames(space)))
			// Re-tune: install the configuration the alerter points at
			// (a full deployment would re-run the offline advisor on a
			// captured trace; the alerter's best-for-window config is
			// its cheap approximation).
			if err := applyConfig(db, space, mon.Current(), alert.BestConfig); err != nil {
				log.Fatal(err)
			}
			if err := mon.SetCurrent(alert.BestConfig); err != nil {
				log.Fatal(err)
			}
		}
	}
	fmt.Printf("stream done; installed design: %s\n", mon.Current().Format(spaceNames(space)))
}

func spaceNames(space dyndesign.DesignSpace) []string {
	names := make([]string, len(space.Structures))
	for i, s := range space.Structures {
		names[i] = s.Name()
	}
	return names
}

// applyConfig reconciles the database's indexes from one configuration
// to another.
func applyConfig(db *dyndesign.Database, space dyndesign.DesignSpace, from, to dyndesign.Config) error {
	for _, bit := range from.Structures() {
		if !to.Has(bit) {
			def := space.Structures[bit]
			if _, err := db.Exec(fmt.Sprintf("DROP INDEX %s ON %s", def.Name(), def.Table)); err != nil {
				return err
			}
		}
	}
	for _, bit := range to.Structures() {
		if !from.Has(bit) {
			def := space.Structures[bit]
			q := fmt.Sprintf("CREATE INDEX ON %s (%s)", def.Table, strings.Join(def.Columns, ", "))
			if _, err := db.Exec(q); err != nil {
				return err
			}
		}
	}
	return nil
}

func buildDatabase() *dyndesign.Database {
	db := dyndesign.NewDatabase()
	db.MustExec("CREATE TABLE t (a INT, b INT, c INT, d INT)")
	domain := int64(rows / 5)
	rng := rand.New(rand.NewSource(12))
	var sb strings.Builder
	for i := 0; i < rows; i += 500 {
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
		log.Fatal(err)
	}
	return db
}
