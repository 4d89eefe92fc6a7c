// Command dyndesign is the design advisor CLI: it loads a database from
// a SQL setup script, reads a workload trace, and recommends a
// (constrained) dynamic physical design.
//
// Usage:
//
//	dyndesign -setup schema.sql -trace w1.json -k 2
//	dyndesign -paper-rows 100000 -trace w1.json -k 2 -strategy merge
//	dyndesign -paper-rows 100000 -trace w1.json -k unconstrained -candidates auto
//	dyndesign -paper-rows 100000 -trace w1.json -k 2 -timeout 5s -fallback
//	dyndesign -paper-rows 100000 -trace w1.json -k 2 -trace-out spans.jsonl -metrics-addr :9090
//
// -trace-out writes per-stage solver spans as JSONL, -metrics-addr
// serves Prometheus metrics (plus expvar and pprof), -pprof-addr serves
// net/http/pprof alone, and -runtime-trace captures a runtime/trace
// execution trace; see DESIGN.md §9. When span collection is on, a
// per-stage summary is printed to stderr at exit.
//
// -timeout bounds each solver attempt, -max-whatif bounds its what-if
// evaluations, and -fallback enables the degradation ladder: when the
// requested strategy fails (deadline, budget, fault, panic) the advisor
// falls back to cheaper strategies instead of failing the run. SIGINT
// or SIGTERM cancels the solve; an interrupted run still prints the
// partial robustness diagnostics.
//
// -calib N replays N sampled statements against the live engine under
// the recommended designs and reports how the what-if cost model
// calibrates against measured page accesses (a summary line in the
// report; -calib-out writes the full paired samples as JSON). See
// DESIGN.md §16.
//
// The setup script is a sequence of SQL statements (one per line or
// separated by semicolons at line ends; "--" comments allowed) that
// creates and fills the tables. -paper-rows replaces the script with the
// paper's synthetic 4-column table at the given cardinality.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"syscall"

	"dyndesign/internal/advisor"
	"dyndesign/internal/candidates"
	"dyndesign/internal/core"
	"dyndesign/internal/experiments"
	"dyndesign/internal/explain"
	"dyndesign/internal/obs"
	"dyndesign/internal/workload"
)

func main() {
	// SIGINT/SIGTERM cancel the context; solvers notice at their next
	// cooperative cancellation point and the run exits with partial
	// diagnostics instead of being killed mid-solve.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "dyndesign: %v\n", err)
		if errors.Is(err, context.Canceled) {
			os.Exit(130)
		}
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	setup := flag.String("setup", "", "SQL script creating and filling the database")
	paperRows := flag.Int64("paper-rows", 0, "instead of -setup, build the paper's table with this many rows")
	tracePath := flag.String("trace", "", "workload trace JSON (from workloadgen); - for stdin")
	table := flag.String("table", "t", "table to tune")
	kFlag := flag.String("k", "2", "change bound (a number, or 'unconstrained')")
	space := flag.Float64("space", 0, "space bound b in pages (0 = unbounded)")
	// An unknown -strategy is a usage error (exit status 2) while the flags
	// parse, before any database is built: under -fallback it would fail
	// only its own rung and the run would exit 0 on the next rung's answer.
	strategy := core.StrategyKAware
	flag.Func("strategy", fmt.Sprintf("solver `name`, one of %v (default %s)", core.Strategies(), strategy), func(name string) (err error) {
		strategy, err = core.ParseStrategy(name)
		return err
	})
	segment := flag.Int("segment", 1, "statements per optimization stage")
	policy := flag.String("policy", "free", "change counting: 'free' (endpoints free) or 'strict' (Definition 1)")
	candMode := flag.String("candidates", "paper", "candidate structures: 'paper' or 'auto' (derived from the trace)")
	finalEmpty := flag.Bool("final-empty", true, "constrain the final configuration to be empty")
	timeline := flag.Int("timeline", 0, "also print the design timeline with this block size (-1 for auto)")
	timeout := flag.Duration("timeout", 0, "deadline per solver attempt (0 = none)")
	maxWhatIf := flag.Int64("max-whatif", 0, "what-if evaluation budget per solver attempt (0 = unbounded)")
	fallback := flag.Bool("fallback", false, "degrade to cheaper strategies when the requested one fails")
	traceOut := flag.String("trace-out", "", "write solver spans as JSONL to this file")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus metrics, expvar, and pprof at this address (e.g. :9090)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof at this address (may equal -metrics-addr)")
	runtimeTrace := flag.String("runtime-trace", "", "capture a runtime/trace execution trace to this file")
	explainFlag := flag.Bool("explain", false, "attach decision provenance: cost attribution, k-sweep, overfitting audit")
	explainOut := flag.String("explain-out", "", "write the explanation as JSON to this file (implies -explain)")
	auditTrials := flag.Int("audit-trials", 0, "perturbed replays in the overfitting audit (0 = default 5, negative disables)")
	auditSeed := flag.Int64("audit-seed", 0, "seed deriving the audit's resampling trials (0 = default 1)")
	ksweepDelta := flag.Int("ksweep-delta", 0, "sweep the cost-of-constraint curve to k plus this (0 = default 2)")
	calibSamples := flag.Int("calib", 0, "replay this many sampled statements against the engine to calibrate the cost model (0 = off)")
	calibSeed := flag.Int64("calib-seed", 1, "seed for the deterministic calibration sampling")
	calibOut := flag.String("calib-out", "", "write the calibration run report as JSON to this file (implies -calib 16 if -calib is 0)")
	flag.Parse()

	gauges := obs.NewGaugeSet()
	tracer, obsTeardown, err := obs.Setup(obs.CLIConfig{
		TracePath:        *traceOut,
		MetricsAddr:      *metricsAddr,
		PprofAddr:        *pprofAddr,
		RuntimeTracePath: *runtimeTrace,
		SummaryW:         os.Stderr,
		Gauges:           gauges,
		// The signal context routes the JSONL tail flush through the
		// teardown path: a SIGTERM-cancelled run persists every span
		// emitted before the signal even if the process dies before
		// the deferred teardown.
		FlushCtx: ctx,
	})
	if err != nil {
		return err
	}
	defer obsTeardown()

	if *tracePath == "" {
		return fmt.Errorf("-trace is required")
	}

	db, err := experiments.LoadDatabase(*setup, *paperRows, *table, os.Stderr)
	if err != nil {
		return err
	}

	// Read the workload.
	var in *os.File
	if *tracePath == "-" {
		in = os.Stdin
	} else {
		f, err := os.Open(*tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	w, err := workload.ReadJSON(in)
	if err != nil {
		return err
	}

	// Design space.
	var spaceDef advisor.DesignSpace
	switch *candMode {
	case "paper":
		structures := candidates.PaperStructures(*table)
		spaceDef = advisor.DesignSpace{
			Table:      *table,
			Structures: structures,
			Configs:    advisor.SingleIndexConfigs(len(structures)),
		}
	case "auto":
		structures := candidates.FromWorkload(w, *table, candidates.Options{MaxWidth: 2, Limit: 16})
		if len(structures) == 0 {
			return fmt.Errorf("no candidate structures derivable from the trace")
		}
		spaceDef = advisor.DesignSpace{Table: *table, Structures: structures}
	default:
		return fmt.Errorf("unknown -candidates mode %q", *candMode)
	}

	// Options.
	opts := advisor.Options{
		SpaceBound:  *space,
		Strategy:    strategy,
		SegmentSize: *segment,
	}
	switch *kFlag {
	case "unconstrained", "inf", "-1":
		opts.K = core.Unconstrained
	default:
		k, err := strconv.Atoi(*kFlag)
		if err != nil || k < 0 {
			return fmt.Errorf("bad -k %q", *kFlag)
		}
		opts.K = k
	}
	switch *policy {
	case "free":
		opts.Policy = core.FreeEndpoints
	case "strict":
		opts.Policy = core.CountAll
	default:
		return fmt.Errorf("unknown -policy %q", *policy)
	}
	if *finalEmpty {
		f := core.Config(0)
		opts.Final = &f
	}
	opts.Timeout = *timeout
	opts.MaxWhatIfCalls = *maxWhatIf
	opts.Fallback = *fallback
	opts.Tracer = tracer
	if *calibOut != "" && *calibSamples <= 0 {
		*calibSamples = 16
	}

	adv, err := advisor.New(db, spaceDef)
	if err != nil {
		return err
	}
	rec, err := adv.RecommendContext(ctx, w, opts)
	if err == nil && (*explainFlag || *explainOut != "") {
		eopts := advisor.ExplainOptions{KSweepDelta: *ksweepDelta, AuditTrials: *auditTrials, AuditSeed: *auditSeed}
		if _, err = adv.Explain(ctx, rec, eopts); err != nil {
			err = fmt.Errorf("advisor: explaining recommendation: %w", err)
		}
	}
	if err == nil && *calibSamples > 0 {
		copts := advisor.CalibrateOptions{Samples: *calibSamples, Seed: *calibSeed}
		if _, err = adv.CalibrateContext(ctx, rec, copts); err != nil {
			err = fmt.Errorf("advisor: calibrating recommendation: %w", err)
		}
	}
	if err != nil {
		// An interrupted or failed solve still carries its robustness
		// ledger: print which rungs ran and why they failed.
		if rec != nil {
			rec.RenderRobustness(os.Stderr)
		}
		return err
	}
	if rec.Degraded {
		fmt.Fprintf(os.Stderr, "dyndesign: strategy %s did not answer; degraded to rung %s\n",
			rec.Strategy, rec.Rung)
	}
	rec.Render(os.Stdout)
	if rec.Explanation != nil {
		rec.Explanation.PublishGauges(gauges)
		if *explainOut != "" {
			if err := writeExplanation(*explainOut, rec.Explanation); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "dyndesign: explanation written to %s\n", *explainOut)
		}
	}
	if rec.Calibration != nil && *calibOut != "" {
		buf, err := json.MarshalIndent(rec.Calibration, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*calibOut, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "dyndesign: calibration report written to %s\n", *calibOut)
	}
	if *timeline != 0 {
		fmt.Println()
		rec.RenderTimeline(os.Stdout, *timeline)
	}
	return nil
}

// writeExplanation serializes the provenance record as indented JSON.
func writeExplanation(path string, e *explain.Explanation) error {
	buf, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
