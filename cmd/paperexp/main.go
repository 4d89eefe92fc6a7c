// Command paperexp reproduces the evaluation of Voigt, Salem, Lehner,
// "Constrained Dynamic Physical Database Design" (ICDEW 2008): Table 1
// (query mixes), Table 2 (workloads and recommended designs), Figure 3
// (execution cost of W1/W2/W3 under the constrained and unconstrained
// designs), and Figure 4 (optimizer runtimes vs k).
//
// Usage:
//
//	paperexp -exp all                      # everything at default scale
//	paperexp -exp table2 -rows 2500000 -block 500   # paper scale
//	paperexp -exp fig4 -ks 2,4,6,8,10,12,14,16,18
//	paperexp -exp ablations                # quality vs k, the strategy table, ...
//	paperexp -exp table2 -timeout 30s -fallback     # bounded, degradable solves
//
// -timeout, -max-whatif, and -fallback bound every advisor solve the
// harness makes (per-attempt deadline, what-if evaluation budget, and
// the degradation ladder). SIGINT or SIGTERM cancels the run at the
// next solver cancellation point; partial robustness diagnostics are
// printed for the interrupted solve.
//
// -trace writes per-stage solver and experiment spans as JSONL,
// -metrics-addr serves Prometheus metrics (plus expvar and pprof),
// -pprof-addr serves net/http/pprof alone, and -runtime-trace captures
// a runtime/trace execution trace; see DESIGN.md §9. When span
// collection is on, a per-stage summary is printed to stderr at exit:
//
//	paperexp -exp table2 -trace spans.jsonl -metrics-addr :9090
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"

	"dyndesign/internal/advisor"
	"dyndesign/internal/experiments"
	"dyndesign/internal/obs"
)

// experimentNames are the values -exp accepts besides "all".
var experimentNames = []string{"table1", "table2", "fig3", "fig4", "ablations"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command and returns its exit status: 0, 1 when an
// experiment fails, 2 for a usage error (reported before any table is
// built), 130 when interrupted.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paperexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment to run: "+strings.Join(experimentNames, ", ")+", or all")
	rows := fs.Int64("rows", experiments.DefaultScale.Rows, "table cardinality (paper: 2500000)")
	block := fs.Int("block", experiments.DefaultScale.BlockSize, "queries per workload block (paper: 500)")
	seed := fs.Int64("seed", experiments.DefaultScale.Seed, "random seed")
	ksFlag := fs.String("ks", "2,4,6,8,10,12,14,16,18", "comma-separated k values for fig4")
	format := fs.String("format", "text", "output format: text or json")
	workers := fs.Int("workers", 0, "GOMAXPROCS for the solvers' own worker pools; experiment cells always run one at a time (0 = all cores, 1 = serial)")
	timeout := fs.Duration("timeout", 0, "deadline per solver attempt (0 = none)")
	maxWhatIf := fs.Int64("max-whatif", 0, "what-if evaluation budget per solver attempt (0 = unbounded)")
	fallback := fs.Bool("fallback", false, "degrade to cheaper strategies when a solver attempt fails")
	traceOut := fs.String("trace", "", "write solver and experiment spans as JSONL to this file")
	metricsAddr := fs.String("metrics-addr", "", "serve Prometheus metrics, expvar, and pprof at this address (e.g. :9090)")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof at this address (may equal -metrics-addr)")
	runtimeTrace := fs.String("runtime-trace", "", "capture a runtime/trace execution trace to this file")
	explainOut := fs.String("explain-out", "", "explain the constrained Table 2 design and write the provenance JSON here")
	auditTrials := fs.Int("audit-trials", 0, "perturbed replays in the explain overfitting audit (0 = default 5)")
	auditSeed := fs.Int64("audit-seed", 0, "seed deriving the audit's resampling trials (0 = default 1)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "paperexp: "+format+"\n", a...)
		return 2
	}
	if *exp != "all" && !slices.Contains(experimentNames, *exp) {
		return usage("unknown experiment %q (want %s, or all)", *exp, strings.Join(experimentNames, ", "))
	}
	if *format != "text" && *format != "json" {
		return usage("unknown -format %q", *format)
	}
	asJSON := *format == "json"
	var ks []int
	for _, part := range strings.Split(*ksFlag, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, err := strconv.Atoi(part)
		if err != nil || k < 0 {
			return usage("bad -ks entry %q", part)
		}
		ks = append(ks, k)
	}

	// SIGINT/SIGTERM cancel the context; every experiment checks it
	// inside the solvers, so an interrupt exits cleanly with partial
	// diagnostics instead of killing the process. The context is created
	// before the obs sinks so the JSONL writer's tail flush can be routed
	// through the signal teardown path.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	gauges := obs.NewGaugeSet()
	tracer, obsTeardown, err := obs.Setup(obs.CLIConfig{
		TracePath:        *traceOut,
		MetricsAddr:      *metricsAddr,
		PprofAddr:        *pprofAddr,
		RuntimeTracePath: *runtimeTrace,
		SummaryW:         stderr,
		Gauges:           gauges,
		FlushCtx:         ctx,
	})
	if err != nil {
		fmt.Fprintf(stderr, "paperexp: %v\n", err)
		return 1
	}
	defer obsTeardown()
	experiments.SetRobustness(experiments.Robustness{
		Timeout:        *timeout,
		MaxWhatIfCalls: *maxWhatIf,
		Fallback:       *fallback,
		Tracer:         tracer,
	})
	fail := func(err error) int {
		fmt.Fprintf(stderr, "paperexp: %v\n", err)
		if errors.Is(err, context.Canceled) {
			fmt.Fprintf(stderr, "paperexp: interrupted — results above are partial\n")
			return 130
		}
		return 1
	}
	if *workers > 0 {
		runtime.GOMAXPROCS(*workers)
	}
	scale := experiments.Scale{Rows: *rows, BlockSize: *block, Seed: *seed}
	report := experiments.JSONReport{Scale: scale}
	selected := func(name string) bool { return *exp == "all" || *exp == name }
	// show prints one result as text; under -format json the results go
	// out together, in report, at the end.
	show := func(r interface{ Render(io.Writer) }) {
		if !asJSON {
			r.Render(stdout)
			fmt.Fprintln(stdout)
		}
	}

	if selected("table1") {
		report.Table1 = experiments.RunTable1()
		show(report.Table1)
	}
	if *exp == "table1" {
		if asJSON {
			if err := experiments.WriteJSON(stdout, report); err != nil {
				return fail(err)
			}
		}
		return 0
	}

	fmt.Fprintf(stderr, "building %d-row table and solving designs (this is the expensive part)...\n", scale.Rows)
	t2, err := experiments.RunTable2(ctx, scale)
	if err != nil {
		return fail(err)
	}
	costingSummary := func(name string, rec *advisor.Recommendation) {
		fmt.Fprintf(stderr, "  %s costing: %d what-if calls, %.1f%% cache hit rate, %.1f ms matrix build\n",
			name, rec.Stats.WhatIfCalls, 100*rec.Stats.HitRate(),
			float64(rec.MatrixBuildTime.Microseconds())/1000)
		if rec.Degraded {
			fmt.Fprintf(stderr, "  %s solve degraded to rung %s\n", name, rec.Rung)
		}
		rec.RenderRobustness(stderr)
	}
	costingSummary("unconstrained", t2.Unconstrained)
	costingSummary("k=2", t2.Constrained)
	if *explainOut != "" {
		fmt.Fprintf(stderr, "explaining the constrained design (k-sweep + overfitting audit)...\n")
		e, err := experiments.ExplainConstrained(ctx, t2, advisor.ExplainOptions{
			AuditTrials: *auditTrials,
			AuditSeed:   *auditSeed,
		})
		if err != nil {
			return fail(err)
		}
		e.PublishGauges(gauges)
		buf, err := json.MarshalIndent(e, "", "  ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*explainOut, append(buf, '\n'), 0o644); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "explanation written to %s\n", *explainOut)
		report.Explanation = e
		show(e)
	}
	if selected("table2") {
		report.Table2 = t2.Rows
		show(t2)
	}
	if selected("fig3") {
		fmt.Fprintf(stderr, "replaying 6 workload/design combinations...\n")
		if report.Figure3, err = experiments.RunFigure3(ctx, t2); err != nil {
			return fail(err)
		}
		show(report.Figure3)
	}
	if selected("fig4") {
		fmt.Fprintf(stderr, "timing optimizers for k = %v...\n", ks)
		if report.Figure4, err = experiments.RunFigure4(ctx, t2, ks); err != nil {
			return fail(err)
		}
		show(report.Figure4)
	}
	if selected("ablations") {
		fmt.Fprintf(stderr, "running ablations...\n")
		if report.Quality, err = experiments.RunQualityVsK(ctx, t2); err != nil {
			return fail(err)
		}
		show(report.Quality)
		const rankingBudget = 2_000_000
		strat, err := experiments.RunStrategyComparison(ctx, t2, rankingBudget)
		if err != nil {
			return fail(err)
		}
		show(strat)
		ranking, err := experiments.RunRankingAblation(ctx, t2, []int{2, 4, 8, 12}, rankingBudget)
		if err != nil {
			return fail(err)
		}
		show(ranking)
		policy, err := experiments.RunPolicyAblation(ctx, t2, []int{0, 1, 2, 4, 8})
		if err != nil {
			return fail(err)
		}
		show(policy)
		if report.WriteLoad, err = experiments.RunWriteLoad(ctx, scale); err != nil {
			return fail(err)
		}
		show(report.WriteLoad)
		estimate, err := experiments.RunEstimateVsMeasured(ctx, t2, []int{0, 2, 8, 14})
		if err != nil {
			return fail(err)
		}
		show(estimate)
		if report.Calibration, err = experiments.RunCalibration(ctx, t2, 64); err != nil {
			return fail(err)
		}
		if !asJSON { // the last block ends the output: no blank line after it
			report.Calibration.Render(stdout)
		}
	}
	if asJSON {
		if err := experiments.WriteJSON(stdout, report); err != nil {
			return fail(err)
		}
	}
	return 0
}
