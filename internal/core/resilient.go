package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"dyndesign/internal/obs"
)

// ErrWhatIfBudget is the cancellation cause installed when a resilient
// rung exhausts its what-if evaluation budget: the solve stops at its
// next cooperative cancellation point and the supervisor degrades to
// the next rung.
var ErrWhatIfBudget = errors.New("core: what-if evaluation budget exhausted")

// ErrModelFault wraps evaluation failures reported by a FallibleModel:
// the solve completed mechanically, but some cost it consumed came from
// a failed evaluation, so its output cannot be trusted.
var ErrModelFault = errors.New("core: cost model reported evaluation faults")

// FallibleModel is a CostModel whose evaluations can fail at runtime
// (the advisor's what-if model costing a statement, a remote cost
// service, a fault-injecting test model). Because CostModel's methods
// return bare float64s, a failing evaluation returns +Inf and records
// the failure; TakeErr surfaces it.
//
// The resilient supervisor calls TakeErr after every rung — a non-nil
// error fails the rung even if a solution came back — and the advisor
// calls it after plain solves. TakeErr clears the stored failure so
// each rung is judged only on its own evaluations.
type FallibleModel interface {
	CostModel
	// TakeErr returns the first evaluation failure observed since the
	// previous TakeErr call and clears it; nil when every evaluation
	// succeeded.
	TakeErr() error
}

// budgetModel wraps a rung's cost model with a work budget: the
// (budget+1)-th EXEC evaluation cancels the rung's context with
// ErrWhatIfBudget. Evaluations are never blocked — the wrapped model
// keeps answering so in-flight matrix rows stay consistent — the solve
// simply stops at its next cancellation point. Memoized models count
// memo hits too: the budget bounds solver demand, not model work.
type budgetModel struct {
	inner  CostModel
	budget int64
	calls  atomic.Int64
	cancel context.CancelCauseFunc
}

func (b *budgetModel) Exec(stage int, c Config) float64 {
	if b.calls.Add(1) == b.budget+1 {
		b.cancel(ErrWhatIfBudget)
	}
	return b.inner.Exec(stage, c)
}

// BatchExec implements BatchCostModel: the whole batch is charged
// against the budget up front (the add that crosses budget+1 cancels,
// exactly once), then delegated to the inner model's batch entry point
// when it has one and evaluated per cell otherwise. Either way the
// total charged equals what the per-call path would have charged.
func (b *budgetModel) BatchExec(stage int, configs []Config, out []float64) []float64 {
	if n := int64(len(configs)); n > 0 {
		after := b.calls.Add(n)
		if after >= b.budget+1 && after-n < b.budget+1 {
			b.cancel(ErrWhatIfBudget)
		}
	}
	if bm, ok := b.inner.(BatchCostModel); ok {
		return bm.BatchExec(stage, configs, out)
	}
	if cap(out) < len(configs) {
		out = make([]float64, len(configs))
	}
	out = out[:len(configs)]
	for j, c := range configs {
		out[j] = b.inner.Exec(stage, c)
	}
	return out
}

func (b *budgetModel) Trans(from, to Config) float64 { return b.inner.Trans(from, to) }
func (b *budgetModel) Size(c Config) float64         { return b.inner.Size(c) }

// Unwrap exposes the budgeted model to capability lookups, so a budget
// changes how much a rung may ask, never which kernel or factoring it
// gets.
func (b *budgetModel) Unwrap() CostModel { return b.inner }

// FailureClass tags why a resilient rung did not answer.
type FailureClass string

// Rung failure classes.
const (
	FailTimeout   FailureClass = "timeout"   // rung or overall deadline expired
	FailBudget    FailureClass = "budget"    // what-if budget exhausted
	FailFault     FailureClass = "fault"     // FallibleModel reported evaluation failures
	FailPanic     FailureClass = "panic"     // panic recovered into a *PanicError
	FailCancelled FailureClass = "cancelled" // parent context explicitly cancelled
	FailError     FailureClass = "error"     // any other solver error (infeasible, budgeted ranking, ...)
)

// classifyFailure maps a rung error to its class.
func classifyFailure(err error) FailureClass {
	var pe *PanicError
	switch {
	case err == nil:
		return ""
	case errors.As(err, &pe):
		return FailPanic
	case errors.Is(err, ErrWhatIfBudget):
		return FailBudget
	case errors.Is(err, ErrModelFault):
		return FailFault
	case errors.Is(err, context.DeadlineExceeded):
		return FailTimeout
	case errors.Is(err, context.Canceled):
		return FailCancelled
	default:
		return FailError
	}
}

// RungLastKnownGood is the pseudo-strategy reported when the resilient
// supervisor answered with the caller-provided last-known-good design
// after every solving rung failed.
const RungLastKnownGood Strategy = "lastknowngood"

// RungReport describes one attempted rung of a resilient solve.
type RungReport struct {
	Strategy Strategy
	// Class is empty for the rung that answered.
	Class FailureClass
	// Err is the rung's failure, nil for the rung that answered.
	Err     error
	Elapsed time.Duration
}

// ResilientOptions configures SolveResilient.
type ResilientOptions struct {
	// Ladder is the degradation ladder: strategies tried in order until
	// one answers. Empty means DefaultLadder(StrategyKAware) — the
	// exact solver, then greedy-seq, then merging.
	Ladder []Strategy
	// RungTimeout is the deadline granted to each rung on top of
	// whatever deadline the caller's context carries; 0 means none.
	RungTimeout time.Duration
	// MaxWhatIfCalls bounds the EXEC evaluations each rung may request
	// (memo hits included — it bounds solver demand, not model work);
	// 0 means unbounded.
	MaxWhatIfCalls int64
	// LastKnownGood, when non-nil, is the final fallback: a previously
	// recommended design sequence adopted — after revalidation against
	// the problem — when every solving rung fails.
	LastKnownGood *Solution
}

// DefaultLadder builds the standard degradation ladder starting from
// the caller's preferred strategy: primary first, then the strategy
// table's rungs in table order — greedy-seq and merging, each
// progressively cheaper — without duplicates.
func DefaultLadder(primary Strategy) []Strategy {
	if primary == "" {
		primary = StrategyKAware
	}
	out := []Strategy{primary}
	for _, row := range strategyTable {
		if row.rung && row.name != primary {
			out = append(out, row.name)
		}
	}
	return out
}

// AutoLadder builds the degradation ladder for a problem: the default
// ladder of the preferred strategy, with the partitioned solver
// prepended when the candidate span exceeds the exact hypercube
// ceiling — the regime where the exact solvers silently degrade to the
// dense O(n·c²) scan (ErrLatticeTooLarge) and factoring or anytime
// search is the right first attempt. Below the ceiling the exact
// solver is already optimal, so the ladder is unchanged.
func AutoLadder(p *Problem, primary Strategy) []Strategy {
	ladder := DefaultLadder(primary)
	if primary != StrategyPartitioned && spanOf(p.Configs).Count() > maxLatticeBits {
		return append([]Strategy{StrategyPartitioned}, ladder...)
	}
	return ladder
}

// ResilientResult is the outcome of a resilient solve.
type ResilientResult struct {
	// Solution is feasible for the problem (CheckSolution-valid); nil
	// only when SolveResilient also returned an error.
	Solution *Solution
	// Rung is the strategy that answered (RungLastKnownGood for the
	// fallback design).
	Rung Strategy
	// Degraded is true when the first rung did not answer.
	Degraded bool
	// Reports has one entry per attempted rung, in ladder order.
	Reports []RungReport
}

// SolveResilient is the fault-tolerant solve supervisor: it walks a
// degradation ladder of strategies, giving each rung a deadline and a
// what-if budget, recovering panics into typed errors, and rejecting
// answers a FallibleModel flagged or CheckSolution refutes. It returns
// either a feasible solution (with the rung that produced it and a
// report per failed rung) or an error aggregating every rung's failure
// — never a hang, never a crash from a misbehaving cost model.
//
// The ladder degrades on deadlines, budgets, faults, and panics; an
// explicit cancellation of the caller's context aborts it instead (an
// interrupted operator wants the solve stopped, not approximated). When
// every rung fails and Opts.LastKnownGood is set, that design is
// revalidated against the problem and adopted as the final rung.
//
// On total failure the returned *ResilientResult is still non-nil and
// carries the per-rung reports for diagnostics; only its Solution is
// nil.
func SolveResilient(ctx context.Context, p *Problem, opts ResilientOptions) (*ResilientResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ladder := opts.Ladder
	if len(ladder) == 0 {
		ladder = AutoLadder(p, StrategyKAware)
	}
	fallible, _ := p.Model.(FallibleModel)

	res := &ResilientResult{}
	var failures []error
	fail := func(strat Strategy, err error, elapsed time.Duration) {
		res.Reports = append(res.Reports, RungReport{
			Strategy: strat, Class: classifyFailure(err), Err: err, Elapsed: elapsed,
		})
		failures = append(failures, fmt.Errorf("%s: %w", strat, err))
		p.Metrics.noteDegradation()
	}

	for i, strat := range ladder {
		if err := ctxErr(ctx); err != nil && errors.Is(err, context.Canceled) {
			// Explicit cancellation: stop, don't degrade.
			failures = append(failures, err)
			return res, fmt.Errorf("core: resilient solve cancelled: %w", errors.Join(failures...))
		}
		rungCtx, cancel := context.WithCancelCause(ctx)
		var timeoutCancel context.CancelFunc = func() {}
		if opts.RungTimeout > 0 {
			rungCtx, timeoutCancel = context.WithTimeout(rungCtx, opts.RungTimeout)
		}
		rp := *p
		if opts.MaxWhatIfCalls > 0 {
			rp.Model = &budgetModel{inner: p.Model, budget: opts.MaxWhatIfCalls, cancel: cancel}
		}
		start := time.Now()
		rung := p.Tracer.Start(SpanResilientRung)
		sol, err := safeSolve(rungCtx, &rp, strat)
		if ferr := takeModelErr(fallible); ferr != nil && err == nil {
			err = fmt.Errorf("%w: %w", ErrModelFault, ferr)
		}
		if err == nil {
			// The rung's answer must stand on its own: recompute and
			// re-check it, treating verification faults as rung faults.
			err = p.safeCheck(sol)
			if ferr := takeModelErr(fallible); ferr != nil && err == nil {
				err = fmt.Errorf("%w: verifying %s solution: %w", ErrModelFault, strat, ferr)
			}
		}
		rung.End(obs.String("strategy", string(strat)), obs.Bool("ok", err == nil),
			obs.String("class", string(classifyFailure(err))))
		elapsed := time.Since(start)
		timeoutCancel()
		cancel(nil)
		if err == nil {
			res.Reports = append(res.Reports, RungReport{Strategy: strat, Elapsed: elapsed})
			res.Solution = sol
			res.Rung = strat
			res.Degraded = i > 0
			return res, nil
		}
		fail(strat, err, elapsed)
	}

	if opts.LastKnownGood != nil {
		start := time.Now()
		rung := p.Tracer.Start(SpanResilientRung)
		sol, err := p.safeAdopt(opts.LastKnownGood)
		if ferr := takeModelErr(fallible); ferr != nil && err == nil {
			err = fmt.Errorf("%w: revalidating last-known-good design: %w", ErrModelFault, ferr)
		}
		rung.End(obs.String("strategy", string(RungLastKnownGood)), obs.Bool("ok", err == nil),
			obs.String("class", string(classifyFailure(err))))
		elapsed := time.Since(start)
		if err == nil {
			res.Reports = append(res.Reports, RungReport{Strategy: RungLastKnownGood, Elapsed: elapsed})
			res.Solution = sol
			res.Rung = RungLastKnownGood
			res.Degraded = true
			return res, nil
		}
		fail(RungLastKnownGood, err, elapsed)
	}
	return res, fmt.Errorf("core: every rung of the resilient ladder failed: %w", errors.Join(failures...))
}

// safeSolve runs one strategy, converting a panic that escapes the
// solve (a misbehaving cost model on a serial path — the worker pool
// already converts its own) into a *PanicError.
func safeSolve(ctx context.Context, p *Problem, strat Strategy) (sol *Solution, err error) {
	defer func() {
		if r := recover(); r != nil {
			p.Metrics.noteRecoveredPanic()
			sol, err = nil, recoverPanic(r)
		}
	}()
	return Solve(ctx, p, strat)
}

// safeCheck verifies a solution against the problem with panic
// recovery: CheckSolution recomputes the sequence cost through the
// model, which can itself fault under injection.
func (p *Problem) safeCheck(sol *Solution) (err error) {
	defer func() {
		if r := recover(); r != nil {
			p.Metrics.noteRecoveredPanic()
			err = recoverPanic(r)
		}
	}()
	if sol == nil {
		return fmt.Errorf("core: solver returned no solution")
	}
	return p.CheckSolution(sol)
}

// safeAdopt re-prices a previously known-good design sequence under the
// problem's current model and verifies it is still feasible, with panic
// recovery around the model calls.
func (p *Problem) safeAdopt(lkg *Solution) (sol *Solution, err error) {
	defer func() {
		if r := recover(); r != nil {
			p.Metrics.noteRecoveredPanic()
			sol, err = nil, recoverPanic(r)
		}
	}()
	fresh := p.NewSolution(lkg.Designs)
	if err := p.CheckSolution(fresh); err != nil {
		return nil, err
	}
	return fresh, nil
}

// takeModelErr drains a FallibleModel's stored failure; nil model means
// nil error.
func takeModelErr(m FallibleModel) error {
	if m == nil {
		return nil
	}
	return m.TakeErr()
}
