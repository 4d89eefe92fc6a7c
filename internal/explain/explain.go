// Package explain builds decision provenance for a solved constrained
// dynamic physical design problem: why each design change was worth its
// transition cost, what the change bound k cost relative to nearby
// bounds, and whether the recommendation survives perturbations of the
// trace it was fitted to (the overfitting audit).
//
// The package depends only on core and obs so every consumer — the
// advisor, the CLIs, the experiment harness — can attach provenance to
// any Solution without an import cycle. Everything is computed from the
// solved sequence and the problem's (memoized) cost model; nothing here
// re-runs the original solve. The k-sweep reuses the k-aware layered DP
// through core.SweepK, and the audit re-solves only the small perturbed
// problems its caller supplies.
package explain

import (
	"context"
	"fmt"

	"dyndesign/internal/core"
)

// SchemaVersion identifies the Explanation JSON schema. Bump it when a
// field changes meaning; additive fields keep the version.
const SchemaVersion = 1

// PerturbFunc builds the perturbed problem for one audit trial. The
// returned problem must share the solved problem's design space (the
// fixed design sequence is replayed against it verbatim) and should
// derive all randomness from seed so audits are reproducible. The
// advisor supplies a closure that resamples the workload trace
// block-wise and re-assembles the problem.
type PerturbFunc func(trial int, seed int64) (*core.Problem, error)

// Options configures Build.
type Options struct {
	// StructureNames render configurations; missing names fall back to
	// bit indices.
	StructureNames []string
	// StageStatement and StageSQL, when non-nil, decorate stages with
	// workload positions: the index of the stage's first statement, and
	// a short SQL excerpt of it. The advisor derives both from its
	// segments.
	StageStatement func(stage int) int
	StageSQL       func(stage int) string
	// KSweepDelta extends the counterfactual sweep to k + KSweepDelta
	// change bounds (0 sweeps to k alone, negative disables the sweep).
	// Build applies no default; the advisor's is 2.
	KSweepDelta int
	// AuditTrials is the number of perturbed replays (default 0: no
	// audit). The audit also requires Perturb.
	AuditTrials int
	// AuditSeed derives the per-trial seeds (trial i uses AuditSeed+i).
	AuditSeed int64
	// Perturb builds each trial's perturbed problem; nil disables the
	// audit. The audit's regret baseline re-solves each perturbed
	// problem with the exact k-aware solver.
	Perturb PerturbFunc
}

// StageImpact is one stage's contribution to a design change: the
// what-if EXEC delta the change bought for that stage.
type StageImpact struct {
	// Stage is the problem stage index.
	Stage int `json:"stage"`
	// Statement is the index of the stage's first workload statement
	// (-1 when no StageStatement was supplied).
	Statement int `json:"statement"`
	// SQL is a short excerpt of the stage's first statement ("" when no
	// StageSQL was supplied).
	SQL string `json:"sql,omitempty"`
	// Delta is EXEC(stage, from) - EXEC(stage, to): how much cheaper the
	// stage executes under the new design.
	Delta float64 `json:"delta"`
}

// Transition is one design change of the solution with its cost
// attribution: what the change cost (TRANS), what it bought (EXEC saved
// over the run it starts), and the penalty that removing it would incur
// — the quantity the merging heuristic minimizes, reused here as the
// justification of keeping the change.
type Transition struct {
	// Stage is the stage index before which the change happens;
	// Stage == stages means the final teardown to the pinned endpoint.
	Stage int `json:"stage"`
	// Statement is the workload index of the stage's first statement
	// (-1 when unknown).
	Statement int `json:"statement"`
	// From and To are the configurations, rendered with the structure
	// names; FromBits and ToBits are their raw bitsets.
	From     string `json:"from"`
	To       string `json:"to"`
	FromBits uint64 `json:"from_bits"`
	ToBits   uint64 `json:"to_bits"`
	// TransCost is TRANS(From, To), the price of the change.
	TransCost float64 `json:"trans_cost"`
	// RunLength is the number of stages executed under To before the
	// next change (0 for the final teardown).
	RunLength int `json:"run_length"`
	// RunExecCost is the EXEC total of that run under To.
	RunExecCost float64 `json:"run_exec_cost"`
	// ExecSaved is the EXEC total the run saves relative to staying in
	// From: sum over the run of EXEC(i, From) - EXEC(i, To).
	ExecSaved float64 `json:"exec_saved"`
	// RemovalPenalty is the sequence-cost increase if the change were
	// removed and its run executed under From instead (transition
	// rewiring included) — the merging heuristic's penalty of collapsing
	// this run into its predecessor. A positive value is the margin that
	// justified the change; a negative value means a heuristic solver
	// kept a change the exact merge step would have removed.
	RemovalPenalty float64 `json:"removal_penalty"`
	// TopStages lists the (at most three) stages the change helped most,
	// by EXEC delta (ties broken by stage index).
	TopStages []StageImpact `json:"top_stages,omitempty"`
}

// Trial is one perturbed replay of the audit.
type Trial struct {
	Seed int64 `json:"seed"`
	// FixedCost is the fixed design sequence's cost on the perturbed
	// problem; OracleCost the re-solved optimum; Regret the difference.
	FixedCost  float64 `json:"fixed_cost"`
	OracleCost float64 `json:"oracle_cost"`
	Regret     float64 `json:"regret"`
}

// AuditSide is the audit result for one design (constrained or
// unconstrained): the held-out regret of replaying that fixed design
// against perturbed traces, versus re-solving each perturbation.
type AuditSide struct {
	// K is the change bound the side's design was solved under
	// (core.Unconstrained for the unconstrained side).
	K int `json:"k"`
	// TrainCost is the design's cost on the original (training) problem.
	TrainCost float64 `json:"train_cost"`
	// Changes is the design's change count on the original problem.
	Changes int `json:"changes"`
	// MeanRegret and MaxRegret summarize the trials.
	MeanRegret float64 `json:"mean_regret"`
	MaxRegret  float64 `json:"max_regret"`
	Trials     []Trial `json:"trials"`
}

// Audit is the overfitting audit: the constrained recommendation and
// the unconstrained optimum, each replayed against the same perturbed
// traces. A constrained design that generalizes shows held-out regret
// at or below the unconstrained design's — the paper's argument that
// bounding changes prevents fitting transient noise.
type Audit struct {
	Trials        int       `json:"trials"`
	Seed          int64     `json:"seed"`
	Constrained   AuditSide `json:"constrained"`
	Unconstrained AuditSide `json:"unconstrained"`
}

// Explanation is the schema-versioned decision provenance of one
// recommendation.
type Explanation struct {
	SchemaVersion int `json:"schema_version"`
	// Strategy names the solver that produced the solution. Build
	// leaves it empty; the advisor sets the rung that answered.
	Strategy string `json:"strategy,omitempty"`
	Stages   int    `json:"stages"`
	K        int    `json:"k"`
	Policy   string `json:"policy"`
	// Cost and its split mirror the explained Solution exactly.
	Cost      float64 `json:"cost"`
	ExecCost  float64 `json:"exec_cost"`
	TransCost float64 `json:"trans_cost"`
	Changes   int     `json:"changes"`
	// Transitions attributes every design change, endpoint transitions
	// included.
	Transitions []Transition `json:"transitions"`
	// KSweep is the cost-of-constraint curve over [0, k+KSweepDelta].
	KSweep []core.KPoint `json:"k_sweep,omitempty"`
	// Audit is the overfitting audit (nil when not requested).
	Audit *Audit `json:"audit,omitempty"`
}

// Build computes the decision provenance of sol for p. The solution
// must belong to the problem (same stage count). Build never mutates p
// beyond evaluating its cost model; attribution reads the EXEC cells
// through the problem's cached cost tables (core.Problem.ExecColumn)
// and asks the model only for cells they lack.
func Build(ctx context.Context, p *core.Problem, sol *core.Solution, opts Options) (*Explanation, error) {
	if sol == nil {
		return nil, fmt.Errorf("explain: no solution to explain")
	}
	if len(sol.Designs) != p.Stages {
		return nil, fmt.Errorf("explain: solution has %d designs for %d stages", len(sol.Designs), p.Stages)
	}
	e := &Explanation{
		SchemaVersion: SchemaVersion,
		Stages:        p.Stages,
		K:             p.K,
		Policy:        p.Policy.String(),
		Cost:          sol.Cost,
		ExecCost:      sol.ExecCost,
		TransCost:     sol.TransCost,
		Changes:       sol.Changes,
	}
	e.Transitions = attribute(p, sol, opts)
	if opts.KSweepDelta >= 0 {
		sweep, err := buildKSweep(ctx, p, sol, opts)
		if err != nil {
			return nil, err
		}
		e.KSweep = sweep
	}
	if opts.Perturb != nil && opts.AuditTrials > 0 {
		audit, err := runAudit(ctx, p, sol, opts)
		if err != nil {
			return nil, err
		}
		e.Audit = audit
	}
	return e, nil
}
