package explain

import (
	"context"
	"fmt"
	"math"

	"dyndesign/internal/core"
)

// runAudit replays two fixed designs — the constrained recommendation
// and the unconstrained optimum of the same training problem — against
// AuditTrials perturbed problems, comparing each replay to the
// perturbation's re-solved optimum. The held-out regret of a fixed
// design is how much it overpaid for having been fitted to the training
// trace; a design that only captured real phase structure shows ~zero
// regret, one that chased noise does not.
//
// Trials run sequentially with seeds AuditSeed+i, so the audit is
// deterministic for a deterministic Perturb.
func runAudit(ctx context.Context, p *core.Problem, sol *core.Solution, opts Options) (*Audit, error) {
	// The unconstrained counterpart is solved on the training problem —
	// the design an unbounded advisor would have shipped.
	unc := *p
	unc.K = core.Unconstrained
	uncSol, err := core.Solve(ctx, &unc, core.StrategyKAware)
	if err != nil {
		return nil, fmt.Errorf("explain: solving unconstrained training counterpart: %w", err)
	}
	audit := &Audit{
		Trials: opts.AuditTrials,
		Seed:   opts.AuditSeed,
		Constrained: AuditSide{
			K: p.K, TrainCost: sol.Cost, Changes: sol.Changes,
		},
		Unconstrained: AuditSide{
			K: core.Unconstrained, TrainCost: uncSol.Cost, Changes: uncSol.Changes,
		},
	}
	for trial := 0; trial < opts.AuditTrials; trial++ {
		seed := opts.AuditSeed + int64(trial)
		perturbed, err := opts.Perturb(trial, seed)
		if err != nil {
			return nil, fmt.Errorf("explain: audit trial %d: %w", trial, err)
		}
		if perturbed.Stages != p.Stages {
			return nil, fmt.Errorf("explain: audit trial %d has %d stages, want %d",
				trial, perturbed.Stages, p.Stages)
		}
		ct, err := replayTrial(ctx, perturbed, p.K, sol.Designs, seed)
		if err != nil {
			return nil, fmt.Errorf("explain: audit trial %d (constrained): %w", trial, err)
		}
		audit.Constrained.Trials = append(audit.Constrained.Trials, ct)
		ut, err := replayTrial(ctx, perturbed, core.Unconstrained, uncSol.Designs, seed)
		if err != nil {
			return nil, fmt.Errorf("explain: audit trial %d (unconstrained): %w", trial, err)
		}
		audit.Unconstrained.Trials = append(audit.Unconstrained.Trials, ut)
	}
	summarize(&audit.Constrained)
	summarize(&audit.Unconstrained)
	return audit, nil
}

// replayTrial costs the fixed design sequence on the perturbed problem
// and re-solves the perturbation at change bound k for the oracle
// baseline.
func replayTrial(ctx context.Context, perturbed *core.Problem, k int, designs []core.Config, seed int64) (Trial, error) {
	pp := *perturbed
	pp.K = k
	oracle, err := core.Solve(ctx, &pp, core.StrategyKAware)
	if err != nil {
		return Trial{}, err
	}
	fixed := pp.SequenceCost(designs)
	regret := fixed - oracle.Cost
	// The oracle is optimal over the same candidate set, so true regret
	// is non-negative; clamp the float residue of cost recomputation so
	// reports do not show -0.0000001 regret.
	if regret < 0 && regret > -1e-6*(1+math.Abs(fixed)) {
		regret = 0
	}
	return Trial{Seed: seed, FixedCost: fixed, OracleCost: oracle.Cost, Regret: regret}, nil
}

// summarize fills the side's mean and max regret from its trials.
func summarize(s *AuditSide) {
	if len(s.Trials) == 0 {
		return
	}
	max := math.Inf(-1)
	sum := 0.0
	for _, t := range s.Trials {
		sum += t.Regret
		if t.Regret > max {
			max = t.Regret
		}
	}
	s.MeanRegret = sum / float64(len(s.Trials))
	s.MaxRegret = max
}
