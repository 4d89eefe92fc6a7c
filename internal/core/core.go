// Package core implements the paper's contribution: the constrained
// dynamic physical design problem (Definition 1) and its solvers —
//
//   - the unconstrained sequence-graph optimum of Agrawal, Chu and
//     Narasayya (§3),
//   - the optimal k-aware sequence graph (§3),
//   - the GREEDY-SEQ candidate-reduction heuristic (§4.1),
//   - sequential design merging (§4.2), and
//   - shortest-path ranking (§5).
//
// The exact production path (Solve's kaware strategy) is the first two
// composed: one unconstrained pass, and the k-aware layers only when
// its optimum makes more than K changes.
//
// The package is deliberately independent of the SQL engine: solvers see
// only an abstract CostModel, so they can be exercised against synthetic
// cost models and verified against brute force. The advisor package
// binds them to the engine's what-if cost model.
package core

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"dyndesign/internal/obs"
)

// Config is a physical design configuration: a bitset over the candidate
// structure indices of the problem's design space. The empty Config is
// the empty design.
type Config uint64

// MaxStructures is the largest number of candidate structures a Config
// can represent.
const MaxStructures = 64

// ConfigOf builds a Config holding exactly the given structure indices.
func ConfigOf(structures ...int) Config {
	var c Config
	for _, s := range structures {
		c |= 1 << uint(s)
	}
	return c
}

// Has reports whether the configuration contains structure s.
func (c Config) Has(s int) bool { return c&(1<<uint(s)) != 0 }

// With returns the configuration plus structure s.
func (c Config) With(s int) Config { return c | 1<<uint(s) }

// Without returns the configuration minus structure s.
func (c Config) Without(s int) Config { return c &^ (1 << uint(s)) }

// Count returns the number of structures in the configuration.
func (c Config) Count() int { return bits.OnesCount64(uint64(c)) }

// Structures returns the structure indices in ascending order.
func (c Config) Structures() []int {
	out := make([]int, 0, c.Count())
	for c != 0 {
		s := bits.TrailingZeros64(uint64(c))
		out = append(out, s)
		c &= c - 1
	}
	return out
}

// Diff returns the structures added and removed going from c to next.
func (c Config) Diff(next Config) (added, removed []int) {
	return Config(next &^ c).Structures(), Config(c &^ next).Structures()
}

// Format renders the configuration using the given structure names, e.g.
// "{I(a), I(c,d)}"; the empty configuration renders as "{}".
func (c Config) Format(names []string) string {
	parts := make([]string, 0, c.Count())
	for _, s := range c.Structures() {
		if s < len(names) {
			parts = append(parts, names[s])
		} else {
			parts = append(parts, fmt.Sprintf("#%d", s))
		}
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// CostModel supplies the three cost terms of the design problem. Models
// must be deterministic: solvers may evaluate the same term repeatedly
// and cache freely. Models must also be safe for concurrent use: the
// solvers evaluate cost tables from multiple goroutines (see
// Problem.Parallelism), and one Problem may be solved by several
// strategies at once.
type CostModel interface {
	// Exec returns EXEC(S_stage, c): the cost of executing stage's
	// statement(s) under configuration c.
	Exec(stage int, c Config) float64
	// Trans returns TRANS(from, to): the cost of changing the physical
	// design from one configuration to another. Trans(c, c) must be 0.
	Trans(from, to Config) float64
	// Size returns SIZE(c) for the space-bound constraint.
	Size(c Config) float64
}

// BatchCostModel is a CostModel that can cost a whole configuration
// frontier in one call. The matrix build and the greedy per-stage scans
// prefer it when available: a batched model amortizes its per-stage
// setup (plan-table compilation, memo key derivation) across every
// configuration instead of repeating it per cell.
type BatchCostModel interface {
	CostModel
	// BatchExec evaluates EXEC(stage, c) for every configuration in
	// configs and returns the values in list order. Results must be
	// bit-for-bit identical to per-call Exec — solvers cache, replay,
	// and memoize batched and scalar values interchangeably.
	//
	// out is optional scratch: a model may fill and return it when it
	// has sufficient capacity, allocate otherwise, or return storage it
	// owns (a retained row). The result is therefore read-only to the
	// caller and must stay unchanged for as long as the caller holds it;
	// the matrix build passes nil and keeps the result as the stage's
	// row, so a model must not return one buffer for two calls.
	BatchExec(stage int, configs []Config, out []float64) []float64
}

// StoredRowModel is a BatchCostModel that keeps whole EXEC rows and can
// hand the kept ones over at once: the matrix build takes every stored
// row in one call and sends only the other stages to its workers, so a
// table whose rows are nearly all kept costs one pass, not one
// BatchExec hand-off per stage.
type StoredRowModel interface {
	BatchCostModel
	// StoredRows sets rows[i], for every stage i whose row over configs
	// the model keeps, to the slice BatchExec(i, configs, nil) would
	// return for it, and returns the other stages in ascending order. It
	// leaves their entries of rows unset and counts whatever BatchExec
	// would have counted for the rows it hands over.
	StoredRows(configs []Config, rows [][]float64) (missing []int)
}

// capability finds an optional CostModel capability (AdditiveTransModel,
// InteractionModel) on m or on a model it decorates: a
// wrapper that only intercepts evaluations exposes its inner model
// through Unwrap() CostModel and inherits the inner model's
// capabilities, instead of re-declaring each one as a forwarding
// method that the next capability would silently miss.
func capability[T any](m CostModel) (T, bool) {
	for m != nil {
		if t, ok := m.(T); ok {
			return t, true
		}
		w, ok := m.(interface{ Unwrap() CostModel })
		if !ok {
			break
		}
		m = w.Unwrap()
	}
	var none T
	return none, false
}

// ChangePolicy selects how design changes are counted against k; see
// DESIGN.md §3 for why two policies exist.
type ChangePolicy int

const (
	// FreeEndpoints counts only interior changes (C_{i-1} != C_i for
	// i in [2..n]): installing the first design and tearing down to the
	// destination are charged TRANS cost but do not consume k. This is
	// the policy under which the paper's Table 2 designs have k = 2
	// changes, and the default.
	FreeEndpoints ChangePolicy = iota
	// CountAll is strict Definition 1: every i in [1..n] with
	// C_{i-1} != C_i counts, including the initial installation.
	CountAll
)

// String names the policy.
func (p ChangePolicy) String() string {
	switch p {
	case FreeEndpoints:
		return "FreeEndpoints"
	case CountAll:
		return "CountAll"
	default:
		return fmt.Sprintf("ChangePolicy(%d)", int(p))
	}
}

// Unconstrained is the K value meaning "no change constraint".
const Unconstrained = -1

// Problem is one instance of the constrained dynamic physical design
// problem.
type Problem struct {
	// Stages is n, the number of workload stages (statements or
	// segments).
	Stages int
	// Configs is the candidate configuration list the design may use.
	// It must contain Final when that endpoint is constrained. It need
	// NOT contain Initial: the initial configuration only has to be a
	// valid TRANS source, which the model guarantees — a design that
	// never revisits C0 is perfectly well-formed (though under CountAll
	// with K = 0 such a problem is infeasible, which the solvers
	// report). Solvers never invent configurations outside this list.
	Configs []Config
	// Initial is C0, the design in place before the first stage.
	Initial Config
	// Final optionally constrains the design after the last stage; the
	// transition to it is charged but never counted against K.
	Final *Config
	// SpaceBound is b; configurations with Size > SpaceBound are
	// excluded. Zero or negative means unbounded.
	SpaceBound float64
	// K is the change bound; Unconstrained (-1) disables it.
	K int
	// Policy selects the change-counting rule.
	Policy ChangePolicy
	// Model supplies EXEC, TRANS, and SIZE. It must be safe for
	// concurrent use (see CostModel).
	Model CostModel
	// Parallelism bounds the worker count used for cost-table
	// evaluation and the other data-parallel solver phases. 0 (the
	// default) means one worker per available CPU; 1 forces the serial
	// path. The parallel and serial paths produce bit-identical
	// results.
	Parallelism int
	// kernel forces a min-plus transition kernel on the exact graph
	// solvers; tests set it to compare the kernels. The kernelAuto
	// default picks per solve; see transKernel.
	kernel transKernel
	// Cache, when non-nil, memoizes the dense cost tables across solves
	// sharing this model (see SolveCache). Copies of the Problem share
	// the pointer, the same way Metrics is shared; the nil default
	// rebuilds tables per solve.
	Cache *SolveCache
	// Metrics, when non-nil, accumulates solver instrumentation.
	// Copies of the Problem share the pointer and hence the counters.
	Metrics *Metrics
	// Tracer, when non-nil, receives per-stage spans from every solver
	// phase (matrix builds, DP sweeps, ranking expansion batches, merge
	// iterations, resilient rungs; see DESIGN.md §9). The nil default is
	// the disabled tracer and adds zero overhead to the hot paths.
	Tracer *obs.Tracer
}

// Solution is a dynamic physical design: one configuration per stage.
type Solution struct {
	// Designs has one configuration per stage.
	Designs []Config
	// Cost is the sequence execution cost, including the transition from
	// the initial configuration and to the final one when constrained.
	// It is exactly ExecCost + TransCost.
	Cost float64
	// ExecCost is the EXEC share of Cost: the per-stage statement
	// execution costs summed over the sequence.
	ExecCost float64
	// TransCost is the TRANS share of Cost: every design transition
	// charged to the sequence, endpoint transitions included.
	TransCost float64
	// Changes is the number of design changes under the problem's
	// policy.
	Changes int
	// Gap is the optimality-gap bound reported by an anytime solver
	// (SolvePartitioned): Cost is guaranteed within Gap of the
	// constrained optimum, trusting the model's declared decompositions.
	// Exact solvers leave it 0 by construction; heuristic solvers make
	// no claim and also leave it 0.
	Gap float64
}

// Run is a maximal run of consecutive stages sharing one configuration.
type Run struct {
	Config Config
	// Start is the first stage of the run; Length its stage count.
	Start, Length int
}

// Runs compresses the design sequence into maximal constant runs — the
// natural unit for rendering a design timeline and for the merging
// heuristic's view of the solution.
func (s *Solution) Runs() []Run {
	var out []Run
	for i, c := range s.Designs {
		if len(out) > 0 && out[len(out)-1].Config == c {
			out[len(out)-1].Length++
			continue
		}
		out = append(out, Run{Config: c, Start: i, Length: 1})
	}
	return out
}

// Validate checks problem well-formedness.
func (p *Problem) Validate() error {
	if p.Stages <= 0 {
		return fmt.Errorf("core: problem has %d stages", p.Stages)
	}
	if p.Model == nil {
		return fmt.Errorf("core: problem has no cost model")
	}
	if len(p.Configs) == 0 {
		return fmt.Errorf("core: problem has no candidate configurations")
	}
	// Note that Initial deliberately does not have to appear in
	// Configs: it only has to be a valid TRANS source, which the model
	// guarantees (see the Configs field documentation). The list's index
	// comes from the attached cache when it indexed an equal list before.
	idx, err := p.Cache.index(p.Configs)
	if err != nil {
		return err
	}
	if p.Final != nil {
		if _, ok := idx.lookup(*p.Final); !ok {
			return fmt.Errorf("core: final configuration not in candidate list")
		}
	}
	if p.K < Unconstrained {
		return fmt.Errorf("core: invalid change bound %d", p.K)
	}
	return nil
}

// usableConfigs filters the candidate list by the space bound.
func (p *Problem) usableConfigs() ([]Config, error) {
	if p.SpaceBound <= 0 {
		return p.Configs, nil
	}
	out := make([]Config, 0, len(p.Configs))
	for _, c := range p.Configs {
		if p.Model.Size(c) <= p.SpaceBound {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: no candidate configuration fits the space bound %.1f", p.SpaceBound)
	}
	return out, nil
}

// maxChanges is the most changes any design sequence of the problem can
// count: one per stage boundary, plus the installation under CountAll.
func (p *Problem) maxChanges() int {
	if p.Policy == CountAll {
		return p.Stages
	}
	return p.Stages - 1
}

// CountChanges counts the design changes of a sequence under a policy.
func CountChanges(initial Config, designs []Config, policy ChangePolicy) int {
	if len(designs) == 0 {
		return 0
	}
	changes := 0
	if policy == CountAll && designs[0] != initial {
		changes++
	}
	for i := 1; i < len(designs); i++ {
		if designs[i] != designs[i-1] {
			changes++
		}
	}
	return changes
}

// SequenceCost computes the sequence execution cost of a design
// sequence: sum of per-stage EXEC plus every TRANS, including from the
// initial configuration and to the final one when the problem constrains
// it.
func (p *Problem) SequenceCost(designs []Config) float64 {
	exec, trans := p.SequenceCostSplit(designs)
	return exec + trans
}

// SequenceCostSplit computes the sequence execution cost broken into its
// EXEC and TRANS components. The two sums are accumulated separately so
// exec + trans is, bit for bit, the Cost a Solution reports — the
// invariant the explain layer's attribution depends on.
func (p *Problem) SequenceCostSplit(designs []Config) (exec, trans float64) {
	// Replays over a cached table set skip the per-term model calls —
	// the hot loop of CheckSolution and the explain/audit replays. The
	// cached cells are verbatim model outputs accumulated in the same
	// order, so the fast path is bit-identical to the model path.
	if m := p.Cache.peek(p); m != nil {
		return m.sequenceCostSplit(p, designs)
	}
	prev := p.Initial
	for i, c := range designs {
		trans += p.Model.Trans(prev, c)
		exec += p.Model.Exec(i, c)
		prev = c
	}
	if p.Final != nil {
		trans += p.Model.Trans(prev, *p.Final)
	}
	return exec, trans
}

// ExecColumn sets out[k] to EXEC(start+k, c) for every k < len(out):
// through the problem's cached cost tables, as SequenceCostSplit
// replays, so each cell is the verbatim model output and the column is
// bit for bit what Model.Exec would give, without a model call per cell.
// Cells the tables do not hold come from the model.
func (p *Problem) ExecColumn(start int, c Config, out []float64) {
	if m := p.Cache.peek(p); m != nil {
		for k := range out {
			out[k] = m.execTerm(p, start+k, c)
		}
		return
	}
	for k := range out {
		out[k] = p.Model.Exec(start+k, c)
	}
}

// sequenceCostSplit is SequenceCostSplit over cached tables. Every term
// present in the tables is the verbatim model output, and zero-cost
// identity hops are skipped rather than accumulated (x + 0 == x for the
// non-negative sums involved), so the result is bit for bit the model
// path's. Terms the tables do not cover — a stage beyond the cached
// range, an endpoint outside the candidate list, a TRANS hop when the
// hypercube kernel skipped the all-pairs table, or a non-finite cell of
// a set kept unscanned — fall back to the model per term.
func (m *matrices) sequenceCostSplit(p *Problem, designs []Config) (exec, trans float64) {
	prev := p.Initial
	for i, c := range designs {
		if c != prev {
			trans += m.transTerm(p, prev, c)
		}
		exec += m.execTerm(p, i, c)
		prev = c
	}
	if p.Final != nil && prev != *p.Final {
		trans += m.transTerm(p, prev, *p.Final)
	}
	return exec, trans
}

func (m *matrices) execTerm(p *Problem, stage int, c Config) float64 {
	if stage < len(m.exec) {
		if j, ok := m.idx.lookup(c); ok {
			if v := m.exec[stage][j]; finiteCell(v) {
				return v
			}
		}
	}
	return p.Model.Exec(stage, c)
}

func (m *matrices) transTerm(p *Problem, from, to Config) float64 {
	if m.trans != nil {
		if f, ok := m.idx.lookup(from); ok {
			if t, ok := m.idx.lookup(to); ok {
				if v := m.trans[f][t]; finiteCell(v) {
					return v
				}
			}
		}
	}
	return p.Model.Trans(from, to)
}

// NewSolution packages a design sequence with its cost and change count.
func (p *Problem) NewSolution(designs []Config) *Solution {
	exec, trans := p.SequenceCostSplit(designs)
	return &Solution{
		Designs:   designs,
		Cost:      exec + trans,
		ExecCost:  exec,
		TransCost: trans,
		Changes:   CountChanges(p.Initial, designs, p.Policy),
	}
}

// CheckSolution verifies that a solution is feasible for the problem:
// right length, only candidate configurations within the space bound,
// and within the change bound.
func (p *Problem) CheckSolution(s *Solution) error {
	if len(s.Designs) != p.Stages {
		return fmt.Errorf("core: solution has %d designs for %d stages", len(s.Designs), p.Stages)
	}
	usable, err := p.usableConfigs()
	if err != nil {
		return err
	}
	idx, err := p.Cache.index(usable)
	if err != nil {
		return err
	}
	for i, c := range s.Designs {
		if _, ok := idx.lookup(c); !ok {
			return fmt.Errorf("core: stage %d uses configuration outside the usable candidate set", i)
		}
	}
	if got := CountChanges(p.Initial, s.Designs, p.Policy); got != s.Changes {
		return fmt.Errorf("core: solution claims %d changes, has %d", s.Changes, got)
	}
	if p.K != Unconstrained && s.Changes > p.K {
		return fmt.Errorf("core: solution has %d changes, bound is %d", s.Changes, p.K)
	}
	want := p.SequenceCost(s.Designs)
	if math.Abs(want-s.Cost) > 1e-6*(1+math.Abs(want)) {
		return fmt.Errorf("core: solution claims cost %f, recomputed %f", s.Cost, want)
	}
	return nil
}

// EnumerateConfigs builds every subset of numStructures structures whose
// size (per sizeOf) is within bound (<= 0 disables the bound). It guards
// against exponential blowup: numStructures must be at most 20.
func EnumerateConfigs(numStructures int, sizeOf func(Config) float64, bound float64) ([]Config, error) {
	if numStructures < 0 || numStructures > 20 {
		return nil, fmt.Errorf("core: cannot enumerate 2^%d configurations (max 20 structures)", numStructures)
	}
	total := 1 << uint(numStructures)
	out := make([]Config, 0, total)
	for raw := 0; raw < total; raw++ {
		c := Config(raw)
		if bound > 0 && sizeOf != nil && sizeOf(c) > bound {
			continue
		}
		out = append(out, c)
	}
	return out, nil
}
