// Package dyndesign is a constrained dynamic physical database design
// toolkit: a reproduction of Voigt, Salem and Lehner, "Constrained
// Dynamic Physical Database Design" (ICDE Workshops 2008).
//
// Classic design advisors recommend one static set of indexes for a
// whole workload; the dynamic, off-line problem (Agrawal, Chu,
// Narasayya, SIGMOD 2006) instead recommends a *sequence* of designs,
// one per statement. When the input trace is only representative of
// future workloads, the unconstrained optimum over-fits it. This package
// solves the change-constrained variant: minimize the sequence execution
// cost
//
//	Σᵢ EXEC(Sᵢ, Cᵢ) + TRANS(Cᵢ₋₁, Cᵢ)
//
// subject to SIZE(Cᵢ) ≤ b and at most k design changes, so the
// recommendation tracks major workload trends but not per-statement
// noise.
//
// The package is self-contained: it ships an embedded relational engine
// (heap storage, B+-tree indexes, a cost-based planner and a what-if
// optimizer interface) that plays the role the paper's commercial DBMS
// played, plus workload generators, the design advisor, and a harness
// that regenerates every table and figure of the paper's evaluation.
//
// # Quick start
//
//	db := dyndesign.NewDatabase()
//	db.MustExec("CREATE TABLE t (a INT, b INT, c INT, d INT)")
//	// ... INSERT data ...
//	db.Analyze("t")
//
//	w, _ := dyndesign.PaperWorkload("W1", 100000, 200, 1)
//	adv, _ := dyndesign.NewAdvisor(db, dyndesign.DesignSpace{
//		Table:      "t",
//		Structures: dyndesign.PaperStructures("t"),
//	})
//	rec, _ := adv.Recommend(w, dyndesign.Options{K: 2})
//	rec.Render(os.Stdout)
//
// See the examples directory for complete programs.
package dyndesign

import (
	"context"
	"io"

	"dyndesign/internal/advisor"
	"dyndesign/internal/candidates"
	"dyndesign/internal/catalog"
	"dyndesign/internal/core"
	"dyndesign/internal/engine"
	"dyndesign/internal/workload"
)

// --- Engine ------------------------------------------------------------

// Database is an embedded relational database whose physical design the
// advisor tunes. Execution charges logical page accesses to its
// AccessStats counter, the toolkit's unit of cost.
type Database = engine.Database

// Result is the outcome of executing one SQL statement.
type Result = engine.Result

// Plan describes the access path chosen for a statement (EXPLAIN).
type Plan = engine.Plan

// NewDatabase creates an empty embedded database.
func NewDatabase() *Database { return engine.New() }

// --- Workloads ----------------------------------------------------------

// Workload is a sequence of SQL statements, optionally labelled with the
// query-mix blocks that generated it.
type Workload = workload.Workload

// Statement is one workload statement (SQL text plus its parse).
type Statement = workload.Statement

// Mix is a distribution over single-column point queries, the paper's
// workload unit.
type Mix = workload.Mix

// ColumnWeight assigns a probability to one column of a Mix.
type ColumnWeight = workload.ColumnWeight

// PhaseSpec is one block of a phased workload plan.
type PhaseSpec = workload.PhaseSpec

// NewStatement parses SQL text into a workload statement.
func NewStatement(text string) (Statement, error) { return workload.NewStatement(text) }

// PaperWorkload generates the paper's W1, W2, or W3 workload (Table 2)
// scaled to the given table size: 30 blocks of blockSize point queries.
func PaperWorkload(name string, rows int64, blockSize int, seed int64) (*Workload, error) {
	return workload.PaperWorkload(name, rows, blockSize, seed)
}

// PaperMixes returns the paper's Table 1 query mixes for a table of the
// given size.
func PaperMixes(rows int64) map[string]Mix { return workload.PaperMixes(rows) }

// GeneratePhased builds a workload from a block plan over named mixes.
func GeneratePhased(name string, mixes map[string]Mix, plan []PhaseSpec, seed int64) (*Workload, error) {
	return workload.GeneratePhased(name, mixes, plan, seed)
}

// ReadWorkloadJSON parses a JSON workload trace.
func ReadWorkloadJSON(r io.Reader) (*Workload, error) { return workload.ReadJSON(r) }

// --- Design space and candidates ----------------------------------------

// IndexDef describes a candidate secondary index.
type IndexDef = catalog.IndexDef

// DesignSpace is the candidate structures and configurations a
// recommendation may use.
type DesignSpace = advisor.DesignSpace

// CandidateOptions configures automatic candidate generation.
type CandidateOptions = candidates.Options

// CandidatesFromWorkload proposes candidate indexes for a table from a
// workload's predicates (single-column, covering, and merged indexes).
func CandidatesFromWorkload(w *Workload, table string, opts CandidateOptions) []IndexDef {
	return candidates.FromWorkload(w, table, opts)
}

// PaperStructures returns the six candidate indexes of the paper's
// experiments.
func PaperStructures(table string) []IndexDef { return candidates.PaperStructures(table) }

// SingleIndexConfigs returns the "at most one index" configuration list
// the paper's experiments use.
func SingleIndexConfigs(numStructures int) []Config {
	return advisor.SingleIndexConfigs(numStructures)
}

// --- The design problem and solvers --------------------------------------

// Config is a physical design configuration: a bitset over the design
// space's candidate structures.
type Config = core.Config

// Problem is one instance of the constrained dynamic physical design
// problem over an abstract cost model.
type Problem = core.Problem

// Solution is a dynamic physical design: one configuration per stage.
type Solution = core.Solution

// CostModel supplies EXEC, TRANS and SIZE to the solvers; implement it
// to use the solvers outside the bundled engine.
type CostModel = core.CostModel

// Metrics is the costing-layer instrumentation ledger; point
// Problem.Metrics at one to collect matrix-build counts and wall time
// across solves (all copies of the Problem feed the same ledger), and
// read them with Snapshot.
type Metrics = core.Metrics

// ChangePolicy selects how design changes are counted against k.
type ChangePolicy = core.ChangePolicy

// Change-counting policies; see DESIGN.md §3.
const (
	FreeEndpoints = core.FreeEndpoints
	CountAll      = core.CountAll
)

// Unconstrained is the K value meaning "no change bound".
const Unconstrained = core.Unconstrained

// Strategy names a constrained-design solution technique.
type Strategy = core.Strategy

// Solution strategies.
const (
	StrategyKAware      = core.StrategyKAware
	StrategyGreedySeq   = core.StrategyGreedySeq
	StrategyMerge       = core.StrategyMerge
	StrategyPartitioned = core.StrategyPartitioned
)

// Strategies lists every available strategy.
func Strategies() []Strategy { return core.Strategies() }

// Solve runs a strategy on a problem directly (advanced use; most
// callers go through an Advisor).
func Solve(p *Problem, s Strategy) (*Solution, error) {
	return core.Solve(context.Background(), p, s)
}

// SolveContext is Solve with cooperative cancellation: the solve
// returns promptly with ctx's error when the context is cancelled or
// its deadline passes.
func SolveContext(ctx context.Context, p *Problem, s Strategy) (*Solution, error) {
	return core.Solve(ctx, p, s)
}

// --- Resilient solving ----------------------------------------------------

// ResilientOptions configures SolveResilient: the strategy ladder,
// per-rung deadline, what-if evaluation budget, and the last-known-good
// design adopted when every rung fails.
type ResilientOptions = core.ResilientOptions

// ResilientResult reports which ladder rung answered and why the rungs
// above it failed.
type ResilientResult = core.ResilientResult

// RungReport describes one attempted ladder rung.
type RungReport = core.RungReport

// FailureClass classifies why a ladder rung failed.
type FailureClass = core.FailureClass

// RungLastKnownGood marks a result answered by adopting the
// last-known-good design after every solver rung failed.
const RungLastKnownGood = core.RungLastKnownGood

// DefaultLadder is the standard degradation ladder for a primary
// strategy: the strategy itself, then cheaper fallbacks.
func DefaultLadder(primary Strategy) []Strategy { return core.DefaultLadder(primary) }

// SolveResilient runs the degradation ladder under per-rung deadlines
// and what-if budgets, recovering panics into typed errors. It returns
// a valid feasible solution or a typed error — never hangs or crashes.
func SolveResilient(ctx context.Context, p *Problem, opts ResilientOptions) (*ResilientResult, error) {
	return core.SolveResilient(ctx, p, opts)
}

// --- Advisor --------------------------------------------------------------

// Advisor recommends dynamic physical designs for one table.
type Advisor = advisor.Advisor

// Options configures a recommendation run.
type Options = advisor.Options

// Recommendation is a recommended design sequence with its metadata.
type Recommendation = advisor.Recommendation

// Step is one design change of a recommendation.
type Step = advisor.Step

// ReplayReport measures a workload executed under a design sequence.
type ReplayReport = advisor.ReplayReport

// NewAdvisor builds an advisor over an analyzed table.
func NewAdvisor(db *Database, space DesignSpace) (*Advisor, error) {
	return advisor.New(db, space)
}

// Replay executes a workload on a live database, applying a design
// sequence at its change points, and reports measured page costs.
func Replay(db *Database, w *Workload, rec *Recommendation, designs []Config) (ReplayReport, error) {
	return advisor.Replay(db, w, rec, designs)
}
