// Package experiments reproduces the paper's evaluation (§6): the
// Table 1 query mixes, the Table 2 workloads and recommended designs,
// the Figure 3 execution-time comparison, and the Figure 4 optimizer
// runtime comparison. Each experiment returns a structured result and
// can render itself as text in the paper's format; cmd/paperexp and the
// root bench harness drive them.
package experiments

import (
	"time"

	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"dyndesign/internal/advisor"
	"dyndesign/internal/candidates"
	"dyndesign/internal/core"
	"dyndesign/internal/engine"
	"dyndesign/internal/obs"
	"dyndesign/internal/workload"
)

// Scale fixes the size of an experiment run. The paper used Rows =
// 2 500 000 and BlockSize = 500 (15 000 queries); scaled-down runs keep
// the same structure with proportionally smaller tables and blocks.
type Scale struct {
	// Rows is the cardinality of the experiment table.
	Rows int64
	// BlockSize is the number of queries per Table 2 block (30 blocks
	// total).
	BlockSize int
	// Seed drives all generators.
	Seed int64
}

// PaperScale is the scale of the original experiments.
var PaperScale = Scale{Rows: workload.PaperRows, BlockSize: 500, Seed: 1}

// DefaultScale is a laptop-friendly scale that preserves every regime
// the experiments depend on (seek ≪ index-only scan < heap scan, and
// transition costs far below per-block savings).
var DefaultScale = Scale{Rows: 100000, BlockSize: 200, Seed: 1}

// TestScale is small enough for unit tests while still exhibiting the
// regimes. The block size stays large enough that random mix
// fluctuations within a block cannot overturn the block's best design
// (the deciding margins shrink as 1/√blockSize).
var TestScale = Scale{Rows: 50000, BlockSize: 100, Seed: 1}

// SetupPaperDatabase builds the experiment database: the paper's single
// table t(a,b,c,d) with Rows uniform rows over [0, Rows/5), loaded and
// analyzed. Statistics are built so the advisor can run.
func SetupPaperDatabase(s Scale) (*engine.Database, error) {
	db := engine.New()
	if _, err := db.Exec("CREATE TABLE t (a INT, b INT, c INT, d INT)"); err != nil {
		return nil, err
	}
	domain := workload.DomainForRows(s.Rows)
	rng := rand.New(rand.NewSource(s.Seed))
	const batch = 500
	var sb strings.Builder
	for loaded := int64(0); loaded < s.Rows; {
		sb.Reset()
		sb.WriteString("INSERT INTO t VALUES ")
		n := int64(batch)
		if s.Rows-loaded < n {
			n = s.Rows - loaded
		}
		for i := int64(0); i < n; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, %d, %d)",
				rng.Int63n(domain), rng.Int63n(domain), rng.Int63n(domain), rng.Int63n(domain))
		}
		if _, err := db.Exec(sb.String()); err != nil {
			return nil, err
		}
		loaded += n
	}
	if err := db.Analyze("t"); err != nil {
		return nil, err
	}
	return db, nil
}

// LoadDatabase loads the database a command line is to tune, from its
// -setup / -paper-rows flags: either a SQL setup script, after which
// table is analyzed, or the paper's synthetic table (announced on
// progress, since building it takes a while).
func LoadDatabase(setup string, paperRows int64, table string, progress io.Writer) (*engine.Database, error) {
	switch {
	case paperRows > 0 && setup != "":
		return nil, fmt.Errorf("use either -setup or -paper-rows, not both")
	case paperRows > 0:
		fmt.Fprintf(progress, "building paper table with %d rows...\n", paperRows)
		return SetupPaperDatabase(Scale{Rows: paperRows, BlockSize: 1, Seed: 1})
	case setup != "":
		db := engine.New()
		f, err := os.Open(setup)
		if err != nil {
			return nil, err
		}
		err = db.ExecScript(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		if err := db.Analyze(table); err != nil {
			return nil, err
		}
		return db, nil
	default:
		return nil, fmt.Errorf("one of -setup or -paper-rows is required")
	}
}

// PaperSpace is the paper's design space: six candidate indexes and the
// seven configurations holding at most one of them.
func PaperSpace() advisor.DesignSpace {
	structures := candidates.PaperStructures(workload.PaperTable)
	return advisor.DesignSpace{
		Table:      workload.PaperTable,
		Structures: structures,
		Configs:    advisor.SingleIndexConfigs(len(structures)),
	}
}

// newPaperAdvisor builds an advisor over the paper's design space.
func newPaperAdvisor(db *engine.Database) (*advisor.Advisor, error) {
	return advisor.New(db, PaperSpace())
}

// emptyFinal returns the paper's fixed-empty destination configuration.
func emptyFinal() *core.Config {
	f := core.Config(0)
	return &f
}

// Robustness is the solver robustness configuration applied to every
// advisor run the harness makes (via PaperOptions). The paperexp CLI
// sets it from -timeout, -max-whatif, and -fallback; the zero value
// means plain, unsupervised solves.
type Robustness struct {
	Timeout        time.Duration
	MaxWhatIfCalls int64
	Fallback       bool
	// Tracer, when non-nil, is threaded into every advisor solve the
	// harness makes and wrapped around each experiment
	// ("experiment.<name>" spans); see DESIGN.md §9.
	Tracer *obs.Tracer
}

// robustness is the harness-wide robustness setting; see SetRobustness.
var robustness Robustness

// SetRobustness installs the robustness configuration for subsequent
// experiment runs. It is not safe to call concurrently with a running
// experiment; set it once at startup.
func SetRobustness(r Robustness) { robustness = r }

// PaperOptions returns the advisor options of the paper's experiments:
// initial and final configuration empty, FreeEndpoints counting, and the
// given change bound, plus the harness-wide robustness settings.
func PaperOptions(k int) advisor.Options {
	return advisor.Options{
		K:              k,
		Policy:         core.FreeEndpoints,
		Final:          emptyFinal(),
		Timeout:        robustness.Timeout,
		MaxWhatIfCalls: robustness.MaxWhatIfCalls,
		Fallback:       robustness.Fallback,
		Tracer:         robustness.Tracer,
	}
}

// experimentSpan starts an "experiment.<name>" span on the harness
// tracer; the returned end function takes success.
func experimentSpan(name string) func(ok bool) {
	sp := robustness.Tracer.Start("experiment." + name)
	return func(ok bool) { sp.End(obs.Bool("ok", ok)) }
}
