// Package workload represents database workloads the way the paper does:
// as a sequence of SQL statements, optionally annotated with the block
// structure (query-mix phases and shifts) that generated it. It provides
// the paper's Table 1 query mixes, the W1/W2/W3 workload family of
// Table 2, deterministic generators for custom mixes, JSON trace I/O,
// and segment compression for long traces.
package workload

import (
	"fmt"
	"hash/maphash"
	"math/rand"
	"sort"
	"strings"
	"unsafe"

	"dyndesign/internal/sql"
)

// Statement is one workload statement: the SQL text plus its parse.
type Statement struct {
	SQL  string
	Stmt sql.Statement
	// hash is SQL's TextHash, computed once by NewStatement; 0 on a
	// Statement built as a literal.
	hash uint64
}

// textSeed keys TextHash. One seed per process is enough: the hash is
// never printed or persisted.
var textSeed = maphash.MakeSeed()

// NewStatement parses SQL text into a workload statement.
func NewStatement(text string) (Statement, error) {
	stmt, err := sql.Parse(text)
	if err != nil {
		return Statement{}, err
	}
	return Statement{SQL: text, Stmt: stmt, hash: maphash.String(textSeed, text)}, nil
}

// TextHash returns a hash of the statement's SQL text, valid within the
// process: equal texts hash equal, whether or not they were parsed. A
// statement from NewStatement returns the hash it computed; one built as
// a literal hashes SQL on every call.
func (s Statement) TextHash() uint64 {
	if s.hash != 0 {
		return s.hash
	}
	return maphash.String(textSeed, s.SQL)
}

// MustStatement is NewStatement that panics on error. It is for tests,
// fixtures, and hard-coded statements only; library code handling
// external traces must use NewStatement and return the error.
func MustStatement(text string) Statement {
	s, err := NewStatement(text)
	if err != nil {
		panic(err)
	}
	return s
}

// Workload is a statement sequence, optionally annotated with the labels
// of the mix blocks that generated it (Labels[i] names the mix of
// statement i; empty when unknown).
type Workload struct {
	Name       string
	Statements []Statement
	Labels     []string
}

// Len returns the number of statements.
func (w *Workload) Len() int { return len(w.Statements) }

// Append adds statements with a common label.
func (w *Workload) Append(label string, stmts ...Statement) {
	w.Statements = append(w.Statements, stmts...)
	for range stmts {
		w.Labels = append(w.Labels, label)
	}
}

// Slice returns statements [lo, hi) as a sub-workload sharing storage.
func (w *Workload) Slice(lo, hi int) *Workload {
	sub := &Workload{Name: fmt.Sprintf("%s[%d:%d]", w.Name, lo, hi), Statements: w.Statements[lo:hi]}
	if len(w.Labels) == len(w.Statements) {
		sub.Labels = w.Labels[lo:hi]
	}
	return sub
}

// BlockLabels summarizes the workload as (label, count) runs — the shape
// of Table 2's workload columns.
func (w *Workload) BlockLabels() []Block {
	var out []Block
	for i, l := range w.Labels {
		if len(out) > 0 && out[len(out)-1].Label == l {
			out[len(out)-1].Count++
			continue
		}
		out = append(out, Block{Label: l, Start: i, Count: 1})
	}
	return out
}

// Block is a run of consecutive statements with one mix label.
type Block struct {
	Label string
	Start int
	Count int
}

// ColumnWeight gives the probability that a generated point query hits a
// column.
type ColumnWeight struct {
	Column string
	Weight float64
}

// Mix is a distribution over single-column point queries, the workload
// unit of the paper's experiments (Table 1): a query of the form
// "SELECT col FROM table WHERE col = v" is generated with the column
// drawn from the weights and v uniform in [0, Domain).
type Mix struct {
	Name    string
	Table   string
	Domain  int64
	Weights []ColumnWeight
}

// Validate checks that the weights are positive and sum to ~1.
func (m Mix) Validate() error {
	if len(m.Weights) == 0 {
		return fmt.Errorf("workload: mix %q has no column weights", m.Name)
	}
	if m.Domain <= 0 {
		return fmt.Errorf("workload: mix %q has non-positive domain", m.Name)
	}
	sum := 0.0
	for _, w := range m.Weights {
		if w.Weight <= 0 {
			return fmt.Errorf("workload: mix %q has non-positive weight for %q", m.Name, w.Column)
		}
		sum += w.Weight
	}
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("workload: mix %q weights sum to %f, want 1", m.Name, sum)
	}
	return nil
}

// Generate produces n point queries drawn from the mix.
func (m Mix) Generate(rng *rand.Rand, n int) ([]Statement, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	out := make([]Statement, n)
	for i := 0; i < n; i++ {
		col := m.pick(rng.Float64())
		v := rng.Int63n(m.Domain)
		text := fmt.Sprintf("SELECT %s FROM %s WHERE %s = %d", col, m.Table, col, v)
		s, err := NewStatement(text)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

func (m Mix) pick(u float64) string {
	acc := 0.0
	for _, w := range m.Weights {
		acc += w.Weight
		if u < acc {
			return w.Column
		}
	}
	return m.Weights[len(m.Weights)-1].Column
}

// --- The paper's experimental setup (Table 1 / Table 2) --------------

// PaperTable is the experiment table name.
const PaperTable = "t"

// PaperDomain is the value domain of the experiment table: values are
// uniform in [0, PaperDomain). The paper used 500000 over 2.5M rows
// (≈5 matches per point query); scaled-down tables shrink it
// proportionally via DomainForRows.
const PaperDomain = 500000

// PaperRows is the paper's table cardinality.
const PaperRows = 2500000

// DomainForRows scales the value domain with the row count, preserving
// the paper's ~5 rows per point-query value.
func DomainForRows(rows int64) int64 {
	d := rows / 5
	if d < 1 {
		return 1
	}
	return d
}

// PaperMixes returns the four query mixes of Table 1 (A, B, C, D) over
// the paper's table, with the value domain scaled for the given row
// count.
func PaperMixes(rows int64) map[string]Mix {
	domain := DomainForRows(rows)
	mix := func(name string, wa, wb, wc, wd float64) Mix {
		return Mix{
			Name:   name,
			Table:  PaperTable,
			Domain: domain,
			Weights: []ColumnWeight{
				{Column: "a", Weight: wa},
				{Column: "b", Weight: wb},
				{Column: "c", Weight: wc},
				{Column: "d", Weight: wd},
			},
		}
	}
	return map[string]Mix{
		"A": mix("A", 0.55, 0.25, 0.10, 0.10),
		"B": mix("B", 0.25, 0.55, 0.10, 0.10),
		"C": mix("C", 0.10, 0.10, 0.55, 0.25),
		"D": mix("D", 0.10, 0.10, 0.25, 0.55),
	}
}

// paperBlockPattern returns the 30-block mix labels of one of the
// paper's workloads (Table 2, blocks of 500 queries).
func paperBlockPattern(name string) ([]string, error) {
	pattern := map[string][3]string{
		// Ten 500-query blocks per phase. W1: minor shifts every 1000
		// queries; W2: every 500; W3: W1 out of phase.
		"W1": {"A A B B A A B B A A", "C C D D C C D D C C", "A A B B A A B B A A"},
		"W2": {"A B A B A B A B A B", "C D C D C D C D C D", "A B A B A B A B A B"},
		"W3": {"B B A A B B A A B B", "D D C C D D C C D D", "B B A A B B A A B B"},
	}
	p, ok := pattern[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown paper workload %q (want W1, W2, or W3)", name)
	}
	var out []string
	for _, phase := range p {
		out = append(out, strings.Fields(phase)...)
	}
	return out, nil
}

// PaperWorkload generates W1, W2, or W3 from Table 2 at the given scale:
// 30 blocks of blockSize queries (the paper used blockSize = 500 for a
// 15000-query workload). The same seed always yields the same workload.
func PaperWorkload(name string, rows int64, blockSize int, seed int64) (*Workload, error) {
	labels, err := paperBlockPattern(name)
	if err != nil {
		return nil, err
	}
	mixes := PaperMixes(rows)
	rng := rand.New(rand.NewSource(seed))
	w := &Workload{Name: name}
	for _, label := range labels {
		stmts, err := mixes[label].Generate(rng, blockSize)
		if err != nil {
			return nil, err
		}
		w.Append(label, stmts...)
	}
	return w, nil
}

// GenerateInserts produces n single-row INSERT statements over an
// all-integer table with uniform values — a bulk-load phase. Insert
// statements make index maintenance costs visible to the advisor, which
// is what lets it discover the classic drop-load-rebuild pattern.
func GenerateInserts(table string, columns int, domain int64, rng *rand.Rand, n int) ([]Statement, error) {
	if columns <= 0 || domain <= 0 {
		return nil, fmt.Errorf("workload: inserts need positive columns and domain")
	}
	out := make([]Statement, n)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.Reset()
		fmt.Fprintf(&sb, "INSERT INTO %s VALUES (", table)
		for c := 0; c < columns; c++ {
			if c > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "%d", rng.Int63n(domain))
		}
		sb.WriteString(")")
		s, err := NewStatement(sb.String())
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// GenerateUpdates produces n single-row point updates
// ("UPDATE table SET setCol = v WHERE whereCol = w") with uniform
// values.
func GenerateUpdates(table, setCol, whereCol string, domain int64, rng *rand.Rand, n int) ([]Statement, error) {
	if domain <= 0 {
		return nil, fmt.Errorf("workload: updates need a positive domain")
	}
	out := make([]Statement, n)
	for i := 0; i < n; i++ {
		text := fmt.Sprintf("UPDATE %s SET %s = %d WHERE %s = %d",
			table, setCol, rng.Int63n(domain), whereCol, rng.Int63n(domain))
		s, err := NewStatement(text)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// --- Phased generation for custom scenarios ---------------------------

// PhaseSpec describes one block of a phased workload.
type PhaseSpec struct {
	Mix   string
	Count int
}

// GeneratePhased builds a workload from a block plan over named mixes.
func GeneratePhased(name string, mixes map[string]Mix, plan []PhaseSpec, seed int64) (*Workload, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &Workload{Name: name}
	for _, p := range plan {
		m, ok := mixes[p.Mix]
		if !ok {
			return nil, fmt.Errorf("workload: plan references unknown mix %q", p.Mix)
		}
		stmts, err := m.Generate(rng, p.Count)
		if err != nil {
			return nil, err
		}
		w.Append(p.Mix, stmts...)
	}
	return w, nil
}

// --- Segments ----------------------------------------------------------

// Segment is a run of consecutive statements treated as one optimization
// stage: the design is constant within a segment, and its EXEC cost is
// the sum over its statements.
type Segment struct {
	Start      int // index of the first statement
	Statements []Statement
	Label      string
}

// Segments splits the workload into fixed-size stages. If the workload
// has labels, boundaries additionally snap to label changes so no
// segment mixes two blocks. It runs on every re-solve of a sliding
// window, so it is one pass: the result is sized for the label-free
// count up front, and the label compare skips the byte compare when the
// two labels share storage, as the labels of one Append do.
func (w *Workload) Segments(size int) []Segment {
	if size <= 0 {
		size = 1
	}
	n := len(w.Statements)
	if n == 0 {
		return nil
	}
	labelled := len(w.Labels) == n
	out := make([]Segment, 0, (n+size-1)/size)
	for i := 0; i < n; {
		end := min(i+size, n)
		label := ""
		if labelled {
			label = w.Labels[i]
			for j := i + 1; j < end; j++ {
				if !sameLabel(w.Labels[j], label) {
					end = j
					break
				}
			}
		}
		out = append(out, Segment{Start: i, Statements: w.Statements[i:end], Label: label})
		i = end
	}
	return out
}

// sameLabel is a == b without the out-of-line byte compare when both
// strings point at the same bytes.
func sameLabel(a, b string) bool {
	return len(a) == len(b) && (unsafe.StringData(a) == unsafe.StringData(b) || a == b)
}

// MixHistogram counts statements per label, sorted by label — useful for
// reports and tests.
func (w *Workload) MixHistogram() []Block {
	counts := make(map[string]int)
	for _, l := range w.Labels {
		counts[l]++
	}
	labels := make([]string, 0, len(counts))
	for l := range counts {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	out := make([]Block, len(labels))
	for i, l := range labels {
		out[i] = Block{Label: l, Count: counts[l]}
	}
	return out
}
