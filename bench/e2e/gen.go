package main

import (
	"fmt"
	"math/rand"

	"dyndesign/internal/workload"
)

// The four workloads. The names are final: later issues refer to them.
const (
	wlStreamDurable = "stream_durable"
	wlStreamMemDML  = "stream_mem_dml"
	wlSolveLattice  = "solve_lattice"
	wlReplayEngine  = "replay_engine"
)

var workloadNames = []string{wlStreamDurable, wlStreamMemDML, wlSolveLattice, wlReplayEngine}

// stmt is one generated trace statement: the SQL text the program under
// test sees, its mix label, and the parse the harness keeps for its own
// reference computations.
type stmt struct {
	Label string
	S     workload.Statement
}

// paperBlock is the block size of the paper's 15 000-statement traces.
const paperBlock = 500

// streamSource generates the stream_* traces on demand: the paper's W1,
// W2, W3 (block 500, labelled) one after the other with seeds seed,
// seed+1, …, without end, so a run never wraps around to statements the
// service's memo has already seen. With dml set, every run of 20
// statements is 16 mix SELECTs, then 3 single-row INSERTs and 1 point
// UPDATE under the label of the SELECT before them.
type streamSource struct {
	rows   int64
	seed   int64
	dml    bool
	cycle  int64 // workloads generated so far
	rng    *rand.Rand
	buf    []stmt
	reads  int // SELECTs emitted since the last DML group
	domain int64
}

func newStreamSource(rows, seed int64, dml bool) *streamSource {
	return &streamSource{
		rows: rows, seed: seed, dml: dml,
		rng:    rand.New(rand.NewSource(seed ^ 0x5eed)),
		domain: workload.DomainForRows(rows),
	}
}

// next returns the next n statements of the trace.
func (g *streamSource) next(n int) ([]stmt, error) {
	for len(g.buf) < n || g.cycle == 0 {
		if err := g.refill(); err != nil {
			return nil, err
		}
	}
	out := g.buf[:n:n]
	g.buf = g.buf[n:]
	return out, nil
}

func (g *streamSource) refill() error {
	name := [...]string{"W1", "W2", "W3"}[g.cycle%3]
	w, err := workload.PaperWorkload(name, g.rows, paperBlock, g.seed+g.cycle)
	if err != nil {
		return err
	}
	g.cycle++
	for i, s := range w.Statements {
		g.buf = append(g.buf, stmt{Label: w.Labels[i], S: s})
		if !g.dml {
			continue
		}
		if g.reads++; g.reads == 16 {
			g.reads = 0
			ins, err := workload.GenerateInserts(workload.PaperTable, 4, g.domain, g.rng, 3)
			if err != nil {
				return err
			}
			upd, err := workload.GenerateUpdates(workload.PaperTable, "b", "a", g.domain, g.rng, 1)
			if err != nil {
				return err
			}
			for _, d := range append(ins, upd...) {
				g.buf = append(g.buf, stmt{Label: w.Labels[i], S: d})
			}
		}
	}
	return nil
}

// latticeSegment is the number of statements per optimisation stage of
// solve_lattice.
const latticeSegment = 50

// latticeTrace is the solve_lattice trace: W1 then W2 at block 500 with
// an INSERT burst labelled LOAD after every so many reads (3 000 rows
// after every 5 000 at the default sizes), which makes drop–load–rebuild
// pay and the change bound bind. 48 000 statements by default: enough
// for the 18 000-statement window to slide 600 segments.
func latticeTrace(rows, seed int64, sz sizes) ([]stmt, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x10ad))
	domain := workload.DomainForRows(rows)
	var out []stmt
	reads := 0
	for i, name := range []string{"W1", "W2"} {
		w, err := workload.PaperWorkload(name, rows, paperBlock, seed+int64(i))
		if err != nil {
			return nil, err
		}
		for j, s := range w.Statements {
			out = append(out, stmt{Label: w.Labels[j], S: s})
			if reads++; reads%sz.latticeReadsPerLoad == 0 {
				ins, err := workload.GenerateInserts(workload.PaperTable, 4, domain, rng, sz.latticeLoadRows)
				if err != nil {
					return nil, err
				}
				for _, d := range ins {
					out = append(out, stmt{Label: "LOAD", S: d})
				}
			}
		}
	}
	return out, nil
}

// replayTrace is one replay_engine round: W1 at the given block size
// (30 blocks of SELECTs), then 20 blocks of INSERTs, 5 of point UPDATEs
// and 5 of mix-A reads — the issue's 3000/2000/500/500 shape at block
// 100, scaled down so two engine replays fit a run.
func replayTrace(rows, seed int64, block int) ([]stmt, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x4e91a7))
	domain := workload.DomainForRows(rows)
	w, err := workload.PaperWorkload("W1", rows, block, seed)
	if err != nil {
		return nil, err
	}
	out := make([]stmt, 0, 60*block)
	for i, s := range w.Statements {
		out = append(out, stmt{Label: w.Labels[i], S: s})
	}
	ins, err := workload.GenerateInserts(workload.PaperTable, 4, domain, rng, 20*block)
	if err != nil {
		return nil, err
	}
	upd, err := workload.GenerateUpdates(workload.PaperTable, "b", "a", domain, rng, 5*block)
	if err != nil {
		return nil, err
	}
	mixA, ok := workload.PaperMixes(rows)["A"]
	if !ok {
		return nil, fmt.Errorf("paper mix A missing")
	}
	reads, err := mixA.Generate(rng, 5*block)
	if err != nil {
		return nil, err
	}
	for _, part := range []struct {
		label string
		stmts []workload.Statement
	}{{"LOAD", ins}, {"UPD", upd}, {"A", reads}} {
		for _, s := range part.stmts {
			out = append(out, stmt{Label: part.label, S: s})
		}
	}
	return out, nil
}

// toWorkload packs trace statements into the library's Workload form.
func toWorkload(name string, stmts []stmt) *workload.Workload {
	w := &workload.Workload{Name: name}
	for _, s := range stmts {
		w.Append(s.Label, s.S)
	}
	return w
}
