package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"dyndesign/internal/obs"
)

// span is one recorded interval: a call into a layer, or a harness
// phase grouping such calls. Times are nanoseconds since the recorder's
// origin; Parent is the index of the span that caused it (-1 for a
// root); Op groups the spans of one operation (one statement, one
// solve).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	// External marks spans emitted by the program's own tracer
	// (obs.Tracer) rather than by the harness; they are attached to the
	// harness span that was open when they ended and take no part in
	// self-time accounting, which the harness spans already cover.
	External bool `json:"external,omitempty"`
}

// recorder is the harness's span recorder: spans are kept in memory and
// written out at exit. The nil recorder is the disabled one — every
// method is a nil check — so the same pipeline code runs traced and
// untraced. begin/next/end are called from the harness goroutine only;
// Emit (the obs.Sink side) may be called from solver workers.
type recorder struct {
	origin time.Time
	mu     sync.Mutex // guards spans against concurrent Emit
	spans  []span
	stack  []int
	op     int
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now()}
}

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

// nextOp starts a new operation id for the spans that follow.
func (r *recorder) nextOp() {
	if r != nil {
		r.op++
	}
}

// begin opens a span as a child of the innermost open one.
func (r *recorder) begin(name string) {
	if r == nil {
		return
	}
	r.push(name, r.now())
}

func (r *recorder) push(name string, at int64) {
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: at, Parent: parent, Op: r.op})
	r.stack = append(r.stack, len(r.spans)-1)
	r.mu.Unlock()
}

// end closes the innermost open span.
func (r *recorder) end() {
	if r == nil {
		return
	}
	r.pop(r.now())
}

func (r *recorder) pop(at int64) {
	n := len(r.stack)
	r.mu.Lock()
	r.spans[r.stack[n-1]].End = at
	r.mu.Unlock()
	r.stack = r.stack[:n-1]
}

// next closes the innermost open span and opens a sibling at the same
// instant: consecutive layer calls share one clock reading, so no time
// falls between them and the clock read is charged inside a span.
func (r *recorder) next(name string) {
	if r == nil {
		return
	}
	at := r.now()
	r.pop(at)
	r.push(name, at)
}

// Emit implements obs.Sink: spans from the program's own tracer are
// kept, marked external, under the harness span open when they ended.
func (r *recorder) Emit(rec obs.SpanRecord) {
	start := int64(rec.Start.Sub(r.origin))
	r.mu.Lock()
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{
		Name: rec.Name, Start: start, End: start + int64(rec.Dur),
		Parent: parent, Op: r.op, External: true,
	})
	r.mu.Unlock()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its (non-external) children cover. Children may
// nest, abut or overlap; overlapping children are counted once, and a
// child reaching outside its parent is clipped to it.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.External {
			continue
		}
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.External {
			continue
		}
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerTotal is one span name's self time: the sum, the count and the
// median over its spans.
type layerTotal struct {
	SelfNS   int64
	Count    int64
	MedianNS float64
}

// layerTotals groups the harness spans' self times by name.
func layerTotals(spans []span) map[string]layerTotal {
	self := selfTimes(spans)
	byName := make(map[string][]float64)
	for i, s := range spans {
		if !s.External {
			byName[s.Name] = append(byName[s.Name], float64(self[i]))
		}
	}
	out := make(map[string]layerTotal, len(byName))
	for name, xs := range byName {
		t := layerTotal{Count: int64(len(xs)), MedianNS: median(xs)}
		for _, x := range xs {
			t.SelfNS += int64(x)
		}
		out[name] = t
	}
	return out
}

// coverage is the share of the recorded wall time that calls into
// layers account for. A span with children is a harness grouping — a
// pipeline, one operation — and its self time is time no layer call
// covers; a span without children is a layer call. Wall time is the
// total duration of the root spans.
func coverage(spans []span) float64 {
	self := selfTimes(spans)
	parent := make([]bool, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && !s.External {
			parent[s.Parent] = true
		}
	}
	var wall, uncovered int64
	for i, s := range spans {
		if s.External {
			continue
		}
		if s.Parent == -1 {
			wall += s.End - s.Start
		}
		if parent[i] {
			uncovered += self[i]
		}
	}
	if wall == 0 {
		return 0
	}
	return 1 - float64(uncovered)/float64(wall)
}

// writeSpans writes one JSON object per span to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
