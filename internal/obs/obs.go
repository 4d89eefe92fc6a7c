// Package obs is the solver observability layer: a tracing facade that
// costs nothing when disabled and, when enabled, emits per-stage spans
// (matrix builds, DP layer sweeps, ranking expansion batches, merge
// iterations, resilient ladder rungs, ...) to pluggable sinks — a JSONL
// trace writer, an in-process histogram aggregator, and a Prometheus-
// text/expvar exporter.
//
// The facade is designed around one hard requirement: solver hot paths
// call Start/End unconditionally, so a disabled tracer (the nil
// *Tracer, which is the default on core.Problem) must add zero
// allocations and only a pointer-nil check per span. That property is
// enforced by tests with testing.AllocsPerRun; see DESIGN.md §9 for the
// span taxonomy, the sink contract, and the overhead budget.
package obs

import (
	"math"
	"time"
)

// AttrKind discriminates the typed attribute payload.
type AttrKind uint8

// Attribute kinds.
const (
	KindInt AttrKind = iota
	KindFloat
	KindString
	KindBool
)

// Attr is one typed span attribute. Attrs are plain values — building
// one never allocates — so hot paths can construct them unconditionally
// and let a disabled span drop them for free.
type Attr struct {
	Key  string
	Kind AttrKind
	num  uint64
	str  string
}

// Int builds an int64 attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, Kind: KindInt, num: uint64(v)} }

// Float builds a float64 attribute.
func Float(key string, v float64) Attr {
	return Attr{Key: key, Kind: KindFloat, num: floatBits(v)}
}

// String builds a string attribute.
func String(key, v string) Attr { return Attr{Key: key, Kind: KindString, str: v} }

// Bool builds a bool attribute.
func Bool(key string, v bool) Attr {
	a := Attr{Key: key, Kind: KindBool}
	if v {
		a.num = 1
	}
	return a
}

func floatBits(v float64) uint64     { return math.Float64bits(v) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// IntValue returns the payload of a KindInt attribute.
func (a Attr) IntValue() int64 { return int64(a.num) }

// FloatValue returns the payload of a KindFloat attribute.
func (a Attr) FloatValue() float64 { return floatFromBits(a.num) }

// StringValue returns the payload of a KindString attribute.
func (a Attr) StringValue() string { return a.str }

// BoolValue returns the payload of a KindBool attribute.
func (a Attr) BoolValue() bool { return a.num != 0 }

// Value returns the attribute payload as an interface value (allocates;
// meant for sinks and tests, not hot paths).
func (a Attr) Value() any {
	switch a.Kind {
	case KindInt:
		return a.IntValue()
	case KindFloat:
		return a.FloatValue()
	case KindString:
		return a.str
	case KindBool:
		return a.BoolValue()
	default:
		return nil
	}
}

// SpanRecord is one finished span as delivered to sinks. Sinks must not
// retain the Attrs slice after Emit returns: the tracer reuses nothing
// today, but the contract keeps zero-copy emission possible.
type SpanRecord struct {
	// Name identifies the span in the taxonomy (DESIGN.md §9).
	Name string
	// Start is the wall-clock start of the span.
	Start time.Time
	// Dur is the span's duration (monotonic-clock based).
	Dur time.Duration
	// Attrs are the typed attributes attached at End, in order.
	Attrs []Attr
}

// Sink receives finished spans. Implementations must be safe for
// concurrent Emit calls: the solver worker pool ends spans from many
// goroutines at once.
type Sink interface {
	Emit(rec SpanRecord)
}

// Tracer fans finished spans out to its sinks. The nil *Tracer is the
// disabled tracer: Start returns an inert Span and the whole span
// lifecycle costs two nil checks and zero allocations. Tracer methods
// are safe for concurrent use as long as the sinks are.
type Tracer struct {
	sinks []Sink
}

// NewTracer builds a tracer over the given sinks. With no sinks it
// returns nil — the disabled tracer — so callers can thread the result
// through unconditionally.
func NewTracer(sinks ...Sink) *Tracer {
	live := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	if len(live) == 0 {
		return nil
	}
	return &Tracer{sinks: live}
}

// Enabled reports whether spans started on this tracer are recorded.
func (t *Tracer) Enabled() bool { return t != nil && len(t.sinks) > 0 }

// Start begins a span. On a disabled tracer it returns the inert zero
// Span without reading the clock.
func (t *Tracer) Start(name string) Span {
	if t == nil || len(t.sinks) == 0 {
		return Span{}
	}
	return Span{tracer: t, name: name, start: time.Now()}
}

// Span is one in-flight span, held by value on the caller's stack. The
// zero Span is inert: End on it is a nil check and nothing more.
type Span struct {
	tracer *Tracer
	name   string
	start  time.Time
}

// End finishes the span and emits it, with the given attributes, to
// every sink of its tracer. On the inert span it does nothing; the
// variadic attrs stay on the caller's stack (End copies them before
// handing them to sinks), so the disabled path allocates nothing.
func (s Span) End(attrs ...Attr) {
	if s.tracer == nil {
		return
	}
	rec := SpanRecord{Name: s.name, Start: s.start, Dur: time.Since(s.start)}
	if len(attrs) > 0 {
		rec.Attrs = append(make([]Attr, 0, len(attrs)), attrs...)
	}
	for _, sink := range s.tracer.sinks {
		sink.Emit(rec)
	}
}
