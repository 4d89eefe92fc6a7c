package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync"
	"time"
)

// HistBuckets is the number of log₂ duration buckets a stage histogram
// keeps. Bucket i counts spans with duration < 1µs·2^i; the last bucket
// is the +Inf overflow, so the range spans ~1µs to ~1 minute.
const HistBuckets = 27

// BucketBound returns the inclusive upper bound of histogram bucket i
// (the Prometheus "le" label); the last bucket is unbounded.
func BucketBound(i int) time.Duration {
	return time.Microsecond << uint(i)
}

// bucketOf maps a duration to its histogram bucket.
func bucketOf(d time.Duration) int {
	if d < time.Microsecond {
		return 0
	}
	b := bits.Len64(uint64(d / time.Microsecond))
	if b >= HistBuckets {
		return HistBuckets - 1
	}
	return b
}

// StageStats is the aggregate timing of one name — a span name in an
// Aggregator, a histogram family in a HistogramSet: count, total,
// min/max, and a log₂ duration histogram. It is a plain value; the
// aggregator hands out copies.
type StageStats struct {
	Name    string
	Count   int64
	Total   time.Duration
	Min     time.Duration
	Max     time.Duration
	Buckets [HistBuckets]int64
}

// Mean returns the average span duration.
func (s StageStats) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Count)
}

// observe folds one duration into the named entry of stats, creating it
// on first use. The caller holds the lock that guards the map.
func observe(stats map[string]*StageStats, name string, d time.Duration) {
	st := stats[name]
	if st == nil {
		st = &StageStats{Name: name, Min: d, Max: d}
		stats[name] = st
	}
	st.Count++
	st.Total += d
	if d < st.Min {
		st.Min = d
	}
	if d > st.Max {
		st.Max = d
	}
	st.Buckets[bucketOf(d)]++
}

// Aggregator is a Sink that folds spans into per-stage (per span name)
// histograms in process — the live extension of core.Metrics' flat
// counters. It is safe for concurrent Emit and Snapshot.
type Aggregator struct {
	mu     sync.Mutex
	stages map[string]*StageStats
}

// NewAggregator builds an empty aggregator.
func NewAggregator() *Aggregator {
	return &Aggregator{stages: make(map[string]*StageStats)}
}

// Emit implements Sink.
func (a *Aggregator) Emit(rec SpanRecord) {
	a.mu.Lock()
	observe(a.stages, rec.Name, rec.Dur)
	a.mu.Unlock()
}

// Snapshot returns a copy of every stage's stats, sorted by descending
// total time (the "where did the solve go" ordering).
func (a *Aggregator) Snapshot() []StageStats {
	a.mu.Lock()
	out := make([]StageStats, 0, len(a.stages))
	for _, st := range a.stages {
		out = append(out, *st)
	}
	a.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Reset clears every accumulated stage.
func (a *Aggregator) Reset() {
	a.mu.Lock()
	a.stages = make(map[string]*StageStats)
	a.mu.Unlock()
}

// RenderSummary writes a human-readable per-stage table, widest total
// first — the CLI's end-of-run trace summary.
func (a *Aggregator) RenderSummary(w io.Writer) {
	snap := a.Snapshot()
	if len(snap) == 0 {
		return
	}
	fmt.Fprintf(w, "%-28s %9s %12s %12s %12s %12s\n",
		"span", "count", "total", "mean", "min", "max")
	for _, st := range snap {
		fmt.Fprintf(w, "%-28s %9d %12s %12s %12s %12s\n",
			st.Name, st.Count, fmtDur(st.Total), fmtDur(st.Mean()), fmtDur(st.Min), fmtDur(st.Max))
	}
}

// fmtDur renders a duration rounded for table display.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.Round(time.Nanosecond).String()
	}
}
