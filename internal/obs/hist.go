package obs

import (
	"fmt"
	"io"
	"maps"
	"sort"
	"sync"
	"time"
)

// HistogramSet is a registry of named duration histograms sharing the
// Aggregator's log₂ bucket layout (HistBuckets buckets, bucket i
// bounded by BucketBound(i)). Where the Aggregator derives one
// histogram family per span name from emitted spans, a HistogramSet
// holds explicitly observed histograms that render as their own
// Prometheus families — the advisord hot-path latency metrics
// (advisord_ingest_seconds, advisord_solve_seconds) instead of only
// point gauges. Safe for concurrent Observe and WritePrometheus; the
// nil *HistogramSet drops every call, so observation sites stay
// unconditional.
type HistogramSet struct {
	mu    sync.Mutex
	hists map[string]*StageStats
	help  map[string]string
}

// NewHistogramSet builds an empty histogram registry.
func NewHistogramSet() *HistogramSet {
	return &HistogramSet{hists: make(map[string]*StageStats), help: make(map[string]string)}
}

// Help sets the HELP text rendered for a histogram family.
func (h *HistogramSet) Help(name, help string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.help[name] = help
	h.mu.Unlock()
}

// Observe folds one duration into the named histogram, creating it on
// first use. A nil HistogramSet drops the observation.
func (h *HistogramSet) Observe(name string, d time.Duration) {
	if h == nil {
		return
	}
	h.mu.Lock()
	observe(h.hists, name, d)
	h.mu.Unlock()
}

// Count returns the number of observations of the named histogram.
func (h *HistogramSet) Count(name string) int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	dh := h.hists[name]
	if dh == nil {
		return 0
	}
	return dh.Count
}

// WritePrometheus renders every histogram as its own family in the text
// exposition format, sorted by name so output is stable across calls. A
// nil HistogramSet writes nothing.
func (h *HistogramSet) WritePrometheus(w io.Writer) error {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	snap := make([]StageStats, 0, len(h.hists))
	for _, st := range h.hists {
		snap = append(snap, *st)
	}
	help := maps.Clone(h.help)
	h.mu.Unlock()
	sort.Slice(snap, func(i, j int) bool { return snap[i].Name < snap[j].Name })
	for _, st := range snap {
		if ht := help[st.Name]; ht != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", st.Name, escapeHelp(ht)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", st.Name); err != nil {
			return err
		}
		if err := writeHistogram(w, st.Name, "", st); err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram renders one histogram's sample lines — cumulative
// buckets, +Inf, sum and count — under family, every line carrying
// label (one rendered name="value" pair) when it is non-empty.
func writeHistogram(w io.Writer, family, label string, st StageStats) error {
	lead, alone := "", ""
	if label != "" {
		lead, alone = label+",", "{"+label+"}"
	}
	cum := int64(0)
	for i := 0; i < HistBuckets-1; i++ {
		cum += st.Buckets[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"%s\"} %d\n",
			family, lead, formatSeconds(BucketBound(i).Seconds()), cum); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n%s_sum%s %g\n%s_count%s %d\n",
		family, lead, st.Count, family, alone, st.Total.Seconds(), family, alone, st.Count)
	return err
}
