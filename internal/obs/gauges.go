package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
)

// GaugeSet is a small Prometheus registry for point-in-time quantities
// that are not span durations. It complements the Aggregator (which
// only sees spans) with two kinds of family, rendered in the same text
// exposition the /metrics endpoint serves: labelled gauges that are Set
// explicitly and keep their last value (the explain layer's
// cost-of-constraint curve, audit regrets, attribution totals), and
// label-free families declared once with Func and read from their
// owner at every scrape (advisord's service metrics). Safe for
// concurrent use.
type GaugeSet struct {
	mu     sync.Mutex
	series map[string]gauge // keyed by name + rendered labels
	help   map[string]string
	funcs  []funcGroup // evaluated at scrape time, in declaration order
}

// MetricKind is a family's Prometheus TYPE.
type MetricKind string

const (
	// Gauge is a value that can go up and down.
	Gauge MetricKind = "gauge"
	// Counter is a value that only grows while the process lives.
	Counter MetricKind = "counter"
)

// Family declares one label-free family for Func: its name, the HELP
// text, and the TYPE it renders as.
type Family struct {
	Name, Help string
	Kind       MetricKind
}

// funcGroup is one Func declaration: read returns one value per family.
type funcGroup struct {
	families []Family
	read     func() []float64
}

type gauge struct {
	name   string
	labels string // pre-rendered {k="v",...} or ""
	value  float64
}

// NewGaugeSet builds an empty gauge registry.
func NewGaugeSet() *GaugeSet {
	return &GaugeSet{
		series: make(map[string]gauge),
		help:   make(map[string]string),
	}
}

// Help sets the HELP text rendered for a gauge family.
func (g *GaugeSet) Help(name, help string) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.help[name] = help
	g.mu.Unlock()
}

// Set records a gauge value for the series identified by name and label
// pairs (given as "key", "value" alternating; an odd trailing key is
// ignored). Setting the same series again overwrites its value. A nil
// GaugeSet drops the write, so publishing stays unconditional at call
// sites.
func (g *GaugeSet) Set(name string, value float64, labelPairs ...string) {
	if g == nil {
		return
	}
	var labels string
	if len(labelPairs) >= 2 {
		parts := make([]string, 0, len(labelPairs)/2)
		for i := 0; i+1 < len(labelPairs); i += 2 {
			parts = append(parts, fmt.Sprintf("%s=\"%s\"", labelPairs[i], escapeLabel(labelPairs[i+1])))
		}
		sort.Strings(parts)
		labels = "{" + strings.Join(parts, ",") + "}"
	}
	g.mu.Lock()
	g.series[name+labels] = gauge{name: name, labels: labels, value: value}
	g.mu.Unlock()
}

// Func declares label-free families evaluated at scrape time — for
// quantities whose owner already holds the current value, where a
// Set-at-some-moment copy would go stale between those moments (the age
// of the published recommendation is the extreme case: it changes while
// nothing happens). Every scrape calls read once and takes element i as
// the value of families[i], so a group of families shares one snapshot
// of its source per scrape. read must be safe for concurrent calls; it
// is invoked outside the registry lock, and a NaN (or missing) element
// drops that family — HELP and TYPE included — from that scrape.
// A name is declared once (and not also Set); a nil GaugeSet drops the
// registration.
func (g *GaugeSet) Func(families []Family, read func() []float64) {
	if g == nil || read == nil {
		return
	}
	g.mu.Lock()
	g.funcs = append(g.funcs, funcGroup{families: families, read: read})
	g.mu.Unlock()
}

// WritePrometheus renders every series in the Prometheus text exposition
// format, grouped by family and sorted, so output is stable across
// calls. A nil GaugeSet writes nothing.
func (g *GaugeSet) WritePrometheus(w io.Writer) error {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	all := make([]gauge, 0, len(g.series)+len(g.funcs))
	for _, s := range g.series {
		all = append(all, s)
	}
	help := make(map[string]string, len(g.help))
	for k, v := range g.help {
		help[k] = v
	}
	funcs := g.funcs // append-only, so the header is a stable view
	g.mu.Unlock()
	// Scrape-time families evaluate outside the lock so a slow or
	// re-entrant read cannot stall concurrent Sets; NaN means "no sample
	// this scrape".
	declared := make(map[string]Family)
	for _, grp := range funcs {
		vals := grp.read()
		for i, f := range grp.families {
			if i < len(vals) && !math.IsNaN(vals[i]) {
				all = append(all, gauge{name: f.Name, value: vals[i]})
				declared[f.Name] = f
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].name != all[j].name {
			return all[i].name < all[j].name
		}
		return all[i].labels < all[j].labels
	})
	lastFamily := ""
	for _, s := range all {
		if s.name != lastFamily {
			h, kind := help[s.name], Gauge
			if f, ok := declared[s.name]; ok {
				h, kind = f.Help, f.Kind
			}
			if h != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", s.name, escapeHelp(h)); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.name, kind); err != nil {
				return err
			}
			lastFamily = s.name
		}
		if _, err := fmt.Fprintf(w, "%s%s %g\n", s.name, s.labels, s.value); err != nil {
			return err
		}
	}
	return nil
}
