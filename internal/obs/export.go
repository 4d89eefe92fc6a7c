package obs

import (
	"context"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// WritePrometheus renders the aggregator's stages in the Prometheus
// text exposition format: one histogram family over all span names
// (label span="...") plus a span counter family. The output is stable
// (snapshot ordering) and parses with any Prometheus scraper.
func (a *Aggregator) WritePrometheus(w io.Writer) error {
	snap := a.Snapshot()
	if _, err := fmt.Fprint(w,
		"# HELP dyndesign_span_duration_seconds Solver span durations by span name.\n",
		"# TYPE dyndesign_span_duration_seconds histogram\n"); err != nil {
		return err
	}
	for _, st := range snap {
		if err := writeHistogram(w, "dyndesign_span_duration_seconds",
			`span="`+escapeLabel(st.Name)+`"`, st); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprint(w,
		"# HELP dyndesign_spans_total Finished solver spans by span name.\n",
		"# TYPE dyndesign_spans_total counter\n"); err != nil {
		return err
	}
	for _, st := range snap {
		if _, err := fmt.Fprintf(w, "dyndesign_spans_total{span=\"%s\"} %d\n", escapeLabel(st.Name), st.Count); err != nil {
			return err
		}
	}
	return nil
}

// Expvar returns an expvar.Var rendering the aggregator snapshot as a
// JSON map of span name to {count, total_ns, min_ns, max_ns}. Publish
// it under a caller-chosen name (expvar panics on duplicates, so the
// aggregator does not publish itself).
func (a *Aggregator) Expvar() expvar.Var {
	return expvar.Func(func() any {
		type stage struct {
			Count   int64 `json:"count"`
			TotalNS int64 `json:"total_ns"`
			MinNS   int64 `json:"min_ns"`
			MaxNS   int64 `json:"max_ns"`
		}
		out := make(map[string]stage)
		for _, st := range a.Snapshot() {
			out[st.Name] = stage{
				Count: st.Count, TotalNS: int64(st.Total),
				MinNS: int64(st.Min), MaxNS: int64(st.Max),
			}
		}
		return out
	})
}

// metricsHandler serves the aggregator's span families followed by the
// histogram families and the gauge families; any side may be nil.
func metricsHandler(a *Aggregator, h *HistogramSet, g *GaugeSet) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if a != nil {
			_ = a.WritePrometheus(w)
		}
		_ = h.WritePrometheus(w)
		_ = g.WritePrometheus(w)
	})
}

// registerPprof mounts the net/http/pprof handlers on mux under
// /debug/pprof/, the layout the pprof tool expects.
func registerPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// StartHTTP starts the CLI observability endpoints: a /metrics +
// /debug/vars server on metricsAddr (when non-empty) and a /debug/pprof
// server on pprofAddr (when non-empty). When both addresses are equal
// one server carries everything. /metrics renders the aggregator's span
// families followed by the histogram and gauge families; any may be nil
// (a nil agg is replaced by an empty one so the endpoint always
// parses). Listeners are bound synchronously so a bad address fails
// here, not in a goroutine; the returned stop function shuts the
// servers down.
func StartHTTP(metricsAddr, pprofAddr string, agg *Aggregator, hists *HistogramSet, gauges *GaugeSet) (stop func(), err error) {
	type bound struct {
		ln  net.Listener
		srv *http.Server
	}
	var servers []bound
	start := func(addr string, mux *http.ServeMux) error {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return fmt.Errorf("obs: listen %s: %w", addr, err)
		}
		srv := &http.Server{Handler: mux}
		servers = append(servers, bound{ln: ln, srv: srv})
		go func() { _ = srv.Serve(ln) }()
		return nil
	}
	stopAll := func() {
		for _, b := range servers {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			_ = b.srv.Shutdown(ctx)
			cancel()
		}
	}

	if metricsAddr != "" {
		if agg == nil {
			agg = NewAggregator()
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", metricsHandler(agg, hists, gauges))
		mux.Handle("/debug/vars", expvar.Handler())
		if pprofAddr == metricsAddr {
			registerPprof(mux)
			pprofAddr = ""
		}
		if err := start(metricsAddr, mux); err != nil {
			return nil, err
		}
	}
	if pprofAddr != "" {
		mux := http.NewServeMux()
		registerPprof(mux)
		if err := start(pprofAddr, mux); err != nil {
			stopAll()
			return nil, err
		}
	}
	return stopAll, nil
}
