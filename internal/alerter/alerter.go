// Package alerter implements a lightweight physical-design alerter in
// the spirit of Bruno & Chaudhuri's "to tune or not to tune?", which the
// paper's related-work section (§7) proposes as the trigger for its
// off-line optimizer: "we might rely on these technologies to trigger an
// off-line dynamic optimizer such as the one presented here."
//
// The alerter observes the statement stream, keeps a sliding window of
// what-if costs for every candidate configuration, and raises an alert
// when some other configuration would have executed the recent window
// sufficiently more cheaply than the configuration currently installed —
// the signal that the workload has drifted and the advisor should be
// re-run.
package alerter

import (
	"context"
	"fmt"
	"slices"

	"dyndesign/internal/advisor"
	"dyndesign/internal/core"
	"dyndesign/internal/workload"
)

// Options tunes the alerter.
type Options struct {
	// WindowSize is the number of recent statements considered
	// (default 500).
	WindowSize int
	// CheckEvery re-evaluates the window every this many statements
	// (default 50).
	CheckEvery int
	// Threshold is the minimum relative improvement that triggers an
	// alert: alert when bestCost <= (1 - Threshold) * currentCost
	// (default 0.25).
	Threshold float64
	// Cooldown suppresses further alerts for this many statements after
	// one fires (default WindowSize), so one drift yields one alert.
	Cooldown int
}

func (o Options) withDefaults() Options {
	if o.WindowSize <= 0 {
		o.WindowSize = 500
	}
	if o.CheckEvery <= 0 {
		o.CheckEvery = 50
	}
	if o.Threshold <= 0 {
		o.Threshold = 0.25
	}
	if o.Cooldown <= 0 {
		o.Cooldown = o.WindowSize
	}
	return o
}

// Alert reports that the current physical design has drifted away from
// the recent workload.
type Alert struct {
	// AtStatement is the 0-based count of statements observed when the
	// alert fired.
	AtStatement int
	// Current and Best are the window costs of the installed and the
	// best candidate configuration.
	Current, Best float64
	// BestConfig is the candidate that would serve the window best.
	BestConfig core.Config
	// Improvement is 1 - Best/Current.
	Improvement float64
}

// Alerter monitors a statement stream for physical-design drift. It is
// not safe for concurrent use; feed it from one goroutine.
type Alerter struct {
	adv     *advisor.Advisor
	configs []core.Config
	current core.Config
	opts    Options

	// ring[i][j] is the what-if cost of the i-th window slot under
	// configs[j]; sums[j] maintains the window total.
	ring     [][]float64
	sums     []float64
	pos      int
	filled   int
	observed int
	lastFire int // observed count at the last alert, -1 before any
}

// New builds an alerter over the advisor's design space. configs is the
// candidate configuration list to watch (e.g. the same list the advisor
// optimizes over); current is the configuration installed right now.
func New(adv *advisor.Advisor, configs []core.Config, current core.Config, opts Options) (*Alerter, error) {
	if len(configs) == 0 {
		return nil, fmt.Errorf("alerter: no candidate configurations")
	}
	if !slices.Contains(configs, current) {
		return nil, fmt.Errorf("alerter: current configuration not among the candidates")
	}
	opts = opts.withDefaults()
	a := &Alerter{
		adv:      adv,
		configs:  configs,
		current:  current,
		opts:     opts,
		ring:     make([][]float64, opts.WindowSize),
		sums:     make([]float64, len(configs)),
		lastFire: -1,
	}
	for i := range a.ring {
		a.ring[i] = make([]float64, len(configs))
	}
	return a, nil
}

// Current returns the configuration the alerter believes is installed.
func (a *Alerter) Current() core.Config { return a.current }

// SetCurrent informs the alerter that the design changed (e.g. after
// re-running the advisor); it also resets the alert cooldown.
func (a *Alerter) SetCurrent(c core.Config) error {
	if !slices.Contains(a.configs, c) {
		return fmt.Errorf("alerter: configuration not among the candidates")
	}
	a.current = c
	a.lastFire = -1
	return nil
}

// Observed returns how many statements the alerter has seen.
func (a *Alerter) Observed() int { return a.observed }

// State is the serializable drift-detector state: the cost ring, its
// running sums, and the counters that govern check cadence and
// cooldown. It captures everything Observe mutates, so a restored
// alerter continues the stream exactly where the original stopped —
// same alerts at the same statements. Configs and WindowSize pin the
// shape the state was captured under; RestoreState rejects a state
// whose shape no longer matches instead of replaying costs into the
// wrong slots.
type State struct {
	Configs    []core.Config `json:"configs"`
	Current    core.Config   `json:"current"`
	WindowSize int           `json:"window_size"`
	Observed   int           `json:"observed"`
	LastFire   int           `json:"last_fire"`
	Pos        int           `json:"pos"`
	Filled     int           `json:"filled"`
	Ring       [][]float64   `json:"ring"`
	Sums       []float64     `json:"sums"`
}

// State serializes the alerter's mutable state. The result shares no
// storage with the alerter.
func (a *Alerter) State() State {
	st := State{
		Configs:    append([]core.Config(nil), a.configs...),
		Current:    a.current,
		WindowSize: a.opts.WindowSize,
		Observed:   a.observed,
		LastFire:   a.lastFire,
		Pos:        a.pos,
		Filled:     a.filled,
		Ring:       make([][]float64, len(a.ring)),
		Sums:       append([]float64(nil), a.sums...),
	}
	for i, slot := range a.ring {
		st.Ring[i] = append([]float64(nil), slot...)
	}
	return st
}

// RestoreState replaces the alerter's mutable state with a serialized
// one. It fails — leaving the alerter unchanged — when the state was
// captured under a different shape: another candidate list, window
// size, or ring geometry. Callers treat that as "start cold", not as a
// fatal error; drift detection simply warms up again.
func (a *Alerter) RestoreState(st State) error {
	if len(st.Configs) != len(a.configs) {
		return fmt.Errorf("alerter: state has %d candidate configurations, alerter has %d", len(st.Configs), len(a.configs))
	}
	for i, c := range st.Configs {
		if c != a.configs[i] {
			return fmt.Errorf("alerter: state candidate %d is %d, alerter has %d", i, c, a.configs[i])
		}
	}
	if st.WindowSize != a.opts.WindowSize {
		return fmt.Errorf("alerter: state window size %d, alerter has %d", st.WindowSize, a.opts.WindowSize)
	}
	if len(st.Ring) != a.opts.WindowSize || len(st.Sums) != len(a.configs) {
		return fmt.Errorf("alerter: state ring %dx%d does not fit window %d over %d candidates",
			len(st.Ring), len(st.Sums), a.opts.WindowSize, len(a.configs))
	}
	if st.Pos < 0 || st.Pos >= a.opts.WindowSize || st.Filled < 0 || st.Filled > a.opts.WindowSize {
		return fmt.Errorf("alerter: state position %d/fill %d outside window %d", st.Pos, st.Filled, a.opts.WindowSize)
	}
	if !slices.Contains(a.configs, st.Current) {
		return fmt.Errorf("alerter: state's current configuration not among the candidates")
	}
	for i, slot := range st.Ring {
		if len(slot) != len(a.configs) {
			return fmt.Errorf("alerter: state ring slot %d has %d costs, want %d", i, len(slot), len(a.configs))
		}
		copy(a.ring[i], slot)
	}
	copy(a.sums, st.Sums)
	a.current = st.Current
	a.observed = st.Observed
	a.lastFire = st.LastFire
	a.pos = st.Pos
	a.filled = st.Filled
	return nil
}

// Observe feeds one statement. It returns a non-nil Alert when the
// window check fires.
func (a *Alerter) Observe(s workload.Statement) (*Alert, error) {
	return a.ObserveContext(context.Background(), s)
}

// ObserveContext is Observe with cooperative cancellation: a cancelled
// context returns its error before the statement is costed, leaving the
// window unchanged for this statement.
func (a *Alerter) ObserveContext(ctx context.Context, s workload.Statement) (*Alert, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Cost every candidate from one compile before mutating the window,
	// so a rejected statement cannot leave slot and sums half-updated.
	costs := make([]float64, len(a.configs))
	if err := a.adv.StatementCosts(s, a.configs, costs); err != nil {
		return nil, err
	}
	slot := a.ring[a.pos]
	for j := range a.configs {
		a.sums[j] += costs[j] - slot[j]
		slot[j] = costs[j]
	}
	a.pos = (a.pos + 1) % a.opts.WindowSize
	if a.filled < a.opts.WindowSize {
		a.filled++
	}
	a.observed++

	if a.filled < a.opts.WindowSize || a.observed%a.opts.CheckEvery != 0 {
		return nil, nil
	}
	if a.lastFire >= 0 && a.observed-a.lastFire < a.opts.Cooldown {
		return nil, nil
	}

	currentCost := 0.0
	found := false
	bestCost := 0.0
	var bestCfg core.Config
	for j, cfg := range a.configs {
		if cfg == a.current {
			currentCost = a.sums[j]
			found = true
		}
		if j == 0 || a.sums[j] < bestCost {
			bestCost = a.sums[j]
			bestCfg = cfg
		}
	}
	if !found {
		return nil, fmt.Errorf("alerter: current configuration vanished from candidates")
	}
	if currentCost <= 0 || bestCost > (1-a.opts.Threshold)*currentCost {
		return nil, nil
	}
	a.lastFire = a.observed
	return &Alert{
		AtStatement: a.observed,
		Current:     currentCost,
		Best:        bestCost,
		BestConfig:  bestCfg,
		Improvement: 1 - bestCost/currentCost,
	}, nil
}
