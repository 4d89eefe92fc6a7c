package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"dyndesign/internal/core"
)

// runChild runs one advisord command line to completion in a child (the
// test binary under ADVISORD_CHILD=1, see TestMain) and returns its exit
// status and stderr.
func runChild(t *testing.T, args ...string) (status int, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ADVISORD_CHILD=1")
	var buf bytes.Buffer
	cmd.Stderr = &buf
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), buf.String()
}

// TestStrategyFlag: every strategy core offers gets past flag parsing
// (to the next check, the missing table source), while a misspelt one,
// or a library solver that is not a strategy, is a usage error naming
// the choices, raised before the paper table is built or the listener
// opened — with -fallback on by default the ladder used to absorb it on
// every solve.
func TestStrategyFlag(t *testing.T) {
	for _, s := range core.Strategies() {
		status, stderr := runChild(t, "-strategy", string(s))
		if status != 1 || !strings.Contains(stderr, "-setup or -paper-rows is required") {
			t.Errorf("-strategy %s: exit %d, stderr %q", s, status, stderr)
		}
	}
	_, help := runChild(t, "-h")
	for _, name := range []string{"kawre", "ranking", "rankmerge", "hybrid"} {
		status, stderr := runChild(t, "-paper-rows", "3000", "-addr", "127.0.0.1:0", "-strategy", name)
		if status != 2 {
			t.Errorf("-strategy %s: exit %d, want 2", name, status)
		}
		if strings.Contains(stderr, "building paper table") || strings.Contains(stderr, "serving on") {
			t.Errorf("-strategy %s started work before failing: %q", name, stderr)
		}
		for _, s := range core.Strategies() {
			if !strings.Contains(stderr, string(s)) {
				t.Errorf("rejection of %s does not list %s: %q", name, s, stderr)
			}
			if !strings.Contains(help, string(s)) {
				t.Errorf("-h does not list %s", s)
			}
		}
	}
}

// TestNewServiceRejectsUnknownStrategy: the service refuses a strategy
// core does not know instead of letting the ladder absorb it on every
// solve; the empty name still means kaware.
func TestNewServiceRejectsUnknownStrategy(t *testing.T) {
	adv := testAdvisor(t)
	if _, err := newService(adv, serviceConfig{Strategy: "kawre", Fallback: true}); err == nil {
		t.Fatal("newService accepted strategy kawre")
	}
	svc, err := newService(adv, serviceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if svc.cfg.Strategy != core.StrategyKAware {
		t.Fatalf("default strategy %q, want kaware", svc.cfg.Strategy)
	}
}
