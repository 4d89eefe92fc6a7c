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

// TestMain doubles the test binary as the dyndesign executable: with
// DYNDESIGN_CHILD=1 it runs main itself, so a test observes the real
// exit status and stderr of a command line.
func TestMain(m *testing.M) {
	if os.Getenv("DYNDESIGN_CHILD") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runChild(t *testing.T, args ...string) (status int, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DYNDESIGN_CHILD=1")
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
// (to the next check, the missing -trace), while a misspelt one, or a
// library solver that is not a strategy, is a usage error naming the
// choices, raised before the paper table is built — even under
// -fallback, which used to absorb it and exit 0.
func TestStrategyFlag(t *testing.T) {
	for _, s := range core.Strategies() {
		status, stderr := runChild(t, "-paper-rows", "5000", "-strategy", string(s))
		if status != 1 || !strings.Contains(stderr, "-trace is required") {
			t.Errorf("-strategy %s: exit %d, stderr %q", s, status, stderr)
		}
	}
	_, help := runChild(t, "-h")
	for _, name := range []string{"kawre", "ranking", "rankmerge", "hybrid"} {
		status, stderr := runChild(t, "-paper-rows", "5000", "-trace", "absent.json", "-fallback", "-strategy", name)
		if status != 2 {
			t.Errorf("-strategy %s: exit %d, want 2", name, status)
		}
		if strings.Contains(stderr, "building paper table") {
			t.Errorf("-strategy %s built the database before failing: %q", name, stderr)
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
