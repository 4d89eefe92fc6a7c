package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// explainSmokeArgs is the trace `make explain-smoke` generates.
var explainSmokeArgs = []string{"-plan", "A:10,C:10", "-rows", "5000", "-seed", "7"}

// TestPlanTraceStableAndRoundTrips pins the generator's determinism —
// the same plan, scale and seed give the same bytes — and reads the
// trace back through -stats: 20 statements in an A block and a C block.
func TestPlanTraceStableAndRoundTrips(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var stdout, stderr bytes.Buffer
	if status := run(append(explainSmokeArgs, "-o", path), &stdout, &stderr); status != 0 {
		t.Fatalf("-o run: exit %d: %s", status, stderr.String())
	}
	if !strings.Contains(stderr.String(), "wrote 20 statements") {
		t.Fatalf("-o run: stderr %q", stderr.String())
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A second run, to the default destination: stdout carries the same
	// bytes.
	stderr.Reset()
	if status := run(explainSmokeArgs, &stdout, &stderr); status != 0 {
		t.Fatalf("stdout run: exit %d: %s", status, stderr.String())
	}
	if !bytes.Equal(first, stdout.Bytes()) {
		t.Fatal("two runs with the same plan, rows and seed wrote different traces")
	}

	stdout.Reset()
	stderr.Reset()
	if status := run([]string{"-stats", path}, &stdout, &stderr); status != 0 {
		t.Fatalf("-stats: exit %d: %s", status, stderr.String())
	}
	for _, want := range []string{`trace "custom": 20 statements`, "blocks: 2", "@0       A      x10", "@10      C      x10"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("-stats output lacks %q:\n%s", want, stdout.String())
		}
	}
}

func TestUsageErrorsExit2(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"both sources", []string{"-workload", "W1", "-plan", "A:10"}, "not both"},
		{"bad plan entry", []string{"-plan", "A:10,C"}, `bad plan entry "C"`},
		{"bad plan count", []string{"-plan", "A:zero"}, "bad count"},
		{"no source", nil, "-workload or -plan is required"},
		{"unknown flag", []string{"-nope"}, "flag provided but not defined"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if status := run(tc.args, &stdout, &stderr); status != 2 {
				t.Fatalf("exit %d, want 2 (stderr %q)", status, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr %q lacks %q", stderr.String(), tc.want)
			}
			if stdout.Len() != 0 {
				t.Errorf("usage error wrote to stdout: %q", stdout.String())
			}
		})
	}
}

// failingCloser accepts every write and fails at Close, like a file on a
// full disk whose last blocks are flushed only then.
type failingCloser struct{ io.Writer }

func (failingCloser) Close() error { return errors.New("close: no space left on device") }

// TestCloseErrorIsReported: a trace that could not be closed is not a
// trace that was written — exit 1, the error on stderr, no "wrote" line.
func TestCloseErrorIsReported(t *testing.T) {
	saved := create
	defer func() { create = saved }()
	create = func(string) (io.WriteCloser, error) { return failingCloser{io.Discard}, nil }

	var stdout, stderr bytes.Buffer
	if status := run(append(explainSmokeArgs, "-o", "full-disk.json"), &stdout, &stderr); status != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", status, stderr.String())
	}
	if !strings.Contains(stderr.String(), "no space left on device") {
		t.Errorf("stderr %q does not carry the Close error", stderr.String())
	}
	if strings.Contains(stderr.String(), "wrote") {
		t.Errorf("stderr %q claims success", stderr.String())
	}
}
