package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestUsageErrorsExit2 pins that a bad -exp, -ks or -format value is a
// usage error reported before any table is built, whatever else the
// command line asks for.
func TestUsageErrorsExit2(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown experiment", []string{"-exp", "fig5"}, `unknown experiment "fig5" (want table1, table2, fig3, fig4, ablations, or all)`},
		{"bad ks entry", []string{"-exp", "fig4", "-ks", "2,x,6"}, `bad -ks entry "x"`},
		{"negative k", []string{"-ks", "2,-4"}, `bad -ks entry "-4"`},
		{"unknown format", []string{"-exp", "table1", "-format", "yaml"}, `unknown -format "yaml"`},
		{"unknown flag", []string{"-experiment", "table1"}, "flag provided but not defined"},
	} {
		var stdout, stderr bytes.Buffer
		if status := run(tc.args, &stdout, &stderr); status != 2 {
			t.Errorf("%s: exit %d, want 2", tc.name, status)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%s: stderr %q lacks %q", tc.name, stderr.String(), tc.want)
		}
		if stdout.Len() != 0 || strings.Contains(stderr.String(), "building") {
			t.Errorf("%s: work started before the usage error: stdout %q, stderr %q", tc.name, stdout.String(), stderr.String())
		}
	}
}

// TestTable1Golden: -exp table1 builds no table, writes the same bytes
// every time, and those bytes are the committed rendering.
func TestTable1Golden(t *testing.T) {
	golden, err := os.ReadFile("testdata/table1.golden")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		var stdout, stderr bytes.Buffer
		if status := run([]string{"-exp", "table1"}, &stdout, &stderr); status != 0 {
			t.Fatalf("exit %d: %s", status, stderr.String())
		}
		if !bytes.Equal(stdout.Bytes(), golden) {
			t.Errorf("run %d: -exp table1 wrote\n%s\nwant testdata/table1.golden:\n%s", i, stdout.String(), golden)
		}
		if stderr.Len() != 0 {
			t.Errorf("run %d: stderr %q", i, stderr.String())
		}
	}
}

// TestHelpListsEveryExperiment: ablations is a valid -exp value — it is
// where the strategy table prints — and -h says so.
func TestHelpListsEveryExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if status := run([]string{"-h"}, &stdout, &stderr); status != 0 {
		t.Fatalf("-h: exit %d", status)
	}
	for _, name := range append(experimentNames, "all") {
		if !strings.Contains(stderr.String(), name) {
			t.Errorf("-h does not list %s:\n%s", name, stderr.String())
		}
	}
}
