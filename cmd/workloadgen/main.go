// Command workloadgen generates workload traces as JSON: the paper's
// W1/W2/W3 family, or custom phased workloads over the Table 1 mixes.
//
// Usage:
//
//	workloadgen -workload W1 -rows 100000 -block 200 -o w1.json
//	workloadgen -plan "A:500,B:500,A:500" -rows 100000 -o custom.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"dyndesign/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// create opens the -o file. It is a variable so a test can hand run a
// file whose Close fails, the way a full disk makes it fail.
var create = func(path string) (io.WriteCloser, error) { return os.Create(path) }

// run is the whole command and returns its exit status: 0, 1 when
// reading, generating or writing fails, 2 for a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("workloadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "paper workload to generate: W1, W2, or W3")
	plan := fs.String("plan", "", "custom plan over mixes A-D, e.g. \"A:500,B:500\" (alternative to -workload)")
	rows := fs.Int64("rows", 100000, "table cardinality the workload targets (sets the value domain)")
	block := fs.Int("block", 200, "queries per block for -workload")
	seed := fs.Int64("seed", 1, "random seed")
	out := fs.String("o", "-", "output file (- for stdout)")
	statsPath := fs.String("stats", "", "instead of generating, print block statistics of an existing trace file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(status int, err error) int {
		fmt.Fprintf(stderr, "workloadgen: %v\n", err)
		return status
	}

	if *statsPath != "" {
		if err := printStats(stdout, *statsPath); err != nil {
			return fail(1, err)
		}
		return 0
	}

	var w *workload.Workload
	var err error
	switch {
	case *name != "" && *plan != "":
		err = fmt.Errorf("use either -workload or -plan, not both")
	case *name != "":
		w, err = workload.PaperWorkload(*name, *rows, *block, *seed)
	case *plan != "":
		w, err = fromPlan(*plan, *rows, *seed)
	default:
		err = fmt.Errorf("one of -workload or -plan is required")
	}
	if err != nil {
		return fail(2, err)
	}

	if *out == "-" {
		err = w.WriteJSON(stdout)
	} else {
		err = writeFile(*out, w)
	}
	if err != nil {
		return fail(1, err)
	}
	fmt.Fprintf(stderr, "wrote %d statements (%s)\n", w.Len(), w.Name)
	return 0
}

// writeFile writes the trace to path. A full disk may surface only when
// the file is closed, so the Close error is the write's result rather
// than something a defer drops.
func writeFile(path string, w *workload.Workload) error {
	f, err := create(path)
	if err != nil {
		return err
	}
	if err := w.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printStats summarizes an existing trace: statement count, mix
// histogram, and the block structure.
func printStats(stdout io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w, err := workload.ReadJSON(f)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "trace %q: %d statements\n", w.Name, w.Len())
	if len(w.Labels) == 0 {
		fmt.Fprintln(stdout, "(no block labels)")
		return nil
	}
	fmt.Fprintln(stdout, "mix histogram:")
	for _, b := range w.MixHistogram() {
		fmt.Fprintf(stdout, "  %-6s %6d\n", b.Label, b.Count)
	}
	blocks := w.BlockLabels()
	fmt.Fprintf(stdout, "blocks: %d\n", len(blocks))
	for _, b := range blocks {
		fmt.Fprintf(stdout, "  @%-7d %-6s x%d\n", b.Start, b.Label, b.Count)
	}
	return nil
}

// fromPlan parses "A:500,B:500" into a phased workload over the paper
// mixes.
func fromPlan(plan string, rows, seed int64) (*workload.Workload, error) {
	mixes := workload.PaperMixes(rows)
	var specs []workload.PhaseSpec
	for _, part := range strings.Split(plan, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.SplitN(part, ":", 2)
		if len(fields) != 2 {
			return nil, fmt.Errorf("bad plan entry %q (want MIX:COUNT)", part)
		}
		count, err := strconv.Atoi(fields[1])
		if err != nil || count <= 0 {
			return nil, fmt.Errorf("bad count in plan entry %q", part)
		}
		specs = append(specs, workload.PhaseSpec{Mix: strings.ToUpper(fields[0]), Count: count})
	}
	return workload.GeneratePhased("custom", mixes, specs, seed)
}
