package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"dyndesign/internal/chaos"
	"dyndesign/internal/workload"
)

// TestMain doubles the test binary as the advisord executable: when
// ADVISORD_CHILD=1 it runs the real server main loop instead of the
// tests. The crash harness starts these children, SIGKILLs them at
// seeded chaos points, and restarts them over the same data dir — a
// real process death, not a simulated one.
func TestMain(m *testing.M) {
	if os.Getenv("ADVISORD_CHILD") == "1" {
		ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
		err := run(ctx)
		stop()
		if err != nil && !errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "advisord child: %v\n", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// crashRows keeps the child's paper table small enough that a scenario
// (two child starts, two solves) stays in seconds.
const crashRows = 3000

// midSolveAt is the statement count at which the harness forces the
// mid-trace solve, chaining the installed design into the final one.
const midSolveAt = 60

// crashBatch is the ingest batch size, so the WAL crash points count
// frames of up to 8 statements: frames 1–8 carry statements 1–60 (the
// eighth holds the 4 left before the mid solve), frames 9–21 the rest.
const crashBatch = 8

var (
	crashTraceOnce sync.Once
	crashTraceVal  []ingestStatement
	crashTraceErr  error
)

// crashTrace is the drifting trace every scenario replays: phase A then
// phase C, generated against the child's table size so every statement
// is costable there.
func crashTrace(t *testing.T) []ingestStatement {
	t.Helper()
	crashTraceOnce.Do(func() {
		w, err := workload.GeneratePhased("crash", workload.PaperMixes(crashRows), []workload.PhaseSpec{
			{Mix: "A", Count: 80},
			{Mix: "C", Count: 80},
		}, 7)
		if err != nil {
			crashTraceErr = err
			return
		}
		for i, stmt := range w.Statements {
			crashTraceVal = append(crashTraceVal, ingestStatement{SQL: stmt.SQL, Label: w.Labels[i]})
		}
	})
	if crashTraceErr != nil {
		t.Fatal(crashTraceErr)
	}
	return crashTraceVal
}

func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	l.Close()
	return port
}

type childProc struct {
	cmd    *exec.Cmd
	stderr bytes.Buffer
	done   chan error
}

// startChild launches advisord (this test binary re-exec'd) against
// dataDir, optionally armed with a CHAOS_CRASHPOINT spec.
func startChild(t *testing.T, port int, dataDir, crashpoint string) *childProc {
	t.Helper()
	cmd := exec.Command(os.Args[0],
		"-paper-rows", strconv.Itoa(crashRows),
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-k", "2",
		"-segment", "5",
		"-window", "80",
		"-min-statements", "-1", // solves happen only on POST /solve
		"-alert-every", "1000000", // drift checks off: deterministic solve points
		"-alert-threshold", "0.99",
		"-explain=false",
		"-data-dir", dataDir,
		"-fsync-every", "1",
		"-wal-segment-bytes", "2048", // force segment rotations inside the trace
	)
	cmd.Env = append(os.Environ(), "ADVISORD_CHILD=1")
	if crashpoint != "" {
		cmd.Env = append(cmd.Env, chaos.CrashEnv+"="+crashpoint)
	}
	c := &childProc{cmd: cmd, done: make(chan error, 1)}
	cmd.Stderr = &c.stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { c.done <- cmd.Wait() }()
	return c
}

func (c *childProc) waitExit(t *testing.T) error {
	t.Helper()
	select {
	case err := <-c.done:
		return err
	case <-time.After(30 * time.Second):
		_ = c.cmd.Process.Kill()
		t.Fatalf("child did not exit; stderr:\n%s", c.stderr.String())
		return nil
	}
}

func (c *childProc) terminate(t *testing.T) {
	t.Helper()
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	_ = c.waitExit(t)
}

func waitReady(t *testing.T, c *childProc, base string) {
	t.Helper()
	client := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		select {
		case err := <-c.done:
			t.Fatalf("child exited during startup: %v\nstderr:\n%s", err, c.stderr.String())
		case <-time.After(50 * time.Millisecond):
		}
	}
	t.Fatalf("child never became ready; stderr:\n%s", c.stderr.String())
}

// postBatch sends one ingest batch; a transport error means the child
// died mid-request (the crash signal the harness recovers from).
func postBatch(client *http.Client, base string, batch []ingestStatement) error {
	body, err := json.Marshal(ingestRequest{Statements: batch})
	if err != nil {
		return err
	}
	resp, err := client.Post(base+"/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("ingest status %d: %s", resp.StatusCode, msg)
	}
	return nil
}

// postSolve forces a synchronous solve and returns the fresh
// recommendation body.
func postSolve(client *http.Client, base string) ([]byte, error) {
	resp, err := client.Post(base+"/solve", "application/json", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("solve status %d: %s", resp.StatusCode, body)
	}
	return body, nil
}

func healthzAt(t *testing.T, client *http.Client, base string) healthzResponse {
	t.Helper()
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz after restart: %v", err)
	}
	defer resp.Body.Close()
	var h healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

// canonicalSolve strips the volatile fields (wall-clock stamps, solve
// duration, cache instrumentation) and re-marshals with sorted keys, so
// two runs compare on exactly the recommendation contract: designs,
// steps, costs, problem shape.
func canonicalSolve(t *testing.T, body []byte) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("solve body does not parse: %v\n%s", err, body)
	}
	delete(m, "solved_at")
	delete(m, "solve_millis")
	delete(m, "stats")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// runScenario replays the crash trace against a fresh child, forcing a
// solve at midSolveAt and at the end, and returns the canonicalized
// final recommendation. With a crashpoint armed, the child SIGKILLs
// itself mid-operation; the harness restarts it over the same data dir
// and resumes the trace from the recovered window_total — the durable
// statement count — so the stream the recovered service sees is exactly
// the stream the uninterrupted service saw. A mid-trace solve whose
// durable snapshot was lost to the crash is re-forced over the
// identical window before ingestion resumes, keeping the installed
// design chain (each solve's C0) the same in both runs. A child killed
// inside a WAL frame must come back holding exactly the acknowledged
// statements: none of the batch whose frame was torn.
func runScenario(t *testing.T, crashpoint string) (final []byte, restarts int) {
	t.Helper()
	dir := t.TempDir()
	port := freePort(t)
	base := fmt.Sprintf("http://127.0.0.1:%d", port)
	trace := crashTrace(t)
	child := startChild(t, port, dir, crashpoint)
	defer func() {
		if child != nil {
			_ = child.cmd.Process.Kill()
		}
	}()
	waitReady(t, child, base)
	client := &http.Client{Timeout: 120 * time.Second}

	sent, midDone := 0, false
	restart := func() {
		if err := child.waitExit(t); err == nil {
			t.Fatalf("request failed but child %q exited cleanly; stderr:\n%s", crashpoint, child.stderr.String())
		}
		restarts++
		if restarts > 3 {
			t.Fatalf("child crashed %d times; crash point should fire once", restarts)
		}
		child = startChild(t, port, dir, "") // recovered run: no crash point
		waitReady(t, child, base)
		h := healthzAt(t, client, base)
		if h.Durable == nil {
			t.Fatal("recovered child reports no durable state")
		}
		if strings.HasPrefix(crashpoint, "wal.append.mid:") && (h.WindowTotal != int64(sent) || h.Durable.WALLastSeq != uint64(sent)) {
			t.Fatalf("killed inside a batch frame after %d acknowledged statements, the restart holds window_total %d, wal_last_seq %d: part of the torn batch survived",
				sent, h.WindowTotal, h.Durable.WALLastSeq)
		}
		sent = int(h.WindowTotal)
		midDone = h.Durable.RecoverySnapSeq >= midSolveAt
		if !midDone && sent >= midSolveAt {
			// The mid solve ran but its snapshot died with the process:
			// the window is byte-identical to the one it solved (nothing
			// was ingested after it), so re-forcing reproduces the same
			// installed design the uninterrupted run chained from.
			if _, err := postSolve(client, base); err != nil {
				t.Fatalf("re-forcing lost mid solve: %v", err)
			}
			midDone = true
		}
	}

	for sent < len(trace) || !midDone {
		if !midDone && sent >= midSolveAt {
			if _, err := postSolve(client, base); err != nil {
				restart()
				continue
			}
			midDone = true
			continue
		}
		end := min(sent+crashBatch, len(trace))
		if !midDone {
			end = min(end, midSolveAt)
		}
		if err := postBatch(client, base, trace[sent:end]); err != nil {
			restart()
			continue
		}
		sent = end
	}
	body, err := postSolve(client, base)
	if err != nil {
		restart()
		if body, err = postSolve(client, base); err != nil {
			t.Fatalf("final solve after restart: %v", err)
		}
	}
	child.terminate(t)
	child = nil
	return canonicalSolve(t, body), restarts
}

// TestAdvisordCrashRecovery is the crash-restart equivalence gate: for
// every seeded kill point — mid-WAL-append (a real torn batch frame, none
// of whose statements may survive), before the fsync, at a segment
// rotation, and at each stage of the atomic snapshot write — a
// SIGKILLed-and-recovered advisord must serve a final recommendation
// byte-identical (modulo timestamps) to an uninterrupted run over the
// same trace.
func TestAdvisordCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash harness; skipped with -short")
	}
	ref, refRestarts := runScenario(t, "")
	if refRestarts != 0 {
		t.Fatalf("reference run restarted %d times", refRestarts)
	}
	for _, cp := range []string{
		"wal.append.mid:4",     // torn batch frame during ingest, before the mid solve
		"wal.append.presync:5", // batch frame written, fsync pending
		"wal.rotate:2",         // at the second segment rotation
		"wal.append.mid:8",     // torn frame of the short batch right before the mid solve
		"wal.append.mid:13",    // torn batch frame after the mid solve's snapshot
		"snapshot.tmp:1",       // mid snapshot temp write (solve published, not durable)
		"snapshot.rename:1",    // temp durable, rename pending
		"snapshot.post:1",      // snapshot fully durable, response lost
	} {
		t.Run(cp, func(t *testing.T) {
			got, restarts := runScenario(t, cp)
			if restarts == 0 {
				t.Fatalf("crash point %s never fired: the scenario tested nothing", cp)
			}
			if !bytes.Equal(got, ref) {
				dir := os.Getenv("ADVISORD_CRASH_ARTIFACTS")
				if dir == "" {
					dir = t.TempDir()
				}
				_ = os.MkdirAll(dir, 0o755)
				refPath := filepath.Join(dir, "reference.json")
				gotPath := filepath.Join(dir, fmt.Sprintf("recovered-%s.json", sanitize(cp)))
				_ = os.WriteFile(refPath, ref, 0o644)
				_ = os.WriteFile(gotPath, got, 0o644)
				t.Fatalf("recovered recommendation diverges from uninterrupted run (artifacts: %s, %s)\nref: %s\ngot: %s",
					refPath, gotPath, ref, got)
			}
		})
	}
}

func sanitize(s string) string {
	out := []byte(s)
	for i, b := range out {
		if b == ':' || b == '/' || b == '.' {
			out[i] = '_'
		}
	}
	return string(out)
}
