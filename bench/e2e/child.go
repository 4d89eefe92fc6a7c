package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// workDir is the harness's scratch area inside the checkout: the built
// advisord binary and one directory per run for WAL data dirs. It lives
// on the checkout's filesystem, not on a tmpfs, so fsync costs what it
// costs where the repository is.
const workDirName = ".bench_build"

// repoRoot walks up from the working directory to the module root, so
// the harness runs the same from the checkout root (go run) and from
// its own directory (go test).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod above the working directory: run from inside the repository")
		}
		dir = parent
	}
}

// buildAdvisord compiles cmd/advisord into the work directory. It runs
// before any clock starts; an up-to-date binary costs a cache check.
func buildAdvisord(root string) (string, error) {
	bin := filepath.Join(root, workDirName, "advisord")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/advisord")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/advisord: %v\n%s", err, out)
	}
	return bin, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// children tracks every live child so that any exit path — a failed
// check, a signal — can stop them all.
var children struct {
	sync.Mutex
	live map[*child]bool
}

// stopAllChildren terminates every child still running.
func stopAllChildren() {
	children.Lock()
	live := make([]*child, 0, len(children.live))
	for c := range children.live {
		live = append(live, c)
	}
	children.Unlock()
	for _, c := range live {
		c.stop()
	}
}

// child is one running advisord process.
type child struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr bytes.Buffer
	done   chan struct{} // closed when the process has been reaped
	// ingest is the single closed-loop ingest connection; reader is the
	// one extra connection the traced run's poller uses.
	ingest *http.Client
	reader *http.Client
}

// oneConn returns a client that keeps exactly one connection to the
// child.
func oneConn() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   2 * time.Minute,
	}
}

// startChild launches advisord on port with the given extra flags and
// waits until /healthz answers. It refuses a port something already
// listens on; a held data dir is refused by advisord itself (flock),
// which surfaces here with the child's stderr.
func startChild(bin string, port int, rows int64, extra ...string) (*child, error) {
	addr := "127.0.0.1:" + strconv.Itoa(port)
	if conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		conn.Close()
		return nil, fmt.Errorf("port %d is already held", port)
	}
	args := append([]string{"-addr", addr, "-paper-rows", strconv.FormatInt(rows, 10)}, extra...)
	c := &child{
		cmd:    exec.Command(bin, args...),
		base:   "http://" + addr,
		done:   make(chan struct{}),
		ingest: oneConn(),
		reader: oneConn(),
	}
	c.cmd.Stderr = &c.stderr
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	children.Lock()
	if children.live == nil {
		children.live = make(map[*child]bool)
	}
	children.live[c] = true
	children.Unlock()
	go func() {
		_ = c.cmd.Wait() // exit status is reported via stderr on failure paths
		close(c.done)
	}()
	if err := c.waitReady(2 * time.Minute); err != nil {
		c.stop()
		return nil, fmt.Errorf("%v\n--- advisord stderr ---\n%s", err, c.stderr.String())
	}
	return c, nil
}

// waitReady polls /healthz until it answers 200, the child dies, or the
// timeout passes.
func (c *child) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-c.done:
			return errors.New("advisord exited before becoming ready")
		default:
		}
		resp, err := c.ingest.Get(c.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("advisord not ready after %v (last error: %v)", timeout, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop ends the child with SIGTERM and waits for it; a child that
// ignores SIGTERM for ten seconds is killed.
func (c *child) stop() {
	c.signalAndWait(syscall.SIGTERM)
}

// kill ends the child with SIGKILL — the crash the durable workload
// recovers from — and waits until it has been reaped.
func (c *child) kill() {
	c.signalAndWait(syscall.SIGKILL)
}

func (c *child) signalAndWait(sig syscall.Signal) {
	_ = c.cmd.Process.Signal(sig) // fails only when the child is already gone
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
	}
	c.ingest.CloseIdleConnections()
	c.reader.CloseIdleConnections()
	children.Lock()
	delete(children.live, c)
	children.Unlock()
}

// vmHWMMB reads the child's peak resident set from /proc; 0 once the
// process is gone.
func (c *child) vmHWMMB() float64 {
	return vmHWMMB(strconv.Itoa(c.cmd.Process.Pid))
}

// post sends body to path over the ingest connection and returns the
// status and the whole response body.
func (c *child) post(path string, body []byte) (int, []byte, error) {
	resp, err := c.ingest.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// getJSON GETs path over the given client and decodes the body into v.
func (c *child) getJSON(client *http.Client, path string, v any) error {
	resp, err := client.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	return json.Unmarshal(body, v)
}

// The parts of advisord's JSON bodies the harness reads.

type ingestStatement struct {
	SQL   string `json:"sql"`
	Label string `json:"label,omitempty"`
}

type ingestBatch struct {
	Statements []ingestStatement `json:"statements"`
}

type ingestAck struct {
	Ingested int `json:"ingested"`
	Alerts   int `json:"alerts"`
}

type healthz struct {
	Ingested    int64 `json:"ingested"`
	Rejected    int64 `json:"rejected"`
	Shed        int64 `json:"shed"`
	WindowTotal int64 `json:"window_total"`
	DriftAlerts int64 `json:"drift_alerts"`
	Resolves    int64 `json:"resolves"`
	SolveErrors int64 `json:"solve_errors"`
	Durable     *struct {
		WALLastSeq        uint64 `json:"wal_last_seq"`
		RecoveryTruncated int64  `json:"recovery_truncated_bytes"`
	} `json:"durable"`
}

type recBody struct {
	WindowSeq  uint64   `json:"window_seq"`
	Statements int      `json:"statements"`
	Initial    []string `json:"initial"`
	Rung       string   `json:"rung"`
	Degraded   bool     `json:"degraded"`
	Cost       float64  `json:"cost"`
	ExecCost   float64  `json:"exec_cost"`
	TransCost  float64  `json:"trans_cost"`
	Changes    int      `json:"changes"`
	Designs    []struct {
		FromStatement int      `json:"from_statement"`
		Indexes       []string `json:"indexes"`
	} `json:"designs"`
}

type solvesBody struct {
	Solves []struct {
		SolveMillis float64 `json:"solve_millis"`
	} `json:"solves"`
}
