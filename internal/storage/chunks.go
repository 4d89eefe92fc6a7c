package storage

import (
	"runtime"
	"sync/atomic"
)

// A full scan runs as chunks of ScanChunk pages (heap pages, or B+-tree
// leaves), claimed in order from one counter by the caller and by at
// most one helper goroutine. The constants rest on BenchmarkHeapScan*,
// BenchmarkIndexOnlyScan* (internal/engine) at -cpu 1,2 over their
// table-size axis: a chunk of 16 pages is ≈ 50 µs of filtering, long
// enough that a claim, a yield and the per-chunk charge vanish beside
// it, short enough that the last chunk leaves a core idle briefly; below
// minSplitChunks chunks (≈ 12k rows of the paper's table) a scan takes
// under 200 µs and starting a goroutine buys nothing.
const (
	// ScanChunk is the number of pages (or leaves) in one chunk.
	ScanChunk = 16
	// minSplitChunks is the smallest number of chunks that is split.
	minSplitChunks = 4
)

// Chunks returns the number of chunks a scan over n pages has.
func Chunks(n int) int { return (n + ScanChunk - 1) / ScanChunk }

// runChunks calls run(c) for every chunk c in [0, n) and returns how many
// chunks count: those up to and including the first for which run
// returned false (the chunk that ended the scan), or n.
//
// Chunks are claimed in order. With at least minSplitChunks chunks and
// GOMAXPROCS ≥ 2, one helper goroutine claims chunks beside the caller
// and yields after each one, so it only borrows a core that nothing else
// wants; otherwise runChunks is a plain loop on the caller. run must
// therefore be safe to call for different chunks at once, each writing
// only its own chunk's results. A chunk past the one that ended the scan
// may still run; its results are not counted. The caller never waits
// for a helper that has not claimed a chunk: at the end it waits only
// for the chunk the helper is running, and re-raises a panic from it.
func runChunks(n int, run func(c int) bool) int {
	if n < minSplitChunks || runtime.GOMAXPROCS(0) < 2 {
		for c := 0; c < n; c++ {
			if !run(c) {
				return c + 1
			}
		}
		return n
	}
	// done holds a token for every chunk the helper could claim, so the
	// helper never blocks on it.
	r := &chunkRun{n: n, run: run, done: make(chan struct{}, n)}
	r.stop.Store(int64(n))
	go r.help()
	return r.lead()
}

// ScanParts runs a chunked scan of n chunks through runChunks. scan is
// the structure's per-chunk loop: it calls fn for chunk c's items in
// order and returns the pages it visited and whether fn stopped it.
// Each chunk's fn comes from newFn, called with a pointer to that
// chunk's result on the goroutine that runs the chunk. ScanParts returns
// the results of the chunks that count, in order, and the pages they
// visited: what the serial scan would visit.
func ScanParts[T, F any](n int, newFn func(part *T) F, scan func(c int, fn F) (pages int64, stopped bool)) ([]T, int64) {
	parts := make([]T, n)
	pages := make([]int64, n)
	counted := runChunks(n, func(c int) bool {
		var stopped bool
		pages[c], stopped = scan(c, newFn(&parts[c]))
		return !stopped
	})
	var visited int64
	for _, p := range pages[:counted] {
		visited += p
	}
	return parts[:counted], visited
}

// chunkRun is one split scan's shared state: a claim counter, the first
// chunk that ended the scan, and the helper's hand-back.
type chunkRun struct {
	n    int
	run  func(c int) bool
	next atomic.Int64 // the next chunk to claim
	stop atomic.Int64 // the lowest chunk that ended the scan; n while none has
	// done receives one token per chunk the helper claimed, once it has
	// finished (or skipped) it; panicked is written before its token.
	done     chan struct{}
	panicked any
}

// claim returns the next unclaimed chunk, or -1 when none is left.
func (r *chunkRun) claim() int {
	if c := int(r.next.Add(1) - 1); c < r.n {
		return c
	}
	return -1
}

// exec runs chunk c unless an earlier chunk has ended the scan, and
// reports whether the claimant should go on.
func (r *chunkRun) exec(c int) bool {
	if int64(c) > r.stop.Load() {
		return false
	}
	if !r.run(c) {
		r.stopAt(c)
		return false
	}
	return true
}

// stopAt lowers stop to c.
func (r *chunkRun) stopAt(c int) {
	for s := r.stop.Load(); int64(c) < s && !r.stop.CompareAndSwap(s, int64(c)); s = r.stop.Load() {
	}
}

// help is the helper goroutine's loop.
func (r *chunkRun) help() {
	for {
		c := r.claim()
		if c < 0 {
			return
		}
		ok := r.helpChunk(c)
		r.done <- struct{}{}
		if !ok {
			return
		}
		runtime.Gosched()
	}
}

// helpChunk runs chunk c on the helper; a panic ends the scan at c and is
// kept for the caller.
func (r *chunkRun) helpChunk(c int) (ok bool) {
	defer func() {
		if p := recover(); p != nil {
			r.panicked = p
			r.stopAt(c)
		}
	}()
	return r.exec(c)
}

// lead is the caller's loop. Its deferred tail runs whether the loop ends
// or the caller's own chunk panics: it closes the counter, so a helper
// that has not claimed a chunk yet never will, and takes back one token
// per chunk the helper did claim.
func (r *chunkRun) lead() (counted int) {
	mine := 0
	defer func() {
		claimed := min(int(r.next.Swap(int64(r.n))), r.n)
		for range claimed - mine {
			<-r.done
		}
		if r.panicked != nil {
			panic(r.panicked)
		}
		counted = int(min(r.stop.Load()+1, int64(r.n)))
	}()
	for {
		c := r.claim()
		if c < 0 {
			return
		}
		mine++
		if !r.exec(c) {
			return
		}
	}
}
