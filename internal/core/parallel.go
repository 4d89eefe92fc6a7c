package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is a panic recovered from a solver worker (or from a rung
// of the resilient supervisor), converted into an error so one failing
// cost-model evaluation cannot crash the whole process. Value is the
// recovered panic value; Stack is the stack of the goroutine that
// panicked, captured at recovery time.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("core: recovered panic: %v", e.Value)
}

// recoverPanic converts a recovered panic value into a *PanicError with
// the current goroutine's stack attached.
func recoverPanic(r any) *PanicError {
	return &PanicError{Value: r, Stack: debug.Stack()}
}

// ParallelFor runs fn(i) for every i in [0, n), spreading the calls over
// at most `workers` goroutines. Work is handed out through an atomic
// counter so unevenly-priced items (what-if EXEC calls vary wildly by
// stage) balance across workers. With workers <= 1 — or a single item —
// it degenerates to a plain loop, so single-core runs pay no goroutine
// overhead and remain exactly as schedulable as before.
//
// Determinism: fn must write only to slots owned by its index (e.g.
// row i of a matrix). Under that discipline the output is bit-identical
// to the serial loop regardless of scheduling, because each cell is
// computed by the same arithmetic either way.
//
// Cancellation: the loop checks ctx between items (on both the serial
// and the parallel path), so a cancelled or expired context stops the
// work after at most one in-flight fn per worker. The cancellation
// cause (context.Cause) is returned; partial results must be discarded
// by the caller.
//
// A panic in any fn is recovered and returned as a *PanicError carrying
// the panicking goroutine's stack; the remaining workers stop at their
// next item. A panic error takes precedence over a concurrent
// cancellation so the root cause is not masked.
func ParallelFor(ctx context.Context, workers, n int, fn func(i int)) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var perr *PanicError
		call := func(i int) {
			defer func() {
				if r := recover(); r != nil {
					perr = recoverPanic(r)
				}
			}()
			fn(i)
		}
		for i := 0; i < n; i++ {
			if err := context.Cause(ctx); err != nil {
				return err
			}
			call(i)
			if perr != nil {
				return perr
			}
		}
		return context.Cause(ctx)
	}
	var (
		wg        sync.WaitGroup
		next      atomic.Int64
		panicOnce sync.Once
		panicked  atomic.Pointer[PanicError]
		abort     atomic.Bool
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					pe := recoverPanic(r)
					panicOnce.Do(func() { panicked.Store(pe) })
					abort.Store(true)
				}
			}()
			for !abort.Load() {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if pe := panicked.Load(); pe != nil {
		return pe
	}
	return context.Cause(ctx)
}

// stageCrew runs a stage loop on several workers at once: the calling
// goroutine is worker 0, and helper goroutines, started once for the
// whole loop, are the others — where ParallelFor would start and join
// its workers at every stage. Workers hand work to one another through
// stage counters they publish and await: no goroutine start, lock or
// channel per stage.
type stageCrew struct {
	stop     atomic.Bool
	panicked atomic.Pointer[PanicError]
}

// crewSpins is how many times await re-reads a counter before it yields
// its processor between reads.
const crewSpins = 256

// crewSize is how many workers a stage loop over units independent
// pieces of work per stage gets: the problem's parallelism, capped by
// the pieces and by the runtime's processors — a worker awaiting
// another spins, so two must never share a processor for long.
func crewSize(parallelism, units int) int {
	return max(1, min(Workers(parallelism), units, runtime.GOMAXPROCS(0)))
}

// run calls step(w, i) for every stage i in [from, to) on every worker
// w in [0, n), each worker in stage order. The context is checked before
// each of worker 0's stages. A cancellation, a step returning false or a
// panic stops every worker at its next await or stage, and run returns
// once every helper has exited: the cancellation cause, or a helper's
// panic as a *PanicError (the ParallelFor contract); a panic on worker 0
// propagates. With n = 1 it is a plain loop. A crew may run several
// loops one after another, each over later stages than the last.
func (c *stageCrew) run(ctx context.Context, from, to, n int, step func(w, i int) bool) (err error) {
	c.stop.Store(false)
	var helpers sync.WaitGroup
	for w := 1; w < n; w++ {
		helpers.Add(1)
		go func() {
			defer helpers.Done()
			defer func() {
				if r := recover(); r != nil {
					c.panicked.CompareAndSwap(nil, recoverPanic(r))
					c.stop.Store(true)
				}
			}()
			for i := from; i < to && !c.stop.Load(); i++ {
				if !step(w, i) {
					return
				}
			}
		}()
	}
	completed := false
	defer func() {
		// Stop only a loop cut short: at the end, helpers may still be
		// awaiting one another's last stage.
		if !completed {
			c.stop.Store(true)
		}
		helpers.Wait()
		if pe := c.panicked.Load(); pe != nil {
			err = pe
		}
	}()
	for i := from; i < to; i++ {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		if !step(0, i) {
			return nil // a helper panicked (the deferred join returns it), or the step ended the loop
		}
	}
	completed = true
	return nil
}

// await waits until the counter reaches stage i: it spins crewSpins
// reads, then yields its processor between reads. It returns false if
// the crew stops first.
func (c *stageCrew) await(ctr *atomic.Int64, i int) bool {
	for spins := 0; ctr.Load() < int64(i); spins++ {
		if c.stop.Load() {
			return false
		}
		if spins >= crewSpins {
			runtime.Gosched()
		}
	}
	return true
}

// Workers resolves a parallelism degree as Problem.Parallelism reads it:
// a positive value wins, otherwise every available CPU.
func Workers(parallelism int) int {
	if parallelism > 0 {
		return parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// workers resolves the problem's parallelism degree.
func (p *Problem) workers() int { return Workers(p.Parallelism) }

// ctxErr is the solvers' cooperative cancellation check: nil while the
// context is live, the cancellation cause (context.Cause — the deadline
// error, an explicit cancel cause such as ErrWhatIfBudget, or plain
// context.Canceled) once it is done.
func ctxErr(ctx context.Context) error {
	return context.Cause(ctx)
}
