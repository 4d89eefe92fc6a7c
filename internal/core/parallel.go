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
