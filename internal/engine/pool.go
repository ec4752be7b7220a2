package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"pmevo/internal/runctrl"
)

// Workers resolves a worker-count option: values <= 0 mean GOMAXPROCS.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ForEachWorkerCtx invokes fn(worker, i) at most once for every i in
// [0, n), distributing indices dynamically over up to `workers`
// goroutines (<= 0: GOMAXPROCS). The worker argument identifies the
// executing goroutine with a dense index in [0, workers), so callers can
// keep per-worker scratch state (e.g. a reusable throughput.Evaluator)
// without locking. Dynamic distribution keeps the pool balanced when
// task costs vary, as they do for simulations of different experiment
// lengths.
//
// Cancellation is checked before every index claim: once ctx is done,
// no further indices start (in-flight invocations run to completion —
// fn is never abandoned mid-call), every worker goroutine exits, and
// the pool returns the typed interruption error (runctrl.ErrCanceled /
// runctrl.ErrDeadline). A nil error means every index ran. A nil or
// never-canceled ctx costs one channel poll per index.
//
// ForEachWorkerCtx returns after all started invocations have
// completed — it never leaks goroutines, canceled or not. With one
// worker (or n <= 1) everything runs on the calling goroutine.
func ForEachWorkerCtx(ctx context.Context, n, workers int, fn func(worker, i int)) error {
	if n <= 0 {
		return runctrl.Check(ctx)
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := runctrl.Check(ctx); err != nil {
				return err
			}
			fn(0, i)
		}
		return runctrl.Check(ctx)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				if runctrl.Check(ctx) != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
	return runctrl.Check(ctx)
}

// ForEachWorker is ForEachWorkerCtx without a cancellation scope: it
// invokes fn exactly once for every index and returns after all
// invocations have completed.
func ForEachWorker(n, workers int, fn func(worker, i int)) {
	//pmevo:allow ctxflow -- back-compat shim: the pre-PR-8 non-ctx surface; cancelable callers use ForEachWorkerCtx
	ForEachWorkerCtx(context.Background(), n, workers, fn)
}

// ForEachCtx is ForEachWorkerCtx for tasks that need no per-worker
// state.
func ForEachCtx(ctx context.Context, n, workers int, fn func(i int)) error {
	return ForEachWorkerCtx(ctx, n, workers, func(_, i int) { fn(i) })
}

// ForEach is ForEachWorker for tasks that need no per-worker state.
func ForEach(n, workers int, fn func(i int)) {
	ForEachWorker(n, workers, func(_, i int) { fn(i) })
}

// ForEachWorkerErrCtx is ForEachWorkerCtx for fallible tasks: it runs
// all started invocations to completion and returns the error of the
// lowest-indexed failed task; with no task failure it returns the
// cancellation state like ForEachWorkerCtx (task errors take
// precedence — a real failure outranks "we were also interrupted").
func ForEachWorkerErrCtx(ctx context.Context, n, workers int, fn func(worker, i int) error) error {
	var mu sync.Mutex
	firstErr := error(nil)
	firstIdx := n
	ctxErr := ForEachWorkerCtx(ctx, n, workers, func(w, i int) {
		if err := fn(w, i); err != nil {
			mu.Lock()
			if i < firstIdx {
				firstErr, firstIdx = err, i
			}
			mu.Unlock()
		}
	})
	if firstErr != nil {
		return firstErr
	}
	return ctxErr
}

// ForEachWorkerErr is ForEachWorkerErrCtx without a cancellation scope.
func ForEachWorkerErr(n, workers int, fn func(worker, i int) error) error {
	//pmevo:allow ctxflow -- back-compat shim: the pre-PR-8 non-ctx surface; cancelable callers use ForEachWorkerErrCtx
	return ForEachWorkerErrCtx(context.Background(), n, workers, fn)
}

// ForEachErr is ForEachWorkerErr for tasks without per-worker state.
func ForEachErr(n, workers int, fn func(i int) error) error {
	return ForEachWorkerErr(n, workers, func(_, i int) error { return fn(i) })
}
