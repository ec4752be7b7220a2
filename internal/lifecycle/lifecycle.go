// Package lifecycle provides the process-level robustness seam shared
// by the three cmds: a root context wired to SIGINT/SIGTERM and an
// optional deadline, plus a spill-on-signal hook for tools whose only
// interruption response is persisting their caches before exit.
//
// The division of labor: long-running library entry points honor
// context cancellation (internal/runctrl's typed errors); this package
// owns how a *process* produces that context and what it does when the
// operating system, rather than the library, ends the run.
package lifecycle

import (
	"context"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// ClampDeadline normalizes a -deadline flag value: zero or negative
// durations mean "no deadline" (mirroring evo's clamp-at-the-seam
// convention for out-of-range knobs), anything positive is kept.
func ClampDeadline(d time.Duration) (time.Duration, bool) {
	if d <= 0 {
		return 0, false
	}
	return d, true
}

// SignalContext returns a context that is canceled on SIGINT/SIGTERM
// and, if deadline is positive, expires after it (so library code
// returns runctrl.ErrCanceled or ErrDeadline respectively). stop
// releases the signal registration; a second signal after the first
// kills the process through Go's default handling, so a hung cleanup
// can still be interrupted from the keyboard.
func SignalContext(parent context.Context, deadline time.Duration) (ctx context.Context, stop context.CancelFunc) {
	ctx, sigStop := signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
	if d, ok := ClampDeadline(deadline); ok {
		var timeStop context.CancelFunc
		ctx, timeStop = context.WithTimeout(ctx, d)
		return ctx, func() { timeStop(); sigStop() }
	}
	return ctx, sigStop
}

// OnSignalSpill runs spill when SIGINT/SIGTERM arrives and then exits
// with the conventional 128+signal status. It is the whole interruption
// story for tools with no resumable in-flight state (pmevo-sim): the
// caches they have warmed are persisted and the process ends. Returns a stop
// function that deregisters the handler (call it once the process
// reaches its normal spill point). Tools with resumable state
// (pmevo-infer) use SignalContext instead and let cancellation
// propagate.
//
//pmevo:allow ctxflow -- process-lifetime signal watcher: the returned stop() is its cancellation scope; a ctx would duplicate it
func OnSignalSpill(spill func()) (stop func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case sig := <-ch:
			if spill != nil {
				spill()
			}
			code := 128 + int(syscall.SIGTERM)
			if s, ok := sig.(syscall.Signal); ok {
				code = 128 + int(s)
			}
			os.Exit(code)
		case <-done:
		}
	}()
	return func() {
		signal.Stop(ch)
		close(done)
	}
}
