package main

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// conns is the number of keep-alive connections the generator holds in
// total; every phase sends over these and no others.
const conns = 2

// sample is one completed request as the generator saw it.
type sample struct {
	req     *request
	latency time.Duration // open phase: from the due time; closed phase: from the send
	late    time.Duration // open phase: how long after it could have gone out the generator sent it
	ok      bool
}

// doFunc sends one request on connection conn and reports whether the
// answer was acceptable. seq numbers the phase's requests in send order.
type doFunc func(ctx context.Context, conn int, seq int, r *request) bool

// The Go runtime sleeps in whole milliseconds when every P is idle (its
// netpoller takes a millisecond timeout), which is the whole interval of a
// 1000 req/s schedule. So a sender uses a runtime timer only up to
// coarseWindow before the due time, sleeps the rest in the kernel
// (nanosleep is accurate to the timer slack, ~50 us), and polls the clock
// for the last spinWindow.
const (
	coarseWindow = 2 * time.Millisecond
	spinWindow   = 200 * time.Microsecond
)

func waitUntil(ctx context.Context, t time.Time) {
	if d := time.Until(t) - coarseWindow; d > 0 {
		timer := time.NewTimer(d)
		select {
		case <-ctx.Done():
			timer.Stop()
			return
		case <-timer.C:
		}
	}
	if d := time.Until(t) - spinWindow; d > 0 {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // an early return (EINTR) only lengthens the polling below
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// runOpen sends reqs on their schedule (due offsets from the moment it is
// called) over the shared connections: a connection that becomes free takes
// the next unsent request and sends it when it is due, or at once if that
// time has passed. Latency is counted from the due time, so a stall of the
// server is charged to every request that had to wait behind it. late is
// the generator's own lateness: the gap between the moment a request could
// go out (it was due and a connection was free) and the moment it did. If
// ctx is cancelled the samples of unsent requests are zero; the caller
// checks ctx before using them.
func runOpen(ctx context.Context, reqs []request, do doFunc) []sample {
	out := make([]sample, len(reqs))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				r := &reqs[i]
				due := start.Add(r.due)
				free := time.Now()
				waitUntil(ctx, due)
				sent := time.Now()
				ready := due
				if free.After(ready) {
					ready = free
				}
				ok := do(ctx, c, i, r)
				out[i] = sample{req: r, latency: time.Since(due), late: sent.Sub(ready), ok: ok}
			}
		}(c)
	}
	wg.Wait()
	return out
}

// runClosed has every connection send its next request as soon as the
// previous one completes, for d. It returns the samples per connection and
// the time each connection actually ran (a connection whose supply runs out
// stops early).
func runClosed(ctx context.Context, d time.Duration, next func(conn int) (request, bool), do doFunc) (out [conns][]sample, ran [conns]time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for seq := 0; ctx.Err() == nil && time.Now().Before(deadline); seq++ {
				r, more := next(c)
				if !more {
					break
				}
				t0 := time.Now()
				ok := do(ctx, c, seq, &r)
				out[c] = append(out[c], sample{req: &r, latency: time.Since(t0), ok: ok})
			}
			ran[c] = time.Since(start)
		}(c)
	}
	wg.Wait()
	return out, ran
}
