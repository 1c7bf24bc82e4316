package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Sample is one open-loop request. Latency runs from when the request
// was due, not from when a worker got round to sending it, so a stall
// that holds back later requests is charged to them too.
type Sample struct {
	Index   int
	Latency time.Duration // done - due
	Late    time.Duration // sent - due: how far the generator fell behind
	Err     error
	done    bool
}

// OpenLoop is the result of one open-loop run.
type OpenLoop struct {
	Samples []Sample
	// BacklogMax is the largest number of requests that were due but not
	// yet sent, observed whenever a request was sent.
	BacklogMax int
	Wall       time.Duration
}

// RunOpenLoop issues one request per due offset in sched (ascending, from
// the run's start) through at most conns concurrent workers, in due
// order; do performs request i on worker 0 <= worker < conns. Cancelling
// ctx stops the dispatch of further requests; those in flight complete,
// with a context that is not cancelled.
func RunOpenLoop(ctx context.Context, sched []time.Duration, conns int, do func(ctx context.Context, worker, i int) error) OpenLoop {
	conns = max(1, conns)
	samples := make([]Sample, len(sched))
	var next atomic.Int64
	var backlogMax atomic.Int64
	var wg sync.WaitGroup
	reqCtx := context.WithoutCancel(ctx)
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) || ctx.Err() != nil {
					return
				}
				due := start.Add(sched[i])
				if d := time.Until(due); d > 0 {
					t := time.NewTimer(d)
					select {
					case <-t.C:
					case <-ctx.Done():
						t.Stop()
						return
					}
				}
				sent := time.Now()
				elapsed := sent.Sub(start)
				dueNow := sort.Search(len(sched), func(k int) bool { return sched[k] > elapsed })
				for b := int64(dueNow - i - 1); ; {
					cur := backlogMax.Load()
					if b <= cur || backlogMax.CompareAndSwap(cur, b) {
						break
					}
				}
				err := do(reqCtx, w, i)
				samples[i] = Sample{Index: i, Latency: time.Since(due), Late: sent.Sub(due), Err: err, done: true}
			}
		}(w)
	}
	wg.Wait()
	out := OpenLoop{BacklogMax: int(backlogMax.Load()), Wall: time.Since(start)}
	for _, s := range samples {
		if s.done {
			out.Samples = append(out.Samples, s)
		}
	}
	return out
}
