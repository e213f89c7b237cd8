package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one timed operation.
type sample struct {
	kind opKind
	t    time.Duration // send order: the due time, or the send time in the closed loop
	lat  time.Duration // open loop: from the due time; closed loop: from the send
	late time.Duration // open loop: how late the generator sent it
	ok   bool
	n    int // response bytes
}

// check is one sampled answer kept for the oracle. version is the
// number of acknowledged writes the answer must reflect.
type check struct {
	o       op
	res     result
	version int
}

// runner drives operations against one env, counting attempts and
// failures in every phase and keeping sampled answers for the oracle.
type runner struct {
	e           *env
	sampleEvery int64
	seq         atomic.Int64

	attempted, failed atomic.Int64
	firstErr          atomic.Value // string

	// Writes in flight and acknowledged, so a sampled read can tell
	// whether it ran while the dataset was quiescent.
	inFlight atomic.Int64
	ackedN   atomic.Int64

	mu     sync.Mutex
	acked  []op
	checks []check

	genMu sync.Mutex
}

// exec sends one operation, accounts for it, and keeps its answer for
// the oracle when it is sampled and ran on a quiescent dataset.
func (r *runner) exec(o *op) result {
	write := o.kind.isWrite()
	if write {
		r.inFlight.Add(1)
	}
	f0, v0 := r.inFlight.Load(), r.ackedN.Load()
	res := r.e.do(o)
	r.attempted.Add(1)
	if res.err != nil {
		r.failed.Add(1)
		r.firstErr.CompareAndSwap(nil, o.kind.String()+": "+res.err.Error())
	}
	if write {
		if res.err == nil {
			r.mu.Lock()
			r.acked = append(r.acked, *o)
			r.ackedN.Add(1)
			r.mu.Unlock()
		}
		r.inFlight.Add(-1)
		return res
	}
	if res.err == nil && r.seq.Add(1)%r.sampleEvery == 0 &&
		f0 == 0 && r.inFlight.Load() == 0 && r.ackedN.Load() == v0 {
		r.mu.Lock()
		r.checks = append(r.checks, check{o: *o, res: res, version: int(v0)})
		r.mu.Unlock()
	}
	return res
}

// openLoop sends the schedule at its due times from `workers` sender
// goroutines. An operation is timed from its due time when every
// sender was still busy at that time (the backlog counts against the
// system), and from its send otherwise: the sender was idle and only
// the timer's wake-up overshoot, up to a millisecond, separates the
// two. lateness records how late each operation was picked up.
func (r *runner) openLoop(ops []op, workers int) []sample {
	start := time.Now()
	var next atomic.Int64
	per := make([][]sample, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]sample, 0, len(ops)/workers+16)
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					break
				}
				o := &ops[i]
				due := start.Add(o.due)
				picked := time.Now()
				if d := due.Sub(picked); d > 0 {
					time.Sleep(d)
				}
				from := time.Now()
				if picked.After(due) {
					from = due
				}
				res := r.exec(o)
				out = append(out, sampleOf(o.kind, res, o.due, time.Since(from), picked.Sub(due)))
			}
			per[w] = out
		}(w)
	}
	wg.Wait()
	return merge(per)
}

// closedLoop runs `workers` clients that each send the next operation
// of the mix as soon as the previous one completes, for d. It returns
// the samples and the time the phase took.
//
// It also returns the process CPU time read at the start of the phase
// and at the end of each following window, for cpuPerOp.
func (r *runner) closedLoop(g *generator, d time.Duration, workers int) ([]sample, time.Duration, []time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	cpu := []time.Duration{cpuTime()}
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(window)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				cpu = append(cpu, cpuTime())
			case <-stop:
				return
			}
		}
	}()
	per := make([][]sample, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var out []sample
			for time.Now().Before(deadline) {
				r.genMu.Lock()
				o := g.next()
				r.genMu.Unlock()
				sent := time.Now()
				res := r.exec(&o)
				out = append(out, sampleOf(o.kind, res, sent.Sub(start), time.Since(sent), 0))
			}
			per[w] = out
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stop)
	<-sampled
	return merge(per), elapsed, cpu
}

// window is the length of the closed loop's measurement windows.
const window = 500 * time.Millisecond

// perWindow counts the operations completed in each window of the
// closed loop.
func perWindow(ss []sample, windows int) []float64 {
	counts := make([]float64, windows)
	for _, s := range ss {
		if i := int((s.t + s.lat) / window); i < windows && s.ok {
			counts[i]++
		}
	}
	return counts
}

func sampleOf(k opKind, res result, t, lat, late time.Duration) sample {
	return sample{kind: k, t: t, lat: lat, late: late, ok: res.err == nil, n: res.bytes}
}

func merge(per [][]sample) []sample {
	var out []sample
	for _, p := range per {
		out = append(out, p...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].t < out[j].t })
	return out
}
