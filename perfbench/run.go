package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"lbsq"
)

// setupRepeats is how many times a run sets the system up; setup_s is
// the median, and the last set-up serves the measured traffic.
const setupRepeats = 5

// phases splits a run of the given length: a short warm-up, the
// open-loop phase and the closed-loop phase. The closed loop gets most
// of the time because the bounded metrics come from it (see endToEnd).
// A traced run replaces the closed loop with the layer replay.
func phases(seconds int, trace bool) (warm, open, closed time.Duration) {
	total := time.Duration(seconds) * time.Second
	warm = total / 10
	if trace {
		return warm, total * 4 / 10, 0
	}
	return warm, total * 3 / 10, total * 6 / 10
}

// outcome is everything one run measured.
type outcome struct {
	w       *workload
	seed    int64
	seconds int
	trace   bool
	in      *inputs
	setups  []float64
	heapMB  float64
	open    []sample
	closed  []sample
	closedD time.Duration
	// closedCPU is the process CPU time at each closed-loop window
	// boundary; the steal shares say how much CPU the host withheld in
	// each phase.
	closedCPU              []time.Duration
	openSteal, closedSteal float64
	r                      *runner
	checked                int
	oracle                 error
	m0, m1                 metricSnap
	mem0                   runtime.MemStats
	mem1                   runtime.MemStats
	replay                 *replayResult
	phaseSecs              map[string]float64
	warmOps                int
	provOpts               lbsq.Options
}

func benchDir() string {
	if d := os.Getenv("LBSQ_BENCH_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// run executes one workload end to end: generate, set up (several
// times), warm up, open loop, closed loop (or the traced replay),
// oracle, and for a durable workload the recovery check.
func run(w *workload, seed int64, seconds int, trace bool) (*outcome, error) {
	workers := runtime.NumCPU()
	warm, open, closed := phases(seconds, trace)
	in := generate(w, seed, warm, open)
	out := &outcome{w: w, seed: seed, seconds: seconds, trace: trace, in: in, warmOps: len(in.warm)}
	dataDir := filepath.Join(benchDir(), "data", fmt.Sprintf("%s-%d-%d", w.Name, seed, os.Getpid()))
	defer os.RemoveAll(dataDir)
	out.provOpts = w.options(dataDir)

	var e *env
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		env, d, err := setup(w, in, dataDir, workers)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		out.setups = append(out.setups, d.Seconds())
		if i < setupRepeats-1 {
			if err := env.close(); err != nil {
				return nil, fmt.Errorf("teardown: %w", err)
			}
			continue
		}
		e = env
	}
	r := &runner{e: e, sampleEvery: 1 << 62}
	r.attempted.Add(int64(len(in.sessions)))
	out.r = r
	out.phaseSecs = map[string]float64{}
	last := time.Now()
	mark := func(name string) {
		out.phaseSecs[name] = time.Since(last).Seconds()
		last = time.Now()
	}
	defer mark("teardown")

	r.openLoop(in.warm, workers)
	mark("warmup")
	r.sampleEvery = 16
	runtime.ReadMemStats(&out.mem0)
	out.m0 = snapshot(e.db)
	st0 := readSteal()
	out.open = r.openLoop(in.open, workers)
	out.openSteal = readSteal().since(st0)
	out.m1 = snapshot(e.db)
	runtime.ReadMemStats(&out.mem1)
	mark("open")
	// Check the open loop's answers now and drop them, so the heap
	// measured next holds the warmed-up system and the inputs only.
	out.checked, out.oracle = verify(in, r, e.db)
	r.checks = nil
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	out.heapMB = float64(mem.HeapInuse) / (1 << 20)
	mark("oracle_open")
	if trace {
		rep, err := replay(w, in, out, dataDir)
		if err != nil {
			e.close()
			return nil, fmt.Errorf("traced replay: %w", err)
		}
		out.replay = rep
	} else {
		// The closed loop runs several times the open loop's operations;
		// a sparser sample keeps the oracle's brute force short.
		r.sampleEvery = 64
		st0 := readSteal()
		out.closed, out.closedD, out.closedCPU = r.closedLoop(in.gen, closed, workers)
		out.closedSteal = readSteal().since(st0)
	}
	mark("closed_or_replay")

	n, err := verify(in, r, e.db)
	out.checked += n
	if out.oracle == nil {
		out.oracle = err
	}
	mark("oracle_closed")
	if err := e.close(); err != nil {
		return nil, fmt.Errorf("teardown: %w", err)
	}
	if out.oracle == nil && w.Durable {
		if err := verifyRecovery(w, in, r, dataDir); err != nil {
			out.oracle = fmt.Errorf("recovery: %w", err)
		}
	}
	mark("recovery")
	return out, nil
}

// lateness summarizes how far the open-loop generator fell behind its
// schedule: its p99 send lateness, and the backlog it ended with
// (median lateness of the last tenth of the schedule).
func (o *outcome) lateness() (p99, backlog float64) {
	var all, tail []float64
	for i, s := range o.open {
		v := ms(s.late)
		all = append(all, v)
		if i >= len(o.open)*9/10 {
			tail = append(tail, v)
		}
	}
	return quantile(sortedCopy(all), 0.99), median(tail)
}

// maxBacklog is the median lateness (ms) of the schedule's last tenth
// beyond which the generator counts as fallen behind: a backlog that
// grew over the phase.
const maxBacklog = 1.0

// Latency limits of the open-loop phase.
func limitFor(k opKind) time.Duration {
	if k.isWrite() || k == kindBatch {
		return writeLimit
	}
	return readLimit
}

// flags lists why the open-loop phase is not a valid measurement: a
// class whose p99 misses its limit, or a generator that fell behind.
func (o *outcome) flags() []string {
	var out []string
	for k := opKind(0); k < numKinds; k++ {
		lat := latencies(o.open, ofKind(k))
		if len(lat) == 0 {
			continue
		}
		if p := quantile(lat, 0.99); p > ms(limitFor(k)) {
			out = append(out, fmt.Sprintf("%s p99 %.2f ms over the %v limit", k, p, limitFor(k)))
		}
	}
	if p99, backlog := o.lateness(); backlog > maxBacklog {
		out = append(out, fmt.Sprintf("generator behind schedule: final backlog %.2f ms (p99 lateness %.2f ms)", backlog, p99))
	}
	return out
}

// named returns the 15 end-to-end metrics every run prints (see
// perfbench/README.md). A workload without that traffic reports NaN.
func (o *outcome) named() map[string]metricValue {
	m := map[string]metricValue{}
	put := func(name, unit string, v float64, n int) { m[name] = metricValue{v, unit, n} }
	put("setup_s", "s", median(o.setups), len(o.setups))
	for _, c := range []struct {
		name string
		keep func(sample) bool
	}{
		{"nn", ofKind(kindNN)}, {"window", ofKind(kindWindow)}, {"move", ofKind(kindMove)},
		{"batch", ofKind(kindBatch)}, {"write", isWrite},
	} {
		lat := latencies(o.open, c.keep)
		put(c.name+"_p50_ms", "ms", quantile(lat, 0.5), len(lat))
		put(c.name+"_p99_ms", "ms", quantile(lat, 0.99), len(lat))
	}
	if o.closedD > 0 {
		put("peak_ops_s", "ops/s", throughput(o.closed, o.closedD), len(o.closed))
	} else {
		put("peak_ops_s", "ops/s", math.NaN(), 0)
	}
	moves, bytes := 0, 0
	for _, s := range o.open {
		if s.kind == kindMove {
			moves++
			bytes += s.n
		}
	}
	put("bytes_per_update", "B", ratio(float64(bytes), float64(moves)), moves)
	att := o.r.attempted.Load()
	put("failed_frac", "ratio", ratio(float64(o.r.failed.Load()), float64(att)), int(att))
	put("heap_mb", "MiB", o.heapMB, 1)
	return m
}

// endToEnd returns the bounded metrics of BENCHMARK.json; every
// workload produces all of them. They are the figures that repeat on a
// shared 2-vCPU host: the host deschedules the open loop's idle CPUs
// and wakes them late, which moves its latencies by 40–90 % between
// runs, and the closed loop's wall-clock throughput follows the host's
// load and disk (up to 30 % on churn). The named metrics report those
// figures without a bound (see perfbench/README.md).
func (o *outcome) endToEnd() map[string]metricValue {
	named := o.named()
	return map[string]metricValue{
		"setup_s":       named["setup_s"],
		"cpu_us_per_op": {cpuPerOp(o.closed, o.closedCPU), "us", len(o.closed)},
		"heap_mb":       named["heap_mb"],
	}
}

// throughput returns the median over the closed loop's windows of its
// completion rate, so a stall in one window does not move the figure.
func throughput(ss []sample, d time.Duration) float64 {
	return median(perWindow(ss, int(d/window))) / window.Seconds()
}

// cpuPerOp returns the median over the closed loop's windows of the
// process CPU time (µs) per completed operation: the CPU the server
// and the load generator together spend on one operation. Interference
// from other tenants of the host comes in bursts; the median keeps a
// burst confined to a few windows from moving the figure.
func cpuPerOp(ss []sample, cpu []time.Duration) float64 {
	if len(cpu) < 2 {
		return math.NaN()
	}
	counts := perWindow(ss, len(cpu)-1)
	var per []float64
	for i, n := range counts {
		if n > 0 {
			per = append(per, us(cpu[i+1]-cpu[i])/n)
		}
	}
	return median(per)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"samples"`
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}

// summary prints the human-readable view of a run.
func (o *outcome) summary(metrics map[string]metricValue) string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload %s seed %d: %d open-loop ops at %.0f/s offered, %d oracle checks\n",
		o.w.Name, o.seed, len(o.open), o.w.Rate, o.checked)
	for _, k := range sortedKeys(metrics) {
		v := metrics[k]
		val := "n/a (no such traffic)"
		if !math.IsNaN(v.Value) {
			val = fmt.Sprintf("%.4f %s", v.Value, v.Unit)
		}
		fmt.Fprintf(&b, "  %-36s %-26s n=%d\n", k, val, v.N)
	}
	for k := opKind(0); k < numKinds; k++ {
		if lat := latencies(o.closed, ofKind(k)); len(lat) > 0 {
			fmt.Fprintf(&b, "  closed-loop %-8s p50 %.3f ms  p99 %.3f ms  n=%d\n", k, quantile(lat, 0.5), quantile(lat, 0.99), len(lat))
		}
	}
	for _, f := range o.flags() {
		fmt.Fprintf(&b, "  FLAG: %s\n", f)
	}
	return b.String()
}
