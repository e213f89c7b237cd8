// Command lbsq-perfbench is the repository's benchmark: it generates a
// workload from a seed, serves an in-process lbsq.DB over loopback
// HTTP, drives it with an open-loop phase (seeded Poisson arrivals,
// latency timed from each request's due time) and a closed-loop phase
// (peak throughput), checks every sampled answer against a brute-force
// oracle, and prints the metrics by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 1 the run replays its inputs through each layer's entry
// point instead of the closed loop and reports per-layer metrics.
//
// Run it through run.sh from the repository root, which builds it:
//
//	bash perfbench/run.sh --workload lookup --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --selftest            # generator determinism
//	bash perfbench/run.sh --smoke               # every workload, briefly, oracle on
//	bash perfbench/run.sh --compare DIR_A DIR_B # medians, quartiles, pairs won
//
// Each run also writes its full result, with provenance, to
// .bench_build/results/<workload>-seed<seed>-trace<t>.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload: lookup | commute | churn | scatter")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 20, "measured length of one run")
		trace    = flag.Int("trace", 0, "1 replays the inputs layer by layer and reports per-layer metrics")
		selftest = flag.Bool("selftest", false, "check that the generator is a function of the seed")
		smoke    = flag.Bool("smoke", false, "run every workload briefly, traced and untraced, with the oracle")
		compare  = flag.Bool("compare", false, "compare two result directories given as arguments")
	)
	flag.Parse()
	var err error
	switch {
	case *selftest:
		err = selfTest()
	case *smoke:
		err = smokeTest()
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result directories")
			break
		}
		err = compareDirs(flag.Arg(0), flag.Arg(1))
	default:
		err = runOne(*name, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbsq-perfbench:", err)
		os.Exit(1)
	}
}

// line is the JSON object the last line of standard output carries.
type line struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]lineValue `json:"metrics"`
}

type lineValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runOne(name string, seed int64, seconds int, trace bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds %d, want ≥ 1", seconds)
	}
	o, err := run(w, seed, seconds, trace)
	if err != nil {
		return err
	}
	metrics := o.endToEnd()
	if trace {
		metrics = o.perLayer()
	}
	res := o.result(metrics)
	if err := saveResult(res, w.Name, seed, trace); err != nil {
		return err
	}
	fmt.Print(o.summary(o.named()))
	if trace {
		fmt.Print(o.summary(metrics))
	}
	if o.oracle != nil {
		fmt.Println("ORACLE FAILED:", o.oracle)
	}
	out := line{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]lineValue{}}
	for k, v := range metrics {
		out.Metrics[k] = lineValue{Value: v.Value, Unit: v.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// fullResult is the saved record of one run.
type fullResult struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Trace      bool                   `json:"trace"`
	Correct    bool                   `json:"correct"`
	Attempted  int64                  `json:"attempted"`
	Failed     int64                  `json:"failed"`
	Oracle     string                 `json:"oracle"`
	Valid      bool                   `json:"valid"`
	Flags      []string               `json:"flags,omitempty"`
	Metrics    map[string]metricValue `json:"metrics"`
	Named      map[string]metricValue `json:"named"`
	Provenance map[string]interface{} `json:"provenance"`
}

func (o *outcome) result(metrics map[string]metricValue) *fullResult {
	att, failed := o.r.attempted.Load(), o.r.failed.Load()
	res := &fullResult{
		Workload: o.w.Name, Seed: o.seed, Trace: o.trace,
		Correct:   o.oracle == nil && failed == 0,
		Attempted: att, Failed: failed,
		Oracle:  fmt.Sprintf("%d sampled answers checked", o.checked),
		Flags:   o.flags(),
		Metrics: clean(metrics), Named: clean(o.named()),
		Provenance: o.provenance(),
	}
	res.Valid = len(res.Flags) == 0
	if o.oracle != nil {
		res.Oracle = o.oracle.Error()
	}
	if e, ok := o.r.firstErr.Load().(string); ok {
		res.Oracle += "; first failed request: " + e
	}
	return res
}

// clean drops NaN values (no such traffic), which JSON cannot carry.
func clean(m map[string]metricValue) map[string]metricValue {
	out := map[string]metricValue{}
	for k, v := range m {
		if !math.IsNaN(v.Value) && !math.IsInf(v.Value, 0) {
			out[k] = v
		}
	}
	return out
}

func saveResult(res *fullResult, name string, seed int64, trace bool) error {
	dir := filepath.Join(benchDir(), "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t := 0
	if trace {
		t = 1
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, t)), b, 0o644)
}

// provenance records what produced a result: source, toolchain,
// machine, dataset, options, offered rates and generator lateness.
func (o *outcome) provenance() map[string]interface{} {
	p99, backlog := o.lateness()
	rates := map[string]float64{}
	for k := opKind(0); k < numKinds; k++ {
		if o.w.Mix[k] > 0 {
			rates[k.String()] = o.w.Rate * o.w.Mix[k] / sumMix(o.w.Mix)
		}
	}
	opts := o.provOpts
	if opts.DataDir != "" {
		opts.DataDir = "(run data directory)"
	}
	return map[string]interface{}{
		"commit":             commit(),
		"source_sha256":      sourceDigest(),
		"seed":               o.seed,
		"input_sha256":       o.in.digest(),
		"go_version":         runtime.Version(),
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"nproc":              runtime.NumCPU(),
		"cpu_model":          cpuModel(),
		"dataset":            o.w.Dataset,
		"dataset_size":       o.w.N,
		"sessions":           o.w.Sessions,
		"options":            opts,
		"offered_ops_s":      o.w.Rate,
		"offered_by_class":   rates,
		"open_loop_ops":      len(o.open),
		"open_loop_classes":  countKinds(o.in.open),
		"warmup_ops":         o.warmOps,
		"lateness_p99_ms":    p99,
		"backlog_ms":         backlog,
		"setup_runs_s":       o.setups,
		"phase_secs":         o.phaseSecs,
		"latency_limit_ms":   map[string]float64{"read": ms(readLimit), "batch_and_write": ms(writeLimit)},
		"closed_loop_secs":   o.closedD.Seconds(),
		"host_steal_open":    o.openSteal,
		"host_steal_closed":  o.closedSteal,
		"closed_loop_client": runtime.NumCPU(),
	}
}

func sumMix(m [numKinds]float64) float64 {
	t := 0.0
	for _, v := range m {
		t += v
	}
	return t
}
