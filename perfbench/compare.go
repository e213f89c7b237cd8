package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the compare mode judges by.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadResults reads every untraced result file of a directory, by
// workload and seed.
func loadResults(dir string) (map[string]map[int64]*fullResult, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*-trace0.json"))
	if err != nil {
		return nil, err
	}
	out := map[string]map[int64]*fullResult{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r fullResult
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[int64]*fullResult{}
		}
		out[r.Workload][r.Seed] = &r
	}
	return out, nil
}

// quartiles returns Python's statistics.quantiles(xs, n=4) (the
// default exclusive method), so the numbers match the acceptance check.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := sortedCopy(xs)
	switch len(d) {
	case 0:
		return
	case 1:
		return d[0], d[0], d[0]
	}
	ld, m, n := len(d), len(d)+1, 4
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / float64(n)
	}
	return q[0], q[1], q[2]
}

// compareDirs prints, for each workload and end-to-end metric, both
// sides' medians and quartiles, how many seed-paired runs the second
// side won, and a verdict against the bound in BENCHMARK.json.
func compareDirs(a, b string) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("compare reads the bounds from BENCHMARK.json in the working directory: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return err
	}
	ra, err := loadResults(a)
	if err != nil {
		return err
	}
	rb, err := loadResults(b)
	if err != nil {
		return err
	}
	bounded := map[string]bool{}
	for _, mt := range spec.EndToEnd {
		bounded[mt.Name] = true
	}
	fmt.Printf("A = %s, B = %s\n", a, b)
	for _, w := range spec.Workloads {
		fmt.Printf("\n%s (runs: A %d, B %d)\n", w.Name, len(ra[w.Name]), len(rb[w.Name]))
		fmt.Printf("  %-16s %-30s %-30s %8s %7s %6s  %s\n", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "B wins", "bound", "verdict")
		for _, mt := range spec.EndToEnd {
			va, vb := values(ra[w.Name], mt.Name), values(rb[w.Name], mt.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("  %-16s missing results\n", mt.Name)
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			worse := (b2 - a2) / a2
			if mt.Better == "higher" {
				worse = -worse
			}
			won, pairs := pairsWon(ra[w.Name], rb[w.Name], mt.Name, mt.Better)
			verdict := "no worse"
			switch spread := (a3 - a1) / a2; {
			case worse > mt.Bound:
				verdict = "REGRESSION"
			case spread > mt.Bound:
				verdict = "unresolved (A's spread exceeds the bound)"
			case -worse > spread && pairs > 0 && won*10 >= pairs*9:
				verdict = "better"
			}
			fmt.Printf("  %-16s %-30s %-30s %+7.1f%% %3d/%-3d %5.0f%%  %s\n", mt.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", a2, a1, a3), fmt.Sprintf("%.4g [%.4g, %.4g]", b2, b1, b3),
				100*(b2-a2)/a2, won, pairs, 100*mt.Bound, verdict)
		}
		// The other named metrics carry no bound: medians and quartiles only.
		for _, name := range namedMetrics(ra[w.Name], rb[w.Name]) {
			if bounded[name] {
				continue
			}
			va, vb := namedValues(ra[w.Name], name), namedValues(rb[w.Name], name)
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			fmt.Printf("  %-16s %-30s %-30s %+7.1f%%  (unbounded)\n", name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", a2, a1, a3), fmt.Sprintf("%.4g [%.4g, %.4g]", b2, b1, b3),
				100*(b2-a2)/a2)
		}
	}
	return nil
}

func values(runs map[int64]*fullResult, metric string) []float64 {
	var out []float64
	for _, seed := range seeds(runs) {
		if v, ok := runs[seed].Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func namedValues(runs map[int64]*fullResult, metric string) []float64 {
	var out []float64
	for _, seed := range seeds(runs) {
		if v, ok := runs[seed].Named[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// namedMetrics lists the named metrics both sides report.
func namedMetrics(a, b map[int64]*fullResult) []string {
	seen := map[string]int{}
	for _, side := range []map[int64]*fullResult{a, b} {
		names := map[string]bool{}
		for _, r := range side {
			for k := range r.Named {
				names[k] = true
			}
		}
		for k := range names {
			seen[k]++
		}
	}
	var out []string
	for k, n := range seen {
		if n == 2 {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func seeds(runs map[int64]*fullResult) []int64 {
	var out []int64
	for s := range runs {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// pairsWon counts the seeds on which B beat A (ties count for neither).
func pairsWon(a, b map[int64]*fullResult, metric, better string) (won, pairs int) {
	for seed, ra := range a {
		rb, ok := b[seed]
		if !ok {
			continue
		}
		va, oka := ra.Metrics[metric]
		vb, okb := rb.Metrics[metric]
		if !oka || !okb {
			continue
		}
		pairs++
		if (strings.EqualFold(better, "higher") && vb.Value > va.Value) || (!strings.EqualFold(better, "higher") && vb.Value < va.Value) {
			won++
		}
	}
	return won, pairs
}
