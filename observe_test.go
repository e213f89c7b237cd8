package lbsq

import (
	"context"
	"errors"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestOptionsValidate exercises the Open-time option validation.
func TestOptionsValidate(t *testing.T) {
	items, uni := UniformDataset(100, 1)
	cases := []struct {
		name string
		opts Options
		ok   bool
	}{
		{"zero-values", Options{}, true},
		{"typical", Options{PageSize: 4096, BufferFraction: 0.1, BulkLoadFill: 0.7}, true},
		{"sharded", Options{Shards: 4}, true},
		{"full-buffer", Options{BufferFraction: 1}, true},
		{"full-fill", Options{BulkLoadFill: 1}, true},
		{"negative-page-size", Options{PageSize: -1}, false},
		{"negative-buffer", Options{BufferFraction: -0.1}, false},
		{"buffer-above-one", Options{BufferFraction: 1.5}, false},
		{"negative-fill", Options{BulkLoadFill: -0.5}, false},
		{"fill-above-one", Options{BulkLoadFill: 1.1}, false},
		{"negative-shards", Options{Shards: -2}, false},
		{"negative-workers", Options{ShardWorkers: -1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Open(items, uni, &tc.opts)
			if tc.ok && err != nil {
				t.Fatalf("Open(%+v) = %v, want ok", tc.opts, err)
			}
			if !tc.ok {
				if err == nil {
					t.Fatalf("Open(%+v) succeeded, want error", tc.opts)
				}
				if !strings.Contains(err.Error(), "lbsq:") {
					t.Fatalf("error %q should carry the lbsq: prefix", err)
				}
			}
		})
	}
}

// runAllQueries issues one query of every operation against db,
// failing the test on any error. Returns the number of queries run.
func runAllQueries(t *testing.T, db *DB) int {
	t.Helper()
	q := Pt(0.5, 0.5)
	if _, _, err := db.NN(context.Background(), q, 2); err != nil {
		t.Fatalf("NN: %v", err)
	}
	if _, err := db.KNearest(context.Background(), q, 3); err != nil {
		t.Fatalf("KNearest: %v", err)
	}
	if _, _, err := db.WindowAt(context.Background(), q, 0.05, 0.05); err != nil {
		t.Fatalf("WindowAt: %v", err)
	}
	if _, _, err := db.Range(context.Background(), q, 0.05); err != nil {
		t.Fatalf("Range: %v", err)
	}
	if _, err := db.RouteNN(context.Background(), Pt(0.1, 0.1), Pt(0.9, 0.9)); err != nil {
		t.Fatalf("RouteNN: %v", err)
	}
	if _, err := db.Count(context.Background(), R(0.2, 0.2, 0.8, 0.8)); err != nil {
		t.Fatalf("Count: %v", err)
	}
	if _, err := db.RangeSearch(context.Background(), R(0.4, 0.4, 0.6, 0.6)); err != nil {
		t.Fatalf("RangeSearch: %v", err)
	}
	return 7
}

// TestTraceHookExactlyOnce verifies the hook fires exactly once per
// query — including for delegating wrappers like WindowAt — on both
// engine layouts, and that traces carry sensible fields.
func TestTraceHookExactlyOnce(t *testing.T) {
	items, uni := UniformDataset(3000, 9)
	for _, tc := range []struct {
		name string
		opts *Options
	}{
		{"unsharded", nil},
		{"sharded", &Options{Shards: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, err := Open(items, uni, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			byOp := map[string]int{}
			db.SetTraceHook(func(tr QueryTrace) {
				mu.Lock()
				defer mu.Unlock()
				byOp[tr.Op]++
				if tr.Duration < 0 {
					t.Errorf("%s: negative duration %v", tr.Op, tr.Duration)
				}
				if tr.Err != nil {
					t.Errorf("%s: unexpected trace error %v", tr.Op, tr.Err)
				}
				if tr.Sharded != (tc.opts != nil) {
					t.Errorf("%s: Sharded = %v", tr.Op, tr.Sharded)
				}
				if tr.ShardsTouched < 1 {
					t.Errorf("%s: ShardsTouched = %d, want ≥ 1", tr.Op, tr.ShardsTouched)
				}
				if (tr.Op == OpNN || tr.Op == OpWindow) && (math.IsNaN(tr.RegionArea) || tr.RegionArea <= 0) {
					t.Errorf("%s: RegionArea = %g, want > 0", tr.Op, tr.RegionArea)
				}
			})
			n := runAllQueries(t, db)
			mu.Lock()
			total := 0
			for op, c := range byOp {
				if c != 1 {
					t.Errorf("op %s traced %d times, want 1", op, c)
				}
				total += c
			}
			mu.Unlock()
			if total != n {
				t.Fatalf("traced %d queries, want %d", total, n)
			}

			// Removing the hook stops delivery.
			db.SetTraceHook(nil)
			if _, _, err := db.NN(context.Background(), Pt(0.3, 0.3), 1); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			if byOp[OpNN] != 1 {
				t.Errorf("hook fired after removal: nn count %d", byOp[OpNN])
			}
			mu.Unlock()
		})
	}
}

// TestTraceHookConcurrent hammers a sharded DB from several goroutines
// and checks the hook count matches the query count (run with -race to
// verify the hook path is race-free).
func TestTraceHookConcurrent(t *testing.T) {
	items, uni := UniformDataset(2000, 10)
	db, err := Open(items, uni, &Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	var traced atomic.Int64
	db.SetTraceHook(func(QueryTrace) { traced.Add(1) })
	const goroutines, perG = 4, 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				p := Pt(0.1+0.8*float64(i)/perG, 0.1+0.2*float64(g))
				if _, _, err := db.NN(context.Background(), p, 1); err != nil {
					t.Errorf("NN: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := traced.Load(); got != goroutines*perG {
		t.Fatalf("traced %d queries, want %d", got, goroutines*perG)
	}
}

// metricValue extracts the value of a series from a DB.Metrics
// snapshot (histogram series report their observation count).
func metricValue(ms []Metric, name string, labels map[string]string) (float64, bool) {
	for _, m := range ms {
		if m.Name != name || len(m.Labels) != len(labels) {
			continue
		}
		match := true
		for k, v := range labels {
			if m.Labels[k] != v {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		if m.Kind == MetricHistogram {
			return float64(m.Count), true
		}
		return m.Value, true
	}
	return 0, false
}

// TestMetricsSnapshot verifies the DB.Metrics counters advance with
// queries on both layouts, and that shard metrics appear when sharded.
func TestMetricsSnapshot(t *testing.T) {
	items, uni := UniformDataset(3000, 11)
	for _, shards := range []int{1, 4} {
		db, err := Open(items, uni, &Options{Shards: shards, BufferFraction: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		runAllQueries(t, db)
		ms := db.Metrics()
		for _, op := range []string{OpNN, OpKNN, OpWindow, OpRange, OpRoute, OpCount, OpSearch} {
			if v, ok := metricValue(ms, "lbsq_queries_total", map[string]string{"op": op}); !ok || v != 1 {
				t.Errorf("shards=%d: lbsq_queries_total{op=%q} = %g (found %v), want 1", shards, op, v, ok)
			}
			if v, ok := metricValue(ms, "lbsq_query_duration_us", map[string]string{"op": op}); !ok || v != 1 {
				t.Errorf("shards=%d: lbsq_query_duration_us{op=%q} count = %g, want 1", shards, op, v)
			}
		}
		if v, ok := metricValue(ms, "lbsq_items", nil); !ok || v != float64(len(items)) {
			t.Errorf("shards=%d: lbsq_items = %g, want %d", shards, v, len(items))
		}
		fanout, ok := metricValue(ms, "lbsq_shard_fanout", map[string]string{"op": OpNN})
		if sharded := shards > 1; sharded != (ok && fanout >= 1) {
			t.Errorf("shards=%d: shard fanout present=%v count=%g", shards, ok, fanout)
		}
		if _, ok := metricValue(ms, "lbsq_buffer_hits_total", nil); !ok {
			t.Errorf("shards=%d: buffer hit counter missing on a buffered DB", shards)
		}
	}
}

// parseExposition structurally validates Prometheus text format and
// returns sample values keyed by "name{labels}".
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			switch f[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("unknown metric type in %q", line)
			}
			typed[f[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		series, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("unterminated labels in %q", line)
			}
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suffix) && typed[strings.TrimSuffix(name, suffix)] {
				base = strings.TrimSuffix(name, suffix)
			}
		}
		if !typed[base] {
			t.Fatalf("sample %q precedes its TYPE line", line)
		}
		samples[series] = val
	}
	return samples
}

// TestMetricsEndpoint serves a sharded DB over HTTP, drives load
// through the remote client, and checks /v1/metrics returns valid
// exposition whose counters advanced.
func TestMetricsEndpoint(t *testing.T) {
	items, uni := UniformDataset(4000, 12)
	db, err := Open(items, uni, &Options{Shards: 4, BufferFraction: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(db.Handler())
	defer srv.Close()
	rc := &RemoteClient{Base: srv.URL}
	if _, _, err := rc.Info(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		p := Pt(0.1+0.2*float64(i), 0.5)
		if _, err := rc.NN(context.Background(), p, 2); err != nil {
			t.Fatalf("NN: %v", err)
		}
		if _, err := rc.Window(context.Background(), p, 0.05, 0.05); err != nil {
			t.Fatalf("Window: %v", err)
		}
	}
	text, err := rc.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	samples := parseExposition(t, text)

	checks := []struct {
		series string
		want   float64
	}{
		{`lbsq_queries_total{op="nn"} `, 5},
		{`lbsq_queries_total{op="window"} `, 5},
		{`lbsq_http_requests_total{code="200",path="/v1/nn"} `, 5},
		{`lbsq_shards `, 4},
	}
	for _, c := range checks {
		key := strings.TrimSuffix(c.series, " ")
		if got, ok := samples[key]; !ok || got != c.want {
			t.Errorf("%s = %g (found %v), want %g", key, got, ok, c.want)
		}
	}
	// Histogram families present with consistent bucket/sum/count lines.
	for _, fam := range []string{
		`lbsq_query_duration_us_count{op="nn"}`,
		`lbsq_shard_fanout_count{op="nn"}`,
		`lbsq_http_request_duration_us_count{path="/v1/window"}`,
		`lbsq_validity_area_ratio_count{op="nn"}`,
	} {
		if v, ok := samples[fam]; !ok || v < 1 {
			t.Errorf("%s = %g (found %v), want ≥ 1", fam, v, ok)
		}
	}
	// Buffer counters advance under load.
	if v := samples["lbsq_buffer_misses_total"]; v < 1 {
		t.Errorf("lbsq_buffer_misses_total = %g, want ≥ 1", v)
	}

	// A second load round must move the counters monotonically.
	if _, err := rc.NN(context.Background(), Pt(0.5, 0.5), 1); err != nil {
		t.Fatal(err)
	}
	text2, err := rc.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	samples2 := parseExposition(t, text2)
	if samples2[`lbsq_queries_total{op="nn"}`] != 6 {
		t.Errorf("nn counter after second round = %g, want 6", samples2[`lbsq_queries_total{op="nn"}`])
	}
}

// TestContextCancellation verifies the ctx variants honor an already-
// cancelled context on both layouts and still record the query.
func TestContextCancellation(t *testing.T) {
	items, uni := UniformDataset(2000, 13)
	for _, shards := range []int{1, 4} {
		db, err := Open(items, uni, &Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, _, err := db.NN(ctx, Pt(0.5, 0.5), 1); !errors.Is(err, context.Canceled) {
			t.Errorf("shards=%d: NN err = %v, want context.Canceled", shards, err)
		}
		if _, _, err := db.WindowAt(ctx, Pt(0.5, 0.5), 0.05, 0.05); !errors.Is(err, context.Canceled) {
			t.Errorf("shards=%d: WindowAt err = %v, want context.Canceled", shards, err)
		}
		if _, _, err := db.Range(ctx, Pt(0.5, 0.5), 0.05); !errors.Is(err, context.Canceled) {
			t.Errorf("shards=%d: Range err = %v, want context.Canceled", shards, err)
		}
		if _, err := db.KNearest(ctx, Pt(0.5, 0.5), 2); !errors.Is(err, context.Canceled) {
			t.Errorf("shards=%d: KNearest err = %v, want context.Canceled", shards, err)
		}
		if _, err := db.RouteNN(ctx, Pt(0.1, 0.1), Pt(0.9, 0.9)); !errors.Is(err, context.Canceled) {
			t.Errorf("shards=%d: RouteNN err = %v, want context.Canceled", shards, err)
		}
		if _, err := db.Count(ctx, R(0.2, 0.2, 0.8, 0.8)); !errors.Is(err, context.Canceled) {
			t.Errorf("shards=%d: Count err = %v, want context.Canceled", shards, err)
		}
		if _, err := db.RangeSearch(ctx, R(0.2, 0.2, 0.8, 0.8)); !errors.Is(err, context.Canceled) {
			t.Errorf("shards=%d: RangeSearch err = %v, want context.Canceled", shards, err)
		}
		// Cancelled queries are still counted, as errors.
		if v, ok := metricValue(db.Metrics(), "lbsq_query_errors_total", map[string]string{"op": OpNN}); !ok || v != 1 {
			t.Errorf("shards=%d: lbsq_query_errors_total{op=nn} = %g, want 1", shards, v)
		}
		// The remote client propagates cancellation too.
		srv := httptest.NewServer(db.Handler())
		rc := &RemoteClient{Base: srv.URL}
		if _, err := rc.NN(ctx, Pt(0.5, 0.5), 1); !errors.Is(err, context.Canceled) {
			t.Errorf("shards=%d: remote NN err = %v, want context.Canceled", shards, err)
		}
		srv.Close()
	}
}
