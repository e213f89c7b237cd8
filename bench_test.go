package lbsq

// Benchmark harness: one benchmark per evaluation figure of the paper
// (delegating to internal/experiments, which prints the same series the
// paper plots), plus micro-benchmarks for the individual operations.
//
//	go test -bench=Fig -benchtime=1x        # regenerate every figure once
//	LBSQ_FULL=1 go test -bench=Fig22a ...   # paper-scale cardinalities
//	go test -bench=Op -benchmem             # per-operation costs
//
// Figure benchmarks report headline numbers via b.ReportMetric so the
// trends are visible straight from the bench output.

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"lbsq/internal/core"
	"lbsq/internal/dataset"
	"lbsq/internal/experiments"
	"lbsq/internal/geom"
	"lbsq/internal/nn"
	"lbsq/internal/rtree"
	"lbsq/internal/shard"
)

func benchConfig() experiments.Config {
	cfg := experiments.Config{Queries: 30, Seed: 2003}
	if os.Getenv("LBSQ_FULL") == "1" {
		cfg.Full = true
		cfg.Queries = 500
	}
	return cfg
}

// lastRowMetric extracts column col of the last row of the first table
// as a float metric (the "largest x-axis value" data point).
func lastRowMetric(tables []experiments.Table, col int) float64 {
	if len(tables) == 0 || len(tables[0].Rows) == 0 {
		return 0
	}
	row := tables[0].Rows[len(tables[0].Rows)-1]
	if col >= len(row) {
		return 0
	}
	v, err := strconv.ParseFloat(row[col], 64)
	if err != nil {
		return 0
	}
	return v
}

func benchFigure(b *testing.B, id string, metricCol int, metricName string) {
	b.Helper()
	e, ok := experiments.Find(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	cfg := benchConfig()
	var tables []experiments.Table
	for i := 0; i < b.N; i++ {
		tables = e.Run(cfg)
	}
	for _, t := range tables {
		if testing.Verbose() {
			t.Fprint(os.Stderr)
		} else {
			t.Fprint(io.Discard)
		}
	}
	if m := lastRowMetric(tables, metricCol); m != 0 {
		b.ReportMetric(m, metricName)
	}
}

func BenchmarkFig22a(b *testing.B) { benchFigure(b, "22a", 1, "area") }
func BenchmarkFig22b(b *testing.B) { benchFigure(b, "22b", 1, "area") }
func BenchmarkFig23(b *testing.B)  { benchFigure(b, "23", 1, "area_m2") }
func BenchmarkFig24(b *testing.B)  { benchFigure(b, "24", 1, "edges") }
func BenchmarkFig25(b *testing.B)  { benchFigure(b, "25", 1, "sinf") }
func BenchmarkFig26(b *testing.B)  { benchFigure(b, "26", 1, "sinf") }
func BenchmarkFig27(b *testing.B)  { benchFigure(b, "27", 2, "tpnnNA") }
func BenchmarkFig28(b *testing.B)  { benchFigure(b, "28", 2, "tpnnNA") }
func BenchmarkFig29(b *testing.B)  { benchFigure(b, "29", 1, "area") }
func BenchmarkFig30(b *testing.B)  { benchFigure(b, "30", 1, "area_m2") }
func BenchmarkFig31(b *testing.B)  { benchFigure(b, "31", 1, "inner") }
func BenchmarkFig32(b *testing.B)  { benchFigure(b, "32", 1, "inner") }
func BenchmarkFig34(b *testing.B)  { benchFigure(b, "34", 1, "resultNA") }
func BenchmarkFig35(b *testing.B)  { benchFigure(b, "35", 1, "resultPA") }

func BenchmarkClientSavings(b *testing.B) { benchFigure(b, "savings", 1, "queries") }

// Extension and ablation experiments (no paper figure to match).
func BenchmarkRangeExtension(b *testing.B) { benchFigure(b, "range", 1, "area") }
func BenchmarkDeltaExtension(b *testing.B) { benchFigure(b, "delta", 2, "kbPlain") }
func BenchmarkAblations(b *testing.B)      { benchFigure(b, "ablation", 1, "bfNA") }

// --- per-operation micro-benchmarks --------------------------------------

var (
	benchOnce sync.Once
	benchDB   *DB
)

func benchDatabase(b *testing.B) *DB {
	b.Helper()
	benchOnce.Do(func() {
		items, uni := UniformDataset(100_000, 2003)
		db, err := Open(items, uni, nil)
		if err != nil {
			panic(err)
		}
		benchDB = db
	})
	return benchDB
}

func benchPoints(n int) []Point {
	rng := rand.New(rand.NewSource(77))
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Pt(rng.Float64(), rng.Float64())
	}
	return pts
}

// BenchmarkOpKNearest measures a plain best-first k-NN query (k=1).
func BenchmarkOpKNearest(b *testing.B) {
	db := benchDatabase(b)
	pts := benchPoints(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.KNearest(context.Background(), pts[i%len(pts)], 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpNNValidity measures a full location-based 1NN query: the
// NN search plus the TPNN influence-set computation.
func BenchmarkOpNNValidity(b *testing.B) {
	db := benchDatabase(b)
	pts := benchPoints(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.NN(context.Background(), pts[i%len(pts)], 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpNNValidityK10 is the k=10 variant.
func BenchmarkOpNNValidityK10(b *testing.B) {
	db := benchDatabase(b)
	pts := benchPoints(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.NN(context.Background(), pts[i%len(pts)], 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpWindowValidity measures a location-based window query
// (window = 0.1% of the universe).
func BenchmarkOpWindowValidity(b *testing.B) {
	db := benchDatabase(b)
	pts := benchPoints(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.WindowAt(context.Background(), pts[i%len(pts)], 0.0316, 0.0316); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpRangeSearch measures the plain window query underneath.
func BenchmarkOpRangeSearch(b *testing.B) {
	db := benchDatabase(b)
	pts := benchPoints(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.RangeSearch(context.Background(), squareAt(pts[i%len(pts)], 0.0316)); err != nil {
			b.Fatal(err)
		}
	}
}

// squareAt builds the square window for the bench above.
func squareAt(c Point, side float64) Rect {
	return R(c.X-side/2, c.Y-side/2, c.X+side/2, c.Y+side/2)
}

// BenchmarkOpEncodeNN measures response serialization.
func BenchmarkOpEncodeNN(b *testing.B) {
	db := benchDatabase(b)
	v, _, err := db.NN(context.Background(), Pt(0.5, 0.5), 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := EncodeNN(v)
		if i == 0 {
			b.SetBytes(int64(len(buf)))
		}
	}
}

// BenchmarkOpDecodeNN measures response parsing (the client side).
func BenchmarkOpDecodeNN(b *testing.B) {
	db := benchDatabase(b)
	v, _, err := db.NN(context.Background(), Pt(0.5, 0.5), 4)
	if err != nil {
		b.Fatal(err)
	}
	buf := EncodeNN(v)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeNN(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpValidityCheck measures the client-side half-plane test —
// the work a mobile device does per position update.
func BenchmarkOpValidityCheck(b *testing.B) {
	db := benchDatabase(b)
	v, _, err := db.NN(context.Background(), Pt(0.5, 0.5), 1)
	if err != nil {
		b.Fatal(err)
	}
	pts := benchPoints(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Valid(pts[i%len(pts)])
	}
}

// BenchmarkShardScaling measures mixed-workload throughput (NN with
// validity, window, range) against the shard count, on uniform and
// GR-like (skewed) data. Run with -cpu 8 (or more) so the scatter
// parallelism is visible; qps is reported per sub-benchmark.
//
//	go test -bench=ShardScaling -cpu 8 -benchtime=2s
func BenchmarkShardScaling(b *testing.B) {
	type ds struct {
		name     string
		items    []Item
		uni      Rect
		strategy ShardStrategy
	}
	uItems, uUni := UniformDataset(50_000, 2003)
	gItems, gUni := GRLikeDataset(23_268, 2003)
	for _, d := range []ds{
		{"uniform", uItems, uUni, ShardGrid},
		{"gr", gItems, gUni, ShardKDMedian},
	} {
		for _, shards := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/shards=%d", d.name, shards), func(b *testing.B) {
				db, err := Open(d.items, d.uni, &Options{Shards: shards, ShardStrategy: d.strategy})
				if err != nil {
					b.Fatal(err)
				}
				rng := rand.New(rand.NewSource(7))
				pts := make([]Point, 1024)
				for i := range pts {
					it := d.items[rng.Intn(len(d.items))]
					pts[i] = Pt(it.P.X+(rng.Float64()-0.5)*0.01*d.uni.Width(),
						it.P.Y+(rng.Float64()-0.5)*0.01*d.uni.Height())
				}
				qx, qy := 0.02*d.uni.Width(), 0.02*d.uni.Height()
				radius := 0.01 * d.uni.Width()
				var ctr int64
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						i := atomic.AddInt64(&ctr, 1)
						q := pts[i%int64(len(pts))]
						var err error
						switch i % 4 {
						case 0:
							_, _, err = db.NN(context.Background(), q, 1)
						case 1:
							_, _, err = db.NN(context.Background(), q, int(i%16)+1)
						case 2:
							_, _, err = db.WindowAt(context.Background(), q, qx, qy)
						default:
							_, _, err = db.Range(context.Background(), q, radius)
						}
						if err != nil {
							b.Error(err)
							return
						}
					}
				})
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
			})
		}
	}
}

// BenchmarkClusterWindow is the A/B bench of the sharded window query:
// the same fresh data-conforming windows, at the paper's three window
// areas, on a 4-part kd-median shard.Cluster ("cluster") and on one
// core.Server over the same NA-like 100k items ("single"). Neither has
// a validity cache, so every query runs both phases; na/op is the
// paper's node accesses per query.
//
//	go test -run=NONE -bench=ClusterWindow -benchmem
func BenchmarkClusterWindow(b *testing.B) {
	d := dataset.NALike(100_000, 2003)
	single := core.NewServer(rtree.BulkLoad(d.Items, rtree.Options{}, 0), d.Universe)
	cluster, err := shard.NewCluster(d.Items, d.Universe, shard.Options{Shards: 4, Strategy: shard.KDMedian})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	pts := make([]Point, 4096)
	for i := range pts {
		it := d.Items[rng.Intn(len(d.Items))]
		pts[i] = Pt(it.P.X+(rng.Float64()-0.5)*0.01*d.Universe.Width(),
			it.P.Y+(rng.Float64()-0.5)*0.01*d.Universe.Height())
	}
	engines := []struct {
		name   string
		window func(Rect) (*WindowValidity, QueryCost)
	}{
		{"cluster", cluster.WindowQuery},
		{"single", single.WindowQuery},
	}
	for _, area := range []float64{0.0001, 0.001, 0.01} {
		qx, qy := math.Sqrt(area)*d.Universe.Width(), math.Sqrt(area)*d.Universe.Height()
		for _, e := range engines {
			b.Run(fmt.Sprintf("area=%g%%/%s", 100*area, e.name), func(b *testing.B) {
				b.ReportAllocs()
				var na int64
				for i := 0; i < b.N; i++ {
					_, cost := e.window(geom.RectCenteredAt(pts[i%len(pts)], qx, qy))
					na += cost.Total()
				}
				b.ReportMetric(float64(na)/float64(b.N), "na/op")
			})
		}
	}
}

// BenchmarkOpInsert measures dynamic R*-tree insertion (in-memory
// baseline for BenchmarkOpInsertDurable). Each iteration inserts a new
// point and deletes it again, so the tree stays at 10k items and ns/op
// does not depend on the iteration count.
func BenchmarkOpInsert(b *testing.B) {
	items, uni := UniformDataset(10_000, 5)
	db, err := Open(items, uni, nil)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := Item{ID: int64(100_000 + i), P: Pt(rng.Float64(), rng.Float64())}
		if err := db.Insert(it); err != nil {
			b.Fatal(err)
		}
		if ok, err := db.Delete(it); err != nil || !ok {
			b.Fatalf("delete of the inserted item: found %v, err %v", ok, err)
		}
	}
}

// BenchmarkOpInsertDurable measures write-ahead-logged insertion
// against BenchmarkOpInsert's in-memory line: "always" pays a
// group-commit fsync per acknowledged insert (single writer, so no
// batching), "os" pays only the log append.
func BenchmarkOpInsertDurable(b *testing.B) {
	for _, mode := range []SyncMode{SyncAlways, SyncOS} {
		b.Run(string(mode), func(b *testing.B) {
			items, uni := UniformDataset(10_000, 5)
			db, err := Open(items, uni, &Options{DataDir: b.TempDir(), SyncMode: mode})
			if err != nil {
				b.Fatal(err)
			}
			defer func() {
				if err := db.Close(); err != nil {
					b.Error(err)
				}
			}()
			rng := rand.New(rand.NewSource(6))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := db.Insert(Item{ID: int64(100_000 + i), P: Pt(rng.Float64(), rng.Float64())}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBatchScaling compares the batched query engine against the
// sequential per-query path on an 8-shard DB: sequential issues one
// scatter per query from parallel clients, batched issues one grouped
// scatter per shard per phase for 64 queries at a time. One benchmark
// iteration is one query either way, so ns/op (and the qps metric)
// compare directly.
func BenchmarkBatchScaling(b *testing.B) {
	items, uni := UniformDataset(50_000, 2003)
	db, err := Open(items, uni, &Options{Shards: 8, ShardStrategy: ShardGrid})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	qx, qy := 0.02*uni.Width(), 0.02*uni.Height()
	radius := 0.01 * uni.Width()
	reqs := make([]BatchRequest, 1024)
	for i := range reqs {
		q := Pt(rng.Float64(), rng.Float64())
		switch i % 4 {
		case 0:
			reqs[i] = BatchRequest{Op: BatchNN, Q: q, K: 1}
		case 1:
			reqs[i] = BatchRequest{Op: BatchNN, Q: q, K: i%16 + 1}
		case 2:
			reqs[i] = BatchRequest{Op: BatchWindow, W: R(q.X-qx/2, q.Y-qy/2, q.X+qx/2, q.Y+qy/2)}
		default:
			reqs[i] = BatchRequest{Op: BatchRange, Q: q, Radius: radius}
		}
	}
	ctx := context.Background()

	b.Run("sequential", func(b *testing.B) {
		var ctr int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := atomic.AddInt64(&ctr, 1)
				if _, err := db.Batch(ctx, reqs[i%int64(len(reqs)):i%int64(len(reqs))+1]); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
	})
	b.Run("batched", func(b *testing.B) {
		const size = 64
		for lo := 0; lo < b.N; lo += size {
			n := size
			if lo+n > b.N {
				n = b.N - lo
			}
			start := lo % len(reqs)
			if start+n > len(reqs) {
				start = 0
			}
			if _, err := db.Batch(ctx, reqs[start:start+n]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
	})
}

// BenchmarkSessions regenerates the continuous-session fleet
// comparison (naive vs client-cached vs session+prefetch).
func BenchmarkSessions(b *testing.B) { benchFigure(b, "sessions", 2, "queries") }

// BenchmarkSessionMove measures the continuous-session fast path: a
// position update that stays inside the armed validity region. The
// benchmark asserts the paper's core claim for the server-tracked
// protocol — an in-region move costs zero index node accesses.
func BenchmarkSessionMove(b *testing.B) {
	items, uni := UniformDataset(100_000, 2003)
	for _, layout := range []string{LayoutPointer, LayoutArena} {
		b.Run(layout, func(b *testing.B) {
			db, err := Open(items, uni, &Options{Layout: layout})
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			q := Pt(0.42, 0.58)
			s, _, err := db.OpenSession(ctx, q, 4)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			// Wiggle inside the region: every move must be a hit.
			pts := make([]Point, 64)
			for i := range pts {
				pts[i] = Pt(q.X+float64(i%8)*1e-9, q.Y+float64(i/8)*1e-9)
			}
			// The fast path is asserted allocation-free: every function on it
			// carries //lbsq:hotpath (see TestHotpathCoverage).
			var res SessionMove
			if allocs := testing.AllocsPerRun(100, func() {
				if err := s.MoveInto(ctx, pts[0], &res); err != nil || !res.Hit {
					b.Fatalf("in-region move failed: hit=%v err=%v", res.Hit, err)
				}
			}); allocs != 0 {
				b.Fatalf("in-region move allocated %.1f times per op, want 0", allocs)
			}
			var na int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.MoveInto(ctx, pts[i%len(pts)], &res); err != nil {
					b.Fatal(err)
				}
				if !res.Hit {
					b.Fatal("in-region move missed the armed region")
				}
				na += int64(res.Cost.Total())
			}
			if na != 0 {
				b.Fatalf("in-region moves cost %d node accesses, want 0", na)
			}
			b.ReportMetric(float64(na)/float64(b.N), "NA/op")
		})
	}
}

// BenchmarkSessionStrategies compares the NN session strategies on the
// in-region fast path. Both must answer an in-region move with zero
// index node accesses, and both fast paths are asserted allocation-free
// — for insq that is the influential-set Covers check, pure distance
// arithmetic over at most k+slack points (//lbsq:hotpath, see
// TestHotpathCoverage).
func BenchmarkSessionStrategies(b *testing.B) {
	items, uni := UniformDataset(100_000, 2003)
	for _, strategy := range []string{SessionStrategyTPKNN, SessionStrategyINSQ} {
		b.Run(strategy, func(b *testing.B) {
			db, err := Open(items, uni, &Options{SessionStrategy: strategy})
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			q := Pt(0.42, 0.58)
			s, _, err := db.OpenSession(ctx, q, 4)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			pts := make([]Point, 64)
			for i := range pts {
				pts[i] = Pt(q.X+float64(i%8)*1e-9, q.Y+float64(i/8)*1e-9)
			}
			var res SessionMove
			if allocs := testing.AllocsPerRun(100, func() {
				if err := s.MoveInto(ctx, pts[0], &res); err != nil || !res.Hit {
					b.Fatalf("in-region move failed: hit=%v err=%v", res.Hit, err)
				}
			}); allocs != 0 {
				b.Fatalf("%s in-region move allocated %.1f times per op, want 0", strategy, allocs)
			}
			var na int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.MoveInto(ctx, pts[i%len(pts)], &res); err != nil {
					b.Fatal(err)
				}
				if !res.Hit {
					b.Fatal("in-region move missed the armed region")
				}
				na += int64(res.Cost.Total())
			}
			if na != 0 {
				b.Fatalf("in-region moves cost %d node accesses, want 0", na)
			}
			b.ReportMetric(float64(na)/float64(b.N), "NA/op")
		})
	}
}

// BenchmarkArenaNN measures the zero-allocation k-NN read path over the
// flat arena layout: best-first search with pooled heap scratch and a
// caller-supplied result slice. The benchmark asserts 0 allocs/op —
// every function on the path carries //lbsq:hotpath.
func BenchmarkArenaNN(b *testing.B) {
	items, uni := UniformDataset(100_000, 2003)
	db, err := Open(items, uni, &Options{Layout: LayoutArena})
	if err != nil {
		b.Fatal(err)
	}
	ix := db.server.Index
	pts := make([]Point, 64)
	for i := range pts {
		pts[i] = Pt(0.1+0.8*float64(i%8)/8, 0.1+0.8*float64(i/8)/8)
	}
	dst := make([]Neighbor, 0, 16)
	if allocs := testing.AllocsPerRun(100, func() {
		dst = nn.KNearestInto(ix, pts[0], 4, dst)
		if len(dst) != 4 {
			b.Fatalf("got %d neighbors, want 4", len(dst))
		}
	}); allocs != 0 {
		b.Fatalf("arena k-NN allocated %.1f times per op, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = nn.KNearestInto(ix, pts[i%len(pts)], 4, dst)
	}
	sinkNeighbors = dst
}

// BenchmarkArenaWindow measures the zero-allocation window read path
// over the flat arena layout: SearchAppend into a reused caller buffer.
// The benchmark asserts 0 allocs/op.
func BenchmarkArenaWindow(b *testing.B) {
	items, uni := UniformDataset(100_000, 2003)
	db, err := Open(items, uni, &Options{Layout: LayoutArena})
	if err != nil {
		b.Fatal(err)
	}
	ix := db.server.Index
	ws := make([]Rect, 16)
	for i := range ws {
		c := Pt(0.2+0.6*float64(i)/16, 0.5)
		ws[i] = R(c.X-0.01, c.Y-0.01, c.X+0.01, c.Y+0.01)
	}
	buf := make([]Item, 0, 256)
	if allocs := testing.AllocsPerRun(100, func() {
		buf = ix.SearchAppend(buf[:0], ws[0])
		if len(buf) == 0 {
			b.Fatal("window query returned no items")
		}
	}); allocs != 0 {
		b.Fatalf("arena window allocated %.1f times per op, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = ix.SearchAppend(buf[:0], ws[i%len(ws)])
	}
	sinkItems = buf
}

// Benchmark sinks keep results live so the compiler cannot elide the
// measured calls.
var (
	sinkNeighbors []Neighbor
	sinkItems     []Item
)

// BenchmarkCacheHitPath measures the validity-cache fast path: the
// cached variant serves a warmed region at zero node accesses, and the
// uncached variant recomputes the same query every time.
func BenchmarkCacheHitPath(b *testing.B) {
	items, uni := UniformDataset(100_000, 2003)
	q := Pt(0.42, 0.58)
	ctx := context.Background()

	b.Run("uncached", func(b *testing.B) {
		db, err := Open(items, uni, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := db.NN(ctx, q, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		db, err := Open(items, uni, &Options{CacheSize: 1024})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := db.NN(ctx, q, 4); err != nil { // warm the cache
			b.Fatal(err)
		}
		// The cache-hit path is asserted allocation-free: every function
		// on it carries //lbsq:hotpath (see TestHotpathCoverage).
		if allocs := testing.AllocsPerRun(100, func() {
			if _, _, err := db.NN(ctx, q, 4); err != nil {
				b.Fatal(err)
			}
		}); allocs != 0 {
			b.Fatalf("cache hit allocated %.1f times per op, want 0", allocs)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, cost, err := db.NN(ctx, q, 4)
			if err != nil {
				b.Fatal(err)
			}
			if cost.Total() != 0 {
				b.Fatalf("cache hit cost %d node accesses, want 0", cost.Total())
			}
			if v == nil || !v.Valid(q) {
				b.Fatal("cache hit returned an invalid region")
			}
		}
	})
}
