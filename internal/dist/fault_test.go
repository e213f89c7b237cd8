package dist_test

// Fault-injection tests: the dist.Transport seam lets these tests
// drop, delay, or error individual shard RPCs — optionally only for
// one RPC op — against real data nodes, exercising hedging, breaker
// trips, replica failover, retry rounds, and the partial-failure
// degradation contract (a degraded validity region must be a subset of
// the healthy one — never larger).

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lbsq/internal/core"
	"lbsq/internal/dist"
	"lbsq/internal/geom"
	"lbsq/internal/obs"
	"lbsq/internal/qexec"
	"lbsq/internal/rtree"
	"lbsq/internal/shard"
)

// recordingTransport records which (addr, op) pairs the coordinator
// touched, so tests can pick a victim node that is contacted in a
// specific phase of a specific query.
type recordingTransport struct {
	inner dist.Transport

	mu    sync.Mutex
	calls map[string]map[string]int // addr → op substring match count
}

func newRecordingTransport(inner dist.Transport) *recordingTransport {
	return &recordingTransport{inner: inner, calls: make(map[string]map[string]int)}
}

func (t *recordingTransport) Do(ctx context.Context, addr string, body []byte) ([]byte, error) {
	t.mu.Lock()
	ops := t.calls[addr]
	if ops == nil {
		ops = make(map[string]int)
		t.calls[addr] = ops
	}
	for _, op := range []string{"knncand", "influence", "scan", "rangescan", "rangeouter", "nearest", "route", "count", "stats"} {
		if bytes.Contains(body, []byte(`"op":"`+op+`"`)) {
			ops[op]++
		}
	}
	t.mu.Unlock()
	return t.inner.Do(ctx, addr, body)
}

func (t *recordingTransport) reset() {
	t.mu.Lock()
	t.calls = make(map[string]map[string]int)
	t.mu.Unlock()
}

// addrsWithOp returns the node addresses that received the given op
// since the last reset.
func (t *recordingTransport) addrsWithOp(op string) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []string
	for addr, ops := range t.calls {
		if ops[op] > 0 {
			out = append(out, addr)
		}
	}
	return out
}

// metricValue scrapes one counter/gauge sample from the registry by
// metric name and a label substring (empty matches the first sample).
func metricValue(t *testing.T, reg *obs.Registry, name, labelSub string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("write metrics: %v", err)
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name) || strings.HasPrefix(line, "#") {
			continue
		}
		if labelSub != "" && !strings.Contains(line, labelSub) {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("parse metric line %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("metric %s (label %q) not found", name, labelSub)
	return 0
}

// TestHedgedReadWins delays the primary replica far beyond the hedge
// threshold: the backup replica must win, the answer must stay exact,
// and the hedge counters must move.
func TestHedgedReadWins(t *testing.T) {
	universe := geom.Rect{MinX: 0, MinY: 0, MaxX: 300, MaxY: 300}
	items := testItems(80, 1, universe)
	addrs := startSeededNodes(t, items, universe, 1, 2)
	ft := dist.NewFaultTransport(&dist.HTTPTransport{})
	c := newCoordinator(t, addrs, universe, func(o *dist.Options) {
		o.Replicas = 2
		o.Transport = ft
		o.HedgeAfter = 2 * time.Millisecond
	})
	oracle, err := shard.NewCluster(items, universe, shard.Options{Shards: 1})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}

	ft.Set(addrs[0], dist.Fault{Latency: 500 * time.Millisecond})
	ctx := context.Background()
	q := geom.Point{X: 120, Y: 200}
	got, err := c.KNearest(ctx, q, 3)
	if err != nil {
		t.Fatalf("KNearest under slow primary: %v", err)
	}
	want, err := oracle.KNearestCtx(ctx, q, 3)
	if err != nil {
		t.Fatalf("oracle KNearest: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("hedged answer mismatch: got %+v want %+v", got, want)
	}
	if v := metricValue(t, c.Registry(), "lbsq_dist_hedges_total", ""); v < 1 {
		t.Fatalf("lbsq_dist_hedges_total = %v, want ≥ 1", v)
	}
	if v := metricValue(t, c.Registry(), "lbsq_dist_hedge_wins_total", ""); v < 1 {
		t.Fatalf("lbsq_dist_hedge_wins_total = %v, want ≥ 1", v)
	}
}

// TestBreakerTripsAndRecovers drops every request to the primary: the
// replica keeps answers exact and undegraded, the primary's breaker
// opens after the threshold, and once the fault is cleared and the
// cooldown elapses a successful probe closes it again.
func TestBreakerTripsAndRecovers(t *testing.T) {
	universe := geom.Rect{MinX: 0, MinY: 0, MaxX: 300, MaxY: 300}
	items := testItems(60, 2, universe)
	addrs := startSeededNodes(t, items, universe, 1, 2)
	ft := dist.NewFaultTransport(&dist.HTTPTransport{})
	c := newCoordinator(t, addrs, universe, func(o *dist.Options) {
		o.Replicas = 2
		o.Transport = ft
		o.BreakerThreshold = 2
		o.BreakerCooldown = 100 * time.Millisecond
	})
	oracle, err := shard.NewCluster(items, universe, shard.Options{Shards: 1})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}

	ft.Set(addrs[0], dist.Fault{Drop: true})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		q := geom.Point{X: float64(40 + 60*i), Y: 150}
		got, _, st, err := c.NN(ctx, q, 2)
		if err != nil {
			t.Fatalf("NN %d with dead primary: %v", i, err)
		}
		if st.Degraded {
			t.Fatalf("NN %d degraded: a healthy replica held the full data", i)
		}
		want, _, werr := oracle.NNQueryCtx(ctx, q, 2)
		if werr != nil {
			t.Fatalf("oracle NN: %v", werr)
		}
		if !reflect.DeepEqual(got.NNValidity, want) {
			t.Fatalf("failover answer mismatch:\n got %+v\nwant %+v", got.NNValidity, want)
		}
	}
	breakerOf := func(addr string) int {
		t.Helper()
		for _, n := range c.Info(ctx).Nodes {
			if n.Addr == addr {
				return n.Breaker
			}
		}
		t.Fatalf("node %s missing from Info", addr)
		return -1
	}
	if st := breakerOf(addrs[0]); st != 1 {
		t.Fatalf("primary breaker state = %d, want 1 (open)", st)
	}
	if v := metricValue(t, c.Registry(), "lbsq_dist_breaker_state", addrs[0]); v != 1 {
		t.Fatalf("breaker gauge for primary = %v, want 1", v)
	}

	ft.Clear(addrs[0])
	time.Sleep(120 * time.Millisecond) // past the cooldown: half-open
	if _, err := c.KNearest(ctx, geom.Point{X: 150, Y: 150}, 2); err != nil {
		t.Fatalf("KNearest after recovery: %v", err)
	}
	if st := breakerOf(addrs[0]); st != 0 {
		t.Fatalf("primary breaker state after recovery = %d, want 0 (closed)", st)
	}
}

// TestRetryRoundRecovers arms a transport that fails exactly one
// attempt per node: with a single replica the first round fails
// entirely and the retry round must recover the answer.
func TestRetryRoundRecovers(t *testing.T) {
	universe := geom.Rect{MinX: 0, MinY: 0, MaxX: 300, MaxY: 300}
	items := testItems(50, 4, universe)
	addrs := startSeededNodes(t, items, universe, 1, 1)
	fl := &flakyTransport{inner: &dist.HTTPTransport{}}
	c := newCoordinator(t, addrs, universe, func(o *dist.Options) {
		o.Transport = fl
		o.Retries = 1
		o.Backoff = time.Millisecond
	})
	oracle, err := shard.NewCluster(items, universe, shard.Options{Shards: 1})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}

	fl.arm()
	ctx := context.Background()
	q := geom.Point{X: 99, Y: 101}
	got, err := c.KNearest(ctx, q, 2)
	if err != nil {
		t.Fatalf("KNearest with flaky node: %v", err)
	}
	want, err := oracle.KNearestCtx(ctx, q, 2)
	if err != nil {
		t.Fatalf("oracle KNearest: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("retried answer mismatch: got %+v want %+v", got, want)
	}
	if v := metricValue(t, c.Registry(), "lbsq_dist_retries_total", ""); v < 1 {
		t.Fatalf("lbsq_dist_retries_total = %v, want ≥ 1", v)
	}
}

// flakyTransport fails the first attempt to each node after arm().
type flakyTransport struct {
	inner dist.Transport

	mu     sync.Mutex
	armed  bool
	failed map[string]bool
}

func (t *flakyTransport) arm() {
	t.mu.Lock()
	t.armed = true
	t.failed = make(map[string]bool)
	t.mu.Unlock()
}

func (t *flakyTransport) Do(ctx context.Context, addr string, body []byte) ([]byte, error) {
	t.mu.Lock()
	fail := t.armed && !t.failed[addr]
	if fail {
		t.failed[addr] = true
	}
	t.mu.Unlock()
	if fail {
		return nil, errors.New("flaky: injected failure")
	}
	return t.inner.Do(ctx, addr, body)
}

// TestResultPhaseFailureIsHard drops the owner of the query point
// entirely: result-phase data is irrecoverable with one replica, so
// the query must fail rather than return a partial result.
func TestResultPhaseFailureIsHard(t *testing.T) {
	universe := geom.Rect{MinX: 0, MinY: 0, MaxX: 600, MaxY: 600}
	items := testItems(120, 6, universe)
	addrs := startSeededNodes(t, items, universe, 3, 1)
	ft := dist.NewFaultTransport(&dist.HTTPTransport{})
	c := newCoordinator(t, addrs, universe, func(o *dist.Options) { o.Transport = ft })
	ctx := context.Background()

	q := geom.Point{X: 100, Y: 300}
	owner := c.Ring().OwnerGroup(q)
	ft.Set(addrs[owner], dist.Fault{Drop: true})

	if _, _, st, err := c.NN(ctx, q, 3); err == nil {
		t.Fatalf("NN with dead owner: want error, got degraded=%v", st.Degraded)
	}
	w := geom.RectCenteredAt(q, 40, 40)
	if _, _, st, err := c.Window(ctx, w); err == nil {
		t.Fatalf("Window with dead owner: want error, got degraded=%v", st.Degraded)
	}
	if _, _, st, err := c.Range(ctx, q, 30); err == nil {
		t.Fatalf("Range with dead owner: want error, got degraded=%v", st.Degraded)
	}
	if _, _, err := c.RouteNN(ctx, q, geom.Point{X: 500, Y: 300}); err == nil {
		t.Fatalf("RouteNN with dead group: want error (routes cannot degrade)")
	}
}

// TestDegradedNNShrinksRegion fails one non-owner group's influence
// phase only (the result phase is untouched): the answer must be
// degraded with the exact neighbor set, and its validity region must
// be a verified subset of the healthy region.
func TestDegradedNNShrinksRegion(t *testing.T) {
	universe := geom.Rect{MinX: 0, MinY: 0, MaxX: 600, MaxY: 600}
	items := testItems(60, 8, universe) // sparse: influence fans out widely
	addrs := startSeededNodes(t, items, universe, 3, 1)
	rec := newRecordingTransport(&dist.HTTPTransport{})
	ft := dist.NewFaultTransport(rec)
	c := newCoordinator(t, addrs, universe, func(o *dist.Options) { o.Transport = ft })
	oracle, err := shard.NewCluster(items, universe, shard.Options{Shards: 3})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	ctx := context.Background()

	// Find a query whose influence phase touches a non-owner group.
	rng := rand.New(rand.NewSource(99))
	var q geom.Point
	var victim string
	const k = 3
	for try := 0; try < 200; try++ {
		q = randPoint(rng, universe)
		rec.reset()
		if _, _, st, err := c.NN(ctx, q, k); err != nil || st.Degraded {
			t.Fatalf("healthy NN: err=%v degraded=%v", err, st.Degraded)
		}
		owner := addrs[c.Ring().OwnerGroup(q)]
		for _, addr := range rec.addrsWithOp("influence") {
			if addr != owner {
				victim = addr
				break
			}
		}
		if victim != "" {
			break
		}
	}
	if victim == "" {
		t.Fatalf("no query found whose influence phase touches a non-owner group")
	}

	ft.Set(victim, dist.Fault{Drop: true, Match: `"op":"influence"`})
	got, _, st, err := c.NN(ctx, q, k)
	if err != nil {
		t.Fatalf("NN with dead influence group: %v", err)
	}
	if !st.Degraded || len(st.Unreachable) == 0 {
		t.Fatalf("want degraded status with unreachable territory, got %+v", st)
	}
	if len(got.Dead) == 0 {
		t.Fatalf("degraded answer carries no dead territory")
	}
	want, _, werr := oracle.NNQueryCtx(ctx, q, k)
	if werr != nil {
		t.Fatalf("oracle NN: %v", werr)
	}
	if !reflect.DeepEqual(got.Neighbors, want.Neighbors) {
		t.Fatalf("degraded NN changed the result set:\n got %+v\nwant %+v", got.Neighbors, want.Neighbors)
	}

	// Degraded validity ⊆ healthy validity, sampled across the universe.
	degradedValid := 0
	for i := 0; i < 4000; i++ {
		p := randPoint(rng, universe)
		if got.Valid(p) {
			degradedValid++
			if !want.Valid(p) {
				t.Fatalf("degraded region not a subset: valid at %v where healthy answer is not", p)
			}
		}
	}
	// Positions inside the dead territory are never valid: an unknown
	// object there could be arbitrarily close.
	for _, dead := range got.Dead {
		if got.Valid(dead.Center()) {
			t.Fatalf("degraded answer claims validity inside dead territory %v", dead)
		}
	}
	if v := metricValue(t, c.Registry(), "lbsq_dist_degraded_total", `op="nn"`); v < 1 {
		t.Fatalf(`lbsq_dist_degraded_total{op="nn"} = %v, want ≥ 1`, v)
	}
}

// TestDegradedWindowShrinksRegion fails a group whose territory does
// not intersect the window but does bound its validity region: the
// result set must stay exact and the degraded region must be a subset
// of the healthy one. The group is lost in the outer scan of a window
// with a result, or in the nearest probe of an empty window.
func TestDegradedWindowShrinksRegion(t *testing.T) {
	for _, tc := range []struct {
		name  string
		empty bool   // pick a window with an empty result
		op    string // the op the victim must have received
	}{
		{"outer-scan", false, "scan"},
		{"empty-result-probe", true, "nearest"},
	} {
		t.Run(tc.name, func(t *testing.T) { testDegradedWindow(t, tc.empty, tc.op) })
	}
}

func testDegradedWindow(t *testing.T, empty bool, op string) {
	universe := geom.Rect{MinX: 0, MinY: 0, MaxX: 600, MaxY: 600}
	items := testItems(120, 10, universe)
	addrs := startSeededNodes(t, items, universe, 3, 1)
	rec := newRecordingTransport(&dist.HTTPTransport{})
	ft := dist.NewFaultTransport(rec)
	c := newCoordinator(t, addrs, universe, func(o *dist.Options) { o.Transport = ft })
	oracle, err := shard.NewCluster(items, universe, shard.Options{Shards: 3})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	ctx := context.Background()
	ring := c.Ring()

	// Find a window inside exactly one group's territory whose query
	// still contacts another group with op — that group's territory
	// does not intersect the window, so its loss is degradable.
	rng := rand.New(rand.NewSource(17))
	const qx, qy = 24, 24
	var w geom.Rect
	victim := ""
	for try := 0; try < 2000 && victim == ""; try++ {
		w = geom.RectCenteredAt(randPoint(rng, universe), qx, qy)
		direct := ring.Overlapping(w)
		if len(direct) != 1 {
			continue
		}
		rec.reset()
		healthy, _, st, err := c.Window(ctx, w)
		if err != nil || st.Degraded {
			t.Fatalf("healthy window: err=%v degraded=%v", err, st.Degraded)
		}
		if (len(healthy.Result) == 0) != empty {
			continue
		}
		// An empty window loses the group of the nearest point: the
		// case that could widen the empty-result base.
		owner := -1
		if empty {
			if owner = nearestOwner(items, ring, w.Center()); owner == direct[0] {
				continue
			}
		}
		for _, addr := range rec.addrsWithOp(op) {
			if addr != addrs[direct[0]] && (owner < 0 || addr == addrs[owner]) {
				victim = addr
				break
			}
		}
	}
	if victim == "" {
		t.Fatalf("no window found with a degradable neighbor group")
	}

	ft.Set(victim, dist.Fault{Drop: true})
	got, _, st, err := c.Window(ctx, w)
	if err != nil {
		t.Fatalf("Window with dead neighbor: %v", err)
	}
	if !st.Degraded || len(st.Unreachable) == 0 {
		t.Fatalf("want degraded status, got %+v", st)
	}
	want, _, werr := oracle.WindowQueryCtx(ctx, w)
	if werr != nil {
		t.Fatalf("oracle window: %v", werr)
	}
	if !reflect.DeepEqual(got.Result, want.Result) {
		t.Fatalf("degraded window changed the result set:\n got %+v\nwant %+v", got.Result, want.Result)
	}
	// Sample the universe and the degraded region's base rectangle.
	for i := 0; i < 8000; i++ {
		p := randPoint(rng, universe)
		if i%2 == 1 {
			p = randPoint(rng, got.InnerRect)
		}
		if got.Valid(p) && !want.Valid(p) {
			t.Fatalf("degraded window region not a subset: valid at %v where healthy is not", p)
		}
	}
	for _, dead := range st.Unreachable {
		if got.Valid(dead.Center()) {
			t.Fatalf("degraded window claims validity inside dead territory %v", dead)
		}
	}
	if v := metricValue(t, c.Registry(), "lbsq_dist_degraded_total", `op="window"`); v < 1 {
		t.Fatalf(`lbsq_dist_degraded_total{op="window"} = %v, want ≥ 1`, v)
	}
}

// nearestOwner returns the group whose territory alone holds the item
// nearest to q, or -1 when territories share that point.
func nearestOwner(items []rtree.Item, ring *dist.Ring, q geom.Point) int {
	best := items[0]
	for _, it := range items[1:] {
		if it.P.Dist(q) < best.P.Dist(q) {
			best = it
		}
	}
	owners := ring.Overlapping(geom.Rect{MinX: best.P.X, MinY: best.P.Y, MaxX: best.P.X, MaxY: best.P.Y})
	if len(owners) != 1 {
		return -1
	}
	return owners[0]
}

// TestDegradedRangeRejectsDeadProximity fails one group's outer-
// influence scan only: the result stays exact, the answer degrades,
// and Valid rejects any focus within the radius of the dead territory
// while remaining a subset of the healthy validity.
func TestDegradedRangeRejectsDeadProximity(t *testing.T) {
	universe := geom.Rect{MinX: 0, MinY: 0, MaxX: 600, MaxY: 600}
	items := testItems(90, 12, universe)
	addrs := startSeededNodes(t, items, universe, 3, 1)
	rec := newRecordingTransport(&dist.HTTPTransport{})
	ft := dist.NewFaultTransport(rec)
	c := newCoordinator(t, addrs, universe, func(o *dist.Options) { o.Transport = ft })
	oracle, err := shard.NewCluster(items, universe, shard.Options{Shards: 3})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	ctx := context.Background()

	// Find a range query whose outer phase touches a group that the
	// hard result phase (rangescan / nearest fallback) does not.
	rng := rand.New(rand.NewSource(41))
	var center geom.Point
	var radius float64
	var victim string
	for try := 0; try < 500; try++ {
		center = randPoint(rng, universe)
		radius = 20 + 40*rng.Float64()
		rec.reset()
		if _, _, st, err := c.Range(ctx, center, radius); err != nil || st.Degraded {
			t.Fatalf("healthy range: err=%v degraded=%v", err, st.Degraded)
		}
		hard := make(map[string]bool)
		for _, a := range rec.addrsWithOp("rangescan") {
			hard[a] = true
		}
		for _, a := range rec.addrsWithOp("nearest") {
			hard[a] = true
		}
		for _, a := range rec.addrsWithOp("rangeouter") {
			if !hard[a] {
				victim = a
				break
			}
		}
		if victim != "" {
			break
		}
	}
	if victim == "" {
		t.Skip("no range query found whose outer phase exceeds its result phase")
	}

	ft.Set(victim, dist.Fault{Drop: true, Match: `"op":"rangeouter"`})
	got, _, st, err := c.Range(ctx, center, radius)
	if err != nil {
		t.Fatalf("Range with dead outer group: %v", err)
	}
	if !st.Degraded || len(got.Dead) == 0 {
		t.Fatalf("want degraded range, got status %+v dead %v", st, got.Dead)
	}
	want, _, werr := oracle.RangeQueryCtx(ctx, center, radius)
	if werr != nil {
		t.Fatalf("oracle range: %v", werr)
	}
	if !reflect.DeepEqual(got.Result, want.Result) {
		t.Fatalf("degraded range changed the result set:\n got %+v\nwant %+v", got.Result, want.Result)
	}
	for i := 0; i < 4000; i++ {
		f := randPoint(rng, universe)
		if got.Valid(f) && !want.Valid(f) {
			t.Fatalf("degraded range validity not a subset: valid at %v where healthy is not", f)
		}
	}
	for _, dead := range got.Dead {
		f := dead.Center()
		if got.Valid(f) {
			t.Fatalf("degraded range claims validity inside dead territory %v", dead)
		}
	}
	if v := metricValue(t, c.Registry(), "lbsq_dist_degraded_total", `op="range"`); v < 1 {
		t.Fatalf(`lbsq_dist_degraded_total{op="range"} = %v, want ≥ 1`, v)
	}
}

// TestFaultMatchScopesRule checks the Transport seam itself: a rule
// matching only the influence op must not affect result-phase RPCs to
// the same node.
func TestFaultMatchScopesRule(t *testing.T) {
	universe := geom.Rect{MinX: 0, MinY: 0, MaxX: 300, MaxY: 300}
	items := testItems(50, 14, universe)
	addrs := startSeededNodes(t, items, universe, 1, 1)
	ft := dist.NewFaultTransport(&dist.HTTPTransport{})
	c := newCoordinator(t, addrs, universe, func(o *dist.Options) { o.Transport = ft })
	ctx := context.Background()

	// KNearest uses only the knncand op; an influence-only fault on the
	// sole node must leave it untouched.
	ft.Set(addrs[0], dist.Fault{Drop: true, Match: `"op":"influence"`})
	if _, err := c.KNearest(ctx, geom.Point{X: 150, Y: 150}, 2); err != nil {
		t.Fatalf("KNearest hit an influence-scoped fault: %v", err)
	}
	// The NN validity query does issue influence — the same rule now
	// bites, degrading the answer; with the whole universe dead, no
	// position can be claimed valid.
	got, _, st, err := c.NN(ctx, geom.Point{X: 150, Y: 150}, 2)
	if err != nil {
		t.Fatalf("NN with influence faulted: %v", err)
	}
	if !st.Degraded {
		t.Fatalf("NN with influence faulted: want degraded answer")
	}
	if got.Valid(geom.Point{X: 150, Y: 150}) {
		t.Fatalf("degraded answer with the whole universe dead claims validity")
	}
}

// TestRangeFallbackCostCountsEachProbe fails one group's nearest-point
// probe on a range query with an empty result. The query fails, and its
// cost must be the result phase plus the probes that succeeded: the
// failed group's result-phase cost is counted once, and its failed
// probe not at all.
func TestRangeFallbackCostCountsEachProbe(t *testing.T) {
	universe := geom.Rect{MinX: 0, MinY: 0, MaxX: 600, MaxY: 600}
	items := testItems(40, 21, universe) // sparse: small ranges come back empty
	addrs := startSeededNodes(t, items, universe, 3, 1)
	ft := dist.NewFaultTransport(&dist.HTTPTransport{})
	c := newCoordinator(t, addrs, universe, func(o *dist.Options) { o.Transport = ft })
	ctx := context.Background()
	ring := c.Ring()

	// Local twins of the data nodes (same partition, same bulk load)
	// price each primitive.
	parts, err := shard.Partitions(items, universe, 3, shard.Grid)
	if err != nil {
		t.Fatalf("partitions: %v", err)
	}
	twins := make([]*shard.LocalBackend, len(parts))
	for g, p := range parts {
		twins[g] = shard.NewLocalBackend(newSingle(p.Items, universe))
	}

	rng := rand.New(rand.NewSource(5))
	for try := 0; try < 200; try++ {
		center := randPoint(rng, universe)
		radius := 5 + 20*rng.Float64()
		scanned := ring.Overlapping(geom.RectCenteredAt(center, 2*radius, 2*radius))
		if len(scanned) == 0 {
			continue
		}
		var want core.QueryCost
		hits := 0
		for _, g := range scanned {
			found, cost, err := twins[g].RangeScan(ctx, center, radius)
			if err != nil {
				t.Fatalf("twin range scan: %v", err)
			}
			hits += len(found)
			want.ResultNA += cost.NA
			want.ResultPA += cost.PA
		}
		if hits > 0 {
			continue
		}
		victim := scanned[0]
		for g := range twins {
			if g == victim {
				continue
			}
			_, _, cost, err := twins[g].Nearest(ctx, center)
			if err != nil {
				t.Fatalf("twin nearest: %v", err)
			}
			want.ResultNA += cost.NA
			want.ResultPA += cost.PA
		}

		ft.Set(addrs[victim], dist.Fault{Drop: true, Match: `"op":"nearest"`})
		_, got, _, err := c.Range(ctx, center, radius)
		if err == nil {
			t.Fatalf("Range(%v,%g) with a failed nearest probe: want error", center, radius)
		}
		if got != want {
			t.Fatalf("Range(%v,%g) fallback cost %+v, want result phase plus successful probes %+v", center, radius, got, want)
		}
		return
	}
	t.Fatal("no empty-result range query found")
}

// TestBatchWithDeadGroupMatchesSingleRequests kills one group and sends
// a mixed batch: each request's answer, error and status must equal
// what the request gets on its own, whether it failed, degraded or
// stayed exact.
func TestBatchWithDeadGroupMatchesSingleRequests(t *testing.T) {
	universe := geom.Rect{MinX: 0, MinY: 0, MaxX: 600, MaxY: 600}
	items := testItems(150, 23, universe)
	addrs := startSeededNodes(t, items, universe, 3, 1)
	ft := dist.NewFaultTransport(&dist.HTTPTransport{})
	c := newCoordinator(t, addrs, universe, func(o *dist.Options) { o.Transport = ft })
	ctx := context.Background()
	ft.Set(addrs[1], dist.Fault{Drop: true})

	rng := rand.New(rand.NewSource(29))
	var reqs []qexec.Request
	for i := 0; i < 60; i++ {
		q := randPoint(rng, universe)
		switch i % 6 {
		case 0:
			reqs = append(reqs, qexec.Request{Op: qexec.OpNN, Q: q, K: 1 + rng.Intn(4)})
		case 1:
			reqs = append(reqs, qexec.Request{Op: qexec.OpKNN, Q: q, K: 1 + rng.Intn(4)})
		case 2:
			reqs = append(reqs, qexec.Request{Op: qexec.OpWindow, W: geom.RectCenteredAt(q, 10+40*rng.Float64(), 10+40*rng.Float64())})
		case 3:
			reqs = append(reqs, qexec.Request{Op: qexec.OpRange, Q: q, Radius: 5 + 40*rng.Float64()})
		case 4:
			reqs = append(reqs, qexec.Request{Op: qexec.OpCount, W: randWindow(rng, universe)})
		default:
			reqs = append(reqs, qexec.Request{Op: qexec.OpSearch, W: randWindow(rng, universe)})
		}
	}
	resps, sts, err := c.Batch(ctx, reqs)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	failed, degraded, exact := 0, 0, 0
	for i, rq := range reqs {
		want, wantSt := oneRequest(ctx, t, c, rq)
		if !reflect.DeepEqual(resps[i], want) {
			t.Fatalf("batch[%d] op %d:\n got %+v\nwant %+v", i, rq.Op, resps[i], want)
		}
		if !reflect.DeepEqual(sts[i], wantSt) {
			t.Fatalf("batch[%d] op %d status:\n got %+v\nwant %+v", i, rq.Op, sts[i], wantSt)
		}
		switch {
		case want.Err != nil:
			failed++
		case wantSt.Degraded:
			degraded++
		default:
			exact++
		}
	}
	if failed == 0 || degraded == 0 || exact == 0 {
		t.Fatalf("batch outcomes failed=%d degraded=%d exact=%d: want every kind", failed, degraded, exact)
	}
}

// oneRequest answers rq through the coordinator's single-query surface,
// shaped like a batch response. The plain k-NN, count and search calls
// report no cost or status; their batch cost is the executor's, and
// their status is the undegraded one.
func oneRequest(ctx context.Context, t *testing.T, c *dist.Coordinator, rq qexec.Request) (qexec.Response, dist.Status) {
	t.Helper()
	st := dist.Status{RingVersion: c.Ring().Version}
	var r qexec.Response
	switch rq.Op {
	case qexec.OpNN:
		v, cost, vst, err := c.NN(ctx, rq.Q, rq.K)
		r, st = qexec.Response{Cost: cost, Err: err}, vst
		if v != nil {
			r.NN = v.NNValidity
		}
	case qexec.OpKNN:
		r.Neighbors, r.Err = c.KNearest(ctx, rq.Q, rq.K)
		r.Cost = batchCost(ctx, t, c, rq)
	case qexec.OpWindow:
		r.Window, r.Cost, st, r.Err = c.Window(ctx, rq.W)
	case qexec.OpRange:
		v, cost, vst, err := c.Range(ctx, rq.Q, rq.Radius)
		r, st = qexec.Response{Cost: cost, Err: err}, vst
		if v != nil {
			r.Range = v.RangeValidity
		}
	case qexec.OpCount:
		r.Count, r.Err = c.Count(ctx, rq.W)
	case qexec.OpSearch:
		r.Items, r.Err = c.SearchItems(ctx, rq.W)
	}
	return r, st
}

// batchCost is the cost a one-request batch reports for rq.
func batchCost(ctx context.Context, t *testing.T, c *dist.Coordinator, rq qexec.Request) core.QueryCost {
	t.Helper()
	resps, _, err := c.Batch(ctx, []qexec.Request{rq})
	if err != nil {
		t.Fatalf("one-request batch: %v", err)
	}
	return resps[0].Cost
}
