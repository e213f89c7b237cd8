package dist_test

// The multi-process integration harness: every test here runs real
// lbsq-server data nodes (httptest servers over unsharded DBs, which
// mount the /v1/shard RPC exactly as the binary does) and drives a
// Coordinator against them over HTTP. The in-process shard.Cluster —
// itself property-tested against the single-server core — is the
// oracle: with spatial placement and one partition per group the ring
// tiles coincide with the cluster's grid responsibilities, and every
// coordinator answer (results, validity regions, influence sets, and
// access costs) must be deeply equal to the cluster's.

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"
	"time"

	"lbsq"
	"lbsq/internal/dist"
	"lbsq/internal/geom"
	"lbsq/internal/qexec"
	"lbsq/internal/rtree"
	"lbsq/internal/shard"
)

// startNodes boots n empty data nodes over loopback HTTP and returns
// their base URLs. Each node is a full unsharded lbsq.DB served by its
// production Handler, so requests exercise the real wire path.
func startNodes(t testing.TB, n int, universe geom.Rect) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		db, err := lbsq.Open(nil, universe, nil)
		if err != nil {
			t.Fatalf("open node %d: %v", i, err)
		}
		srv := httptest.NewServer(db.Handler())
		t.Cleanup(srv.Close)
		addrs[i] = srv.URL
	}
	return addrs
}

// startSeededNodes boots groups×replicas data nodes pre-loaded with the
// grid partition of items each group owns (the spatial identity ring's
// ownership). Pre-loading at Open bulk-loads each node's tree exactly
// like shard.NewCluster bulk-loads the matching shard, so coordinator
// answers — including traversal-order-dependent enumeration orders and
// access costs — can be compared DeepEqual against the cluster oracle.
// (Seed builds node trees by incremental insert, which is semantically
// equivalent but yields a different tree shape; the Seed path is
// covered by the content-equality and semantic tests instead.)
func startSeededNodes(t testing.TB, items []rtree.Item, universe geom.Rect, groups, replicas int) []string {
	t.Helper()
	parts, err := shard.Partitions(items, universe, groups, shard.Grid)
	if err != nil {
		t.Fatalf("partitions: %v", err)
	}
	addrs := make([]string, groups*replicas)
	for g := 0; g < groups; g++ {
		for r := 0; r < replicas; r++ {
			db, err := lbsq.Open(parts[g].Items, universe, nil)
			if err != nil {
				t.Fatalf("open node %d/%d: %v", g, r, err)
			}
			srv := httptest.NewServer(db.Handler())
			t.Cleanup(srv.Close)
			addrs[g*replicas+r] = srv.URL
		}
	}
	return addrs
}

// newCoordinator builds a coordinator over addrs with spatial placement
// (ring tiles = cluster grid) and sane test timeouts; mod tweaks the
// options before New.
func newCoordinator(t testing.TB, addrs []string, universe geom.Rect, mod func(*dist.Options)) *dist.Coordinator {
	t.Helper()
	opts := dist.Options{
		Nodes:     addrs,
		Universe:  universe,
		Placement: dist.PlacementSpatial,
		OpTimeout: 30 * time.Second,
	}
	if mod != nil {
		mod(&opts)
	}
	c, err := dist.New(context.Background(), opts)
	if err != nil {
		t.Fatalf("dist.New: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func testItems(n int, seed int64, universe geom.Rect) []rtree.Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]rtree.Item, n)
	for i := range items {
		items[i] = rtree.Item{ID: int64(i + 1), P: randPoint(rng, universe)}
	}
	return items
}

func randPoint(rng *rand.Rand, u geom.Rect) geom.Point {
	return geom.Point{
		X: u.MinX + rng.Float64()*u.Width(),
		Y: u.MinY + rng.Float64()*u.Height(),
	}
}

// randWindow returns a random window fully inside the universe.
func randWindow(rng *rand.Rand, u geom.Rect) geom.Rect {
	qx := (0.02 + 0.1*rng.Float64()) * u.Width()
	qy := (0.02 + 0.1*rng.Float64()) * u.Height()
	c := geom.Point{
		X: u.MinX + qx/2 + rng.Float64()*(u.Width()-qx),
		Y: u.MinY + qy/2 + rng.Float64()*(u.Height()-qy),
	}
	return geom.RectCenteredAt(c, qx, qy)
}

func sortItems(items []rtree.Item) []rtree.Item {
	out := append([]rtree.Item(nil), items...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// oracleCount is the oracle cluster's window count.
func oracleCount(t testing.TB, oracle *shard.Cluster, w geom.Rect) int {
	t.Helper()
	n, err := oracle.CountWindowCtx(context.Background(), w)
	if err != nil {
		t.Fatalf("oracle count: %v", err)
	}
	return n
}

// oracleSearch is the oracle cluster's window enumeration.
func oracleSearch(t testing.TB, oracle *shard.Cluster, w geom.Rect) []rtree.Item {
	t.Helper()
	items, err := oracle.SearchItemsCtx(context.Background(), w)
	if err != nil {
		t.Fatalf("oracle search: %v", err)
	}
	return items
}

// TestCoordinatorMatchesCluster is the core parity property: a
// coordinator over three remote data nodes answers every query type
// exactly — DeepEqual on validity objects and costs — like the
// in-process shard cluster over the same grid partitions.
func TestCoordinatorMatchesCluster(t *testing.T) {
	coordinatorParity(t, 3, 1)
}

// TestCoordinatorMatchesClusterReplicated repeats the parity property
// with two replicas per group, so answers flow through the replica
// selection and hedging machinery.
func TestCoordinatorMatchesClusterReplicated(t *testing.T) {
	coordinatorParity(t, 6, 2)
}

func coordinatorParity(t *testing.T, nodes, replicas int) {
	universe := geom.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 600}
	groups := nodes / replicas
	items := testItems(400, 42, universe)
	addrs := startSeededNodes(t, items, universe, groups, replicas)
	c := newCoordinator(t, addrs, universe, func(o *dist.Options) { o.Replicas = replicas })
	ctx := context.Background()

	oracle, err := shard.NewCluster(items, universe, shard.Options{Shards: groups})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	single := newSingle(items, universe)

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		q := randPoint(rng, universe)
		k := 1 + rng.Intn(6)
		switch i % 5 {
		case 0:
			got, cost, st, err := c.NN(ctx, q, k)
			if err != nil {
				t.Fatalf("NN(%v,%d): %v", q, k, err)
			}
			if st.Degraded {
				t.Fatalf("NN(%v,%d): degraded with all nodes healthy", q, k)
			}
			want, wcost, werr := oracle.NNQueryCtx(ctx, q, k)
			if werr != nil {
				t.Fatalf("oracle NN: %v", werr)
			}
			if !reflect.DeepEqual(got.NNValidity, want) {
				t.Fatalf("NN(%v,%d) mismatch:\n got %+v\nwant %+v", q, k, got.NNValidity, want)
			}
			if !reflect.DeepEqual(cost, wcost) {
				t.Fatalf("NN(%v,%d) cost mismatch: got %+v want %+v", q, k, cost, wcost)
			}
			checkSingleNN(t, single, q, k, got.NNValidity)
		case 1:
			w := randWindow(rng, universe)
			got, cost, st, err := c.Window(ctx, w)
			if err != nil {
				t.Fatalf("Window(%v): %v", w, err)
			}
			if st.Degraded {
				t.Fatalf("Window(%v): degraded with all nodes healthy", w)
			}
			want, wcost, werr := oracle.WindowQueryCtx(ctx, w)
			if werr != nil {
				t.Fatalf("oracle window: %v", werr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Window(%v) mismatch:\n got %+v\nwant %+v", w, got, want)
			}
			if !reflect.DeepEqual(cost, wcost) {
				t.Fatalf("Window(%v) cost mismatch: got %+v want %+v", w, cost, wcost)
			}
			checkSingleWindow(t, single, w, got)
		case 2:
			radius := (0.01 + 0.08*rng.Float64()) * universe.Width()
			got, cost, st, err := c.Range(ctx, q, radius)
			if err != nil {
				t.Fatalf("Range(%v,%g): %v", q, radius, err)
			}
			if st.Degraded {
				t.Fatalf("Range(%v,%g): degraded with all nodes healthy", q, radius)
			}
			want, wcost, werr := oracle.RangeQueryCtx(ctx, q, radius)
			if werr != nil {
				t.Fatalf("oracle range: %v", werr)
			}
			if !reflect.DeepEqual(got.RangeValidity, want) {
				t.Fatalf("Range(%v,%g) mismatch:\n got %+v\nwant %+v", q, radius, got.RangeValidity, want)
			}
			if !reflect.DeepEqual(cost, wcost) {
				t.Fatalf("Range(%v,%g) cost mismatch: got %+v want %+v", q, radius, cost, wcost)
			}
			checkSingleRange(t, single, q, radius, got.RangeValidity)
		case 3:
			b := randPoint(rng, universe)
			got, st, err := c.RouteNN(ctx, q, b)
			if err != nil {
				t.Fatalf("RouteNN(%v,%v): %v", q, b, err)
			}
			if st.Degraded {
				t.Fatalf("RouteNN(%v,%v): degraded with all nodes healthy", q, b)
			}
			want, werr := oracle.RouteNNCtx(ctx, q, b)
			if werr != nil {
				t.Fatalf("oracle route: %v", werr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("RouteNN(%v,%v) mismatch:\n got %+v\nwant %+v", q, b, got, want)
			}
			checkSingleRoute(t, single, q, b, got)
		case 4:
			got, err := c.KNearest(ctx, q, k)
			if err != nil {
				t.Fatalf("KNearest(%v,%d): %v", q, k, err)
			}
			want, werr := oracle.KNearestCtx(ctx, q, k)
			if werr != nil {
				t.Fatalf("oracle knearest: %v", werr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("KNearest(%v,%d) mismatch: got %+v want %+v", q, k, got, want)
			}
			checkSingleKNN(t, single, q, k, got)
			w := randWindow(rng, universe)
			gn, err := c.Count(ctx, w)
			if err != nil {
				t.Fatalf("Count(%v): %v", w, err)
			}
			if wn := oracleCount(t, oracle, w); gn != wn {
				t.Fatalf("Count(%v): got %d want %d", w, gn, wn)
			}
			if sn := single.Tree.CountWindow(w); gn != sn {
				t.Fatalf("Count(%v): got %d, single server %d", w, gn, sn)
			}
			gi, err := c.SearchItems(ctx, w)
			if err != nil {
				t.Fatalf("SearchItems(%v): %v", w, err)
			}
			if gs, ws := sortItems(gi), sortItems(oracleSearch(t, oracle, w)); !reflect.DeepEqual(gs, ws) {
				t.Fatalf("SearchItems(%v): got %v want %v", w, gs, ws)
			}
			if !sameIDs(gi, single.Tree.SearchItems(w)) {
				t.Fatalf("SearchItems(%v): got %v, single server %v", w, ids(gi), ids(single.Tree.SearchItems(w)))
			}
		}
	}
}

// TestCoordinatorBatchMatchesCluster checks the heterogeneous batch
// surface: every response must equal the corresponding single query
// against the oracle cluster, and no status may be degraded.
func TestCoordinatorBatchMatchesCluster(t *testing.T) {
	universe := geom.Rect{MinX: 0, MinY: 0, MaxX: 800, MaxY: 800}
	items := testItems(300, 9, universe)
	addrs := startSeededNodes(t, items, universe, 3, 1)
	c := newCoordinator(t, addrs, universe, nil)
	ctx := context.Background()
	oracle, err := shard.NewCluster(items, universe, shard.Options{Shards: 3})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	single := newSingle(items, universe)

	rng := rand.New(rand.NewSource(11))
	q1, q2, q3 := randPoint(rng, universe), randPoint(rng, universe), randPoint(rng, universe)
	w1, w2 := randWindow(rng, universe), randWindow(rng, universe)
	reqs := []qexec.Request{
		{Op: qexec.OpNN, Q: q1, K: 3},
		{Op: qexec.OpKNN, Q: q2, K: 2},
		{Op: qexec.OpWindow, W: w1},
		{Op: qexec.OpRange, Q: q3, Radius: 60},
		{Op: qexec.OpCount, W: w2},
		{Op: qexec.OpSearch, W: w2},
	}
	resps, sts, err := c.Batch(ctx, reqs)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(resps) != len(reqs) || len(sts) != len(reqs) {
		t.Fatalf("batch: %d responses, %d statuses, want %d", len(resps), len(sts), len(reqs))
	}
	for i, st := range sts {
		if st.Degraded {
			t.Fatalf("batch[%d]: degraded with all nodes healthy", i)
		}
	}
	for i, r := range resps {
		if r.Err != nil {
			t.Fatalf("batch[%d]: %v", i, r.Err)
		}
	}

	wantNN, _, err := oracle.NNQueryCtx(ctx, q1, 3)
	if err != nil {
		t.Fatalf("oracle NN: %v", err)
	}
	if !reflect.DeepEqual(resps[0].NN, wantNN) {
		t.Fatalf("batch NN mismatch:\n got %+v\nwant %+v", resps[0].NN, wantNN)
	}
	wantKNN, err := oracle.KNearestCtx(ctx, q2, 2)
	if err != nil {
		t.Fatalf("oracle KNN: %v", err)
	}
	if !reflect.DeepEqual(resps[1].Neighbors, wantKNN) {
		t.Fatalf("batch KNN mismatch: got %+v want %+v", resps[1].Neighbors, wantKNN)
	}
	wantWin, _, err := oracle.WindowQueryCtx(ctx, w1)
	if err != nil {
		t.Fatalf("oracle window: %v", err)
	}
	if !reflect.DeepEqual(resps[2].Window, wantWin) {
		t.Fatalf("batch window mismatch:\n got %+v\nwant %+v", resps[2].Window, wantWin)
	}
	wantRange, _, err := oracle.RangeQueryCtx(ctx, q3, 60)
	if err != nil {
		t.Fatalf("oracle range: %v", err)
	}
	if !reflect.DeepEqual(resps[3].Range, wantRange) {
		t.Fatalf("batch range mismatch:\n got %+v\nwant %+v", resps[3].Range, wantRange)
	}
	if want := oracleCount(t, oracle, w2); resps[4].Count != want {
		t.Fatalf("batch count: got %d want %d", resps[4].Count, want)
	}
	gs, ws := sortItems(resps[5].Items), sortItems(oracleSearch(t, oracle, w2))
	if !reflect.DeepEqual(gs, ws) {
		t.Fatalf("batch search mismatch: got %v want %v", gs, ws)
	}

	checkSingleNN(t, single, q1, 3, resps[0].NN)
	checkSingleKNN(t, single, q2, 2, resps[1].Neighbors)
	checkSingleWindow(t, single, w1, resps[2].Window)
	checkSingleRange(t, single, q3, 60, resps[3].Range)
	if sn := single.Tree.CountWindow(w2); resps[4].Count != sn {
		t.Fatalf("batch count: got %d, single server %d", resps[4].Count, sn)
	}
	if !sameIDs(resps[5].Items, single.Tree.SearchItems(w2)) {
		t.Fatalf("batch search: got %v, single server %v", ids(resps[5].Items), ids(single.Tree.SearchItems(w2)))
	}
}

// TestCoordinatorValidityContract samples the validity contract
// end-to-end: wherever a coordinator NN answer claims to be valid, a
// fresh query at that position must return the same result.
func TestCoordinatorValidityContract(t *testing.T) {
	universe := geom.Rect{MinX: 0, MinY: 0, MaxX: 500, MaxY: 500}
	items := testItems(200, 3, universe)
	addrs := startNodes(t, 3, universe)
	c := newCoordinator(t, addrs, universe, nil)
	ctx := context.Background()
	if err := c.Seed(ctx, items); err != nil {
		t.Fatalf("seed: %v", err)
	}
	oracle, err := shard.NewCluster(items, universe, shard.Options{Shards: 3})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}

	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 8; i++ {
		q := randPoint(rng, universe)
		k := 1 + rng.Intn(4)
		v, _, _, err := c.NN(ctx, q, k)
		if err != nil {
			t.Fatalf("NN: %v", err)
		}
		for j := 0; j < 25; j++ {
			p := randPoint(rng, universe)
			if !v.Valid(p) {
				continue
			}
			fresh, werr := oracle.KNearestCtx(ctx, p, k)
			if werr != nil {
				t.Fatalf("oracle knearest: %v", werr)
			}
			for x := range fresh {
				if fresh[x].Item.ID != v.Neighbors[x].Item.ID {
					t.Fatalf("validity violated: NN(%v,%d) valid at %v but fresh answer differs\n got %+v\nheld %+v",
						q, k, p, fresh, v.Neighbors)
				}
			}
		}
	}
}

// TestRebalanceLive seeds under hash placement, migrates to spatial
// placement live, and checks that no data is lost or duplicated and
// answers remain exact afterward.
func TestRebalanceLive(t *testing.T) {
	universe := geom.Rect{MinX: 0, MinY: 0, MaxX: 900, MaxY: 900}
	items := testItems(240, 5, universe)
	addrs := startNodes(t, 3, universe)
	c := newCoordinator(t, addrs, universe, func(o *dist.Options) {
		o.Placement = dist.PlacementHash
		o.Partitions = 9
	})
	ctx := context.Background()
	if err := c.Seed(ctx, items); err != nil {
		t.Fatalf("seed: %v", err)
	}
	if v := c.Ring().Version; v != 1 {
		t.Fatalf("initial ring version: got %d want 1", v)
	}

	all, err := c.SearchItems(ctx, universe)
	if err != nil {
		t.Fatalf("search before: %v", err)
	}
	if !reflect.DeepEqual(sortItems(all), sortItems(items)) {
		t.Fatalf("pre-rebalance contents differ from seed")
	}

	moved, err := c.Rebalance(ctx, dist.PlacementSpatial, 9)
	if err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if moved == 0 {
		t.Fatalf("rebalance moved no items (hash → spatial over 9 partitions)")
	}
	if v := c.Ring().Version; v != 2 {
		t.Fatalf("ring version after rebalance: got %d want 2", v)
	}
	if p := c.Ring().Placement; p != dist.PlacementSpatial {
		t.Fatalf("ring placement after rebalance: got %v want spatial", p)
	}

	// No loss, no duplication.
	all, err = c.SearchItems(ctx, universe)
	if err != nil {
		t.Fatalf("search after: %v", err)
	}
	if !reflect.DeepEqual(sortItems(all), sortItems(items)) {
		t.Fatalf("post-rebalance contents differ from seed")
	}
	if n, err := c.Count(ctx, universe); err != nil || n != len(items) {
		t.Fatalf("post-rebalance count: %d, %v; want %d", n, err, len(items))
	}

	// Exact answers survive the migration (k-NN is deterministic and
	// placement-independent: sorted by distance then id).
	oracle, err := shard.NewCluster(items, universe, shard.Options{Shards: 3})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 10; i++ {
		q := randPoint(rng, universe)
		got, err := c.KNearest(ctx, q, 4)
		if err != nil {
			t.Fatalf("knearest: %v", err)
		}
		want, err := oracle.KNearestCtx(ctx, q, 4)
		if err != nil {
			t.Fatalf("oracle KNearest: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("post-rebalance KNearest(%v) mismatch: got %+v want %+v", q, got, want)
		}
	}
}

// TestJoinAddsReplica boots a spare node, joins it to a running
// cluster, and checks that it received a full copy of its group's data.
func TestJoinAddsReplica(t *testing.T) {
	universe := geom.Rect{MinX: 0, MinY: 0, MaxX: 600, MaxY: 600}
	items := testItems(150, 77, universe)
	addrs := startSeededNodes(t, items, universe, 3, 1)
	spare := startNodes(t, 1, universe)[0]
	c := newCoordinator(t, addrs, universe, nil)
	ctx := context.Background()

	g, err := c.Join(ctx, spare)
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if g < 0 || g >= c.NumGroups() {
		t.Fatalf("join returned group %d of %d", g, c.NumGroups())
	}

	info := c.Info(ctx)
	if len(info.Nodes) != 4 {
		t.Fatalf("info after join: %d nodes, want 4", len(info.Nodes))
	}
	var member, joined *dist.NodeInfo
	for i := range info.Nodes {
		n := &info.Nodes[i]
		if n.Addr == spare {
			joined = n
		} else if n.Group == g && member == nil {
			member = n
		}
	}
	if joined == nil || member == nil {
		t.Fatalf("info after join missing nodes: %+v", info.Nodes)
	}
	if joined.Err != "" || member.Err != "" {
		t.Fatalf("info after join has errors: joined=%q member=%q", joined.Err, member.Err)
	}
	if joined.Group != g {
		t.Fatalf("joined node in group %d, join returned %d", joined.Group, g)
	}
	if joined.Stats.Count != member.Stats.Count {
		t.Fatalf("joined replica holds %d items, group member holds %d",
			joined.Stats.Count, member.Stats.Count)
	}

	// The cluster still answers exactly.
	oracle, err := shard.NewCluster(items, universe, shard.Options{Shards: 3})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 6; i++ {
		q := randPoint(rng, universe)
		got, _, st, err := c.NN(ctx, q, 3)
		if err != nil || st.Degraded {
			t.Fatalf("NN after join: err=%v degraded=%v", err, st.Degraded)
		}
		want, _, werr := oracle.NNQueryCtx(ctx, q, 3)
		if werr != nil {
			t.Fatalf("oracle NN: %v", werr)
		}
		if !reflect.DeepEqual(got.NNValidity, want) {
			t.Fatalf("NN after join mismatch:\n got %+v\nwant %+v", got.NNValidity, want)
		}
	}
}

// TestCoordinatorWritesVisible routes Insert/Delete through the ring
// owner and checks they are immediately visible to queries and match
// an identically mutated oracle.
func TestCoordinatorWritesVisible(t *testing.T) {
	universe := geom.Rect{MinX: 0, MinY: 0, MaxX: 400, MaxY: 400}
	items := testItems(100, 19, universe)
	addrs := startNodes(t, 3, universe)
	c := newCoordinator(t, addrs, universe, nil)
	ctx := context.Background()
	if err := c.Seed(ctx, items); err != nil {
		t.Fatalf("seed: %v", err)
	}
	oracle, err := shard.NewCluster(items, universe, shard.Options{Shards: 3})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}

	extra := rtree.Item{ID: 9001, P: geom.Point{X: 123.5, Y: 321.25}}
	if err := c.Insert(ctx, extra); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if err := oracle.Insert(extra); err != nil {
		t.Fatalf("oracle insert: %v", err)
	}
	got, err := c.KNearest(ctx, extra.P, 1)
	if err != nil || len(got) != 1 || got[0].Item.ID != extra.ID {
		t.Fatalf("inserted item not nearest to itself: %+v, %v", got, err)
	}

	present, err := c.Delete(ctx, items[7])
	if err != nil || !present {
		t.Fatalf("delete existing: present=%v err=%v", present, err)
	}
	if oracle.Delete(items[7]) != true {
		t.Fatalf("oracle delete existing returned false")
	}
	present, err = c.Delete(ctx, items[7])
	if err != nil || present {
		t.Fatalf("double delete: present=%v err=%v", present, err)
	}

	all, err := c.SearchItems(ctx, universe)
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if !reflect.DeepEqual(sortItems(all), sortItems(oracleSearch(t, oracle, universe))) {
		t.Fatalf("contents diverge from oracle after writes")
	}
}
