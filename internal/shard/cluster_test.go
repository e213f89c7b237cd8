package shard

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"lbsq/internal/core"
	"lbsq/internal/dataset"
	"lbsq/internal/geom"
	"lbsq/internal/rtree"
	"lbsq/internal/tp"
)

// equivConfig is one dataset × sharding configuration of the
// equivalence property tests.
type equivConfig struct {
	name     string
	d        *dataset.Dataset
	shards   int
	strategy Strategy
	queries  int
}

// equivConfigs pairs a uniform and a skewed (GR-like) dataset with both
// partitioning strategies and non-power-of-two shard counts. Each query
// type runs ≥ 1000 randomized queries on each distribution.
func equivConfigs() []equivConfig {
	return []equivConfig{
		{"uniform-grid-4", dataset.Uniform(2000, 31), 4, Grid, 700},
		{"uniform-kd-3", dataset.Uniform(1500, 32), 3, KDMedian, 300},
		{"gr-kd-5", dataset.GRLike(2500, 33), 5, KDMedian, 700},
		{"gr-grid-6", dataset.GRLike(1500, 34), 6, Grid, 300},
	}
}

// buildPair builds the single-server reference and the sharded cluster
// over the same dataset.
func buildPair(t *testing.T, cfg equivConfig) (*core.Server, *Cluster) {
	t.Helper()
	single := core.NewServer(cfg.d.Tree(), cfg.d.Universe)
	c, err := NewCluster(cfg.d.Items, cfg.d.Universe, Options{Shards: cfg.shards, Strategy: cfg.strategy})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Len(); got != len(cfg.d.Items) {
		t.Fatalf("cluster holds %d items, dataset has %d", got, len(cfg.d.Items))
	}
	return single, c
}

// queryPoint draws a query position: mostly data-conforming (near a
// random item), sometimes uniform in the universe, occasionally outside
// it (clients can stand anywhere).
func queryPoint(rng *rand.Rand, d *dataset.Dataset) geom.Point {
	u := d.Universe
	switch rng.Intn(10) {
	case 0:
		return geom.Pt(u.MinX-0.05*u.Width()+rng.Float64()*1.1*u.Width(),
			u.MinY-0.05*u.Height()+rng.Float64()*1.1*u.Height())
	case 1, 2, 3:
		return geom.Pt(u.MinX+rng.Float64()*u.Width(), u.MinY+rng.Float64()*u.Height())
	default:
		it := d.Items[rng.Intn(len(d.Items))]
		return geom.Pt(it.P.X+(rng.Float64()-0.5)*0.02*u.Width(),
			it.P.Y+(rng.Float64()-0.5)*0.02*u.Height())
	}
}

func sortedIDs(items []rtree.Item) []int64 {
	ids := make([]int64, len(items))
	for i, it := range items {
		ids[i] = it.ID
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

func sameIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// bfKNNIDs is the brute-force k-NN oracle. ok is false when the k-th
// and (k+1)-th distances are too close to call (a tie would make the
// result set ambiguous, so the probe is skipped).
func bfKNNIDs(items []rtree.Item, p geom.Point, k int) (ids []int64, ok bool) {
	type cand struct {
		id int64
		d2 float64
	}
	cs := make([]cand, len(items))
	for i, it := range items {
		cs[i] = cand{it.ID, it.P.Dist2(p)}
	}
	sort.Slice(cs, func(a, b int) bool { return cs[a].d2 < cs[b].d2 })
	if k > len(cs) {
		return nil, false
	}
	if k < len(cs) {
		dk, dn := math.Sqrt(cs[k-1].d2), math.Sqrt(cs[k].d2)
		if dn-dk <= 1e-9*(1+dk) {
			return nil, false
		}
	}
	ids = make([]int64, k)
	for i := 0; i < k; i++ {
		ids[i] = cs[i].id
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids, true
}

// TestNNQueryEquivalence: on every configuration, the sharded k-NN
// result equals the single-server result, the merged validity region
// contains the query point, and every probe position the merged region
// declares valid is valid for the single server too (fp-boundary
// disagreements are adjudicated by the brute-force oracle).
func TestNNQueryEquivalence(t *testing.T) {
	for _, cfg := range equivConfigs() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			single, c := buildPair(t, cfg)
			rng := rand.New(rand.NewSource(101))
			u := cfg.d.Universe
			for qi := 0; qi < cfg.queries; qi++ {
				q := queryPoint(rng, cfg.d)
				k := 1 + qi%10
				sv, _, serr := single.NNQuery(q, k)
				mv, mcost, merr := c.NNQuery(q, k)
				if (serr == nil) != (merr == nil) {
					t.Fatalf("q=%v k=%d: single err=%v, sharded err=%v", q, k, serr, merr)
				}
				if serr != nil {
					continue
				}
				if !sameIDs(sortedIDs(sv.Result()), sortedIDs(mv.Result())) {
					t.Fatalf("q=%v k=%d: single result %v, sharded %v", q, k,
						sortedIDs(sv.Result()), sortedIDs(mv.Result()))
				}
				if !mv.Valid(q) {
					t.Fatalf("q=%v k=%d: merged region does not contain the query point", q, k)
				}
				if mcost.ResultNA <= 0 {
					t.Fatalf("q=%v k=%d: sharded result phase reported no node accesses", q, k)
				}
				for pi := 0; pi < 8; pi++ {
					p := geom.Pt(q.X+(rng.Float64()-0.5)*0.1*u.Width(),
						q.Y+(rng.Float64()-0.5)*0.1*u.Height())
					if mv.Valid(p) && !sv.Valid(p) {
						ids, ok := bfKNNIDs(cfg.d.Items, p, k)
						if ok && !sameIDs(ids, sortedIDs(mv.Result())) {
							t.Fatalf("q=%v k=%d probe=%v: merged region valid but true %d-NN is %v, cached %v",
								q, k, p, k, ids, sortedIDs(mv.Result()))
						}
					}
				}
			}
		})
	}
}

// TestWindowQueryEquivalence: sharded window results equal the single
// server's, and the merged validity region is contained in the single
// server's region (oracle-adjudicated at fp boundaries).
func TestWindowQueryEquivalence(t *testing.T) {
	for _, cfg := range equivConfigs() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			single, c := buildPair(t, cfg)
			rng := rand.New(rand.NewSource(202))
			u := cfg.d.Universe
			for qi := 0; qi < cfg.queries; qi++ {
				q := queryPoint(rng, cfg.d)
				qx := (0.005 + rng.Float64()*0.05) * u.Width()
				qy := (0.005 + rng.Float64()*0.05) * u.Height()
				sv, _ := single.WindowQueryAt(q, qx, qy)
				mv, mcost := c.WindowQueryAt(q, qx, qy)
				if !sameIDs(sortedIDs(sv.Result), sortedIDs(mv.Result)) {
					t.Fatalf("q=%v window %gx%g: single result %d items, sharded %d items",
						q, qx, qy, len(sv.Result), len(mv.Result))
				}
				if mcost.ResultNA <= 0 {
					t.Fatalf("q=%v: sharded window reported no node accesses", q)
				}
				if sv.Valid(q) && !mv.Valid(q) {
					t.Fatalf("q=%v window %gx%g: merged region does not contain the focus", q, qx, qy)
				}
				for pi := 0; pi < 8; pi++ {
					p := geom.Pt(q.X+(rng.Float64()-0.5)*3*qx, q.Y+(rng.Float64()-0.5)*3*qy)
					if mv.Valid(p) && !sv.Valid(p) {
						ids, ok := bfWindowIDs(cfg.d.Items, p, qx, qy)
						if ok && !sameIDs(ids, sortedIDs(mv.Result)) {
							t.Fatalf("q=%v probe=%v: merged region valid but window result differs", q, p)
						}
					}
				}
			}
		})
	}
}

// bfWindowIDs is the brute-force window-content oracle; ok is false
// when an item sits too close to the window boundary to call.
func bfWindowIDs(items []rtree.Item, focus geom.Point, qx, qy float64) (ids []int64, ok bool) {
	hx, hy := qx/2, qy/2
	tol := 1e-9 * (1 + hx + hy)
	for _, it := range items {
		dx, dy := math.Abs(it.P.X-focus.X), math.Abs(it.P.Y-focus.Y)
		if math.Abs(dx-hx) <= tol || math.Abs(dy-hy) <= tol {
			return nil, false
		}
		if dx < hx && dy < hy {
			ids = append(ids, it.ID)
		}
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids, true
}

// TestRangeQueryEquivalence: sharded range results and validity match
// the single server's.
func TestRangeQueryEquivalence(t *testing.T) {
	for _, cfg := range equivConfigs() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			single, c := buildPair(t, cfg)
			rng := rand.New(rand.NewSource(303))
			u := cfg.d.Universe
			for qi := 0; qi < cfg.queries; qi++ {
				q := queryPoint(rng, cfg.d)
				radius := (0.005 + rng.Float64()*0.04) * u.Width()
				sv, _ := single.RangeQuery(q, radius)
				mv, mcost := c.RangeQuery(q, radius)
				if !sameIDs(sortedIDs(sv.Result), sortedIDs(mv.Result)) {
					t.Fatalf("q=%v r=%g: single result %d items, sharded %d",
						q, radius, len(sv.Result), len(mv.Result))
				}
				if len(mv.Result) > 0 && mcost.ResultNA <= 0 {
					t.Fatalf("q=%v r=%g: sharded range reported no node accesses", q, radius)
				}
				if sv.Valid(q) && !mv.Valid(q) {
					t.Fatalf("q=%v r=%g: merged region does not contain the center", q, radius)
				}
				if !sameIDs(sortedIDs(sv.OuterInfluence), sortedIDs(mv.OuterInfluence)) {
					t.Fatalf("q=%v r=%g: outer influence sets differ: single %v, sharded %v",
						q, radius, sortedIDs(sv.OuterInfluence), sortedIDs(mv.OuterInfluence))
				}
				for pi := 0; pi < 8; pi++ {
					p := geom.Pt(q.X+(rng.Float64()-0.5)*4*radius, q.Y+(rng.Float64()-0.5)*4*radius)
					if mv.Valid(p) && !sv.Valid(p) {
						ids, ok := bfRangeIDs(cfg.d.Items, p, radius)
						if ok && !sameIDs(ids, sortedIDs(mv.Result)) {
							t.Fatalf("q=%v r=%g probe=%v: merged region valid but range result differs", q, radius, p)
						}
					}
				}
			}
		})
	}
}

// bfRangeIDs is the brute-force range-content oracle; ok is false when
// an item sits too close to the query circle to call.
func bfRangeIDs(items []rtree.Item, center geom.Point, radius float64) (ids []int64, ok bool) {
	tol := 1e-9 * (1 + radius)
	for _, it := range items {
		d := it.P.Dist(center)
		if math.Abs(d-radius) <= tol {
			return nil, false
		}
		if d < radius {
			ids = append(ids, it.ID)
		}
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids, true
}

// TestRouteNNEquivalence: the merged continuous-NN partition agrees
// with the single-server partition at sampled route positions (by
// nearest distance — ids may differ only at exact ties).
func TestRouteNNEquivalence(t *testing.T) {
	for _, cfg := range equivConfigs() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			tree := cfg.d.Tree()
			_, c := buildPair(t, cfg)
			rng := rand.New(rand.NewSource(404))
			routes := cfg.queries / 4
			for ri := 0; ri < routes; ri++ {
				a := queryPoint(rng, cfg.d)
				b := queryPoint(rng, cfg.d)
				sIvs := tp.CNN(tree, a, b)
				mIvs, err := c.RouteNNCtx(context.Background(), a, b)
				if err != nil {
					t.Fatal(err)
				}
				if len(sIvs) == 0 {
					if len(mIvs) != 0 {
						t.Fatalf("route %v→%v: single empty, sharded %d intervals", a, b, len(mIvs))
					}
					continue
				}
				total := a.Dist(b)
				if got := mIvs[len(mIvs)-1].To; math.Abs(got-total) > 1e-9*(1+total) {
					t.Fatalf("route %v→%v: merged partition ends at %g, route length %g", a, b, got, total)
				}
				for i := 1; i < len(mIvs); i++ {
					if mIvs[i].From != mIvs[i-1].To {
						t.Fatalf("route %v→%v: gap between interval %d and %d", a, b, i-1, i)
					}
					if mIvs[i].NN.ID == mIvs[i-1].NN.ID {
						t.Fatalf("route %v→%v: adjacent intervals share NN %d (not coalesced)", a, b, mIvs[i].NN.ID)
					}
				}
				for si := 0; si < 16; si++ {
					tpos := rng.Float64() * total
					sIv, sok := tp.NNAt(sIvs, tpos)
					mIv, mok := tp.NNAt(mIvs, tpos)
					if sok != mok {
						t.Fatalf("route %v→%v t=%g: NNAt ok mismatch", a, b, tpos)
					}
					if !sok {
						continue
					}
					p := a.Lerp(b, tpos/total)
					ds, dm := p.Dist(sIv.NN.P), p.Dist(mIv.NN.P)
					if math.Abs(ds-dm) > 1e-9*(1+ds) {
						t.Fatalf("route %v→%v t=%g: single NN %d at %g, sharded NN %d at %g",
							a, b, tpos, sIv.NN.ID, ds, mIv.NN.ID, dm)
					}
				}
			}
		})
	}
}

// TestClusterSearchAndCount: CountWindow and SearchItems agree with the
// single server.
func TestClusterSearchAndCount(t *testing.T) {
	cfg := equivConfigs()[0]
	single, c := buildPair(t, cfg)
	rng := rand.New(rand.NewSource(505))
	ctx := context.Background()
	u := cfg.d.Universe
	for i := 0; i < 200; i++ {
		q := queryPoint(rng, cfg.d)
		w := geom.RectCenteredAt(q, rng.Float64()*0.3*u.Width(), rng.Float64()*0.3*u.Height())
		var sIDs []int64
		for _, it := range single.Tree.SearchItems(w) {
			sIDs = append(sIDs, it.ID)
		}
		sort.Slice(sIDs, func(a, b int) bool { return sIDs[a] < sIDs[b] })
		found, err := c.SearchItemsCtx(ctx, w)
		if err != nil {
			t.Fatal(err)
		}
		if got := sortedIDs(found); !sameIDs(got, sIDs) {
			t.Fatalf("w=%v: single search %d items, sharded %d", w, len(sIDs), len(got))
		}
		got, err := c.CountWindowCtx(ctx, w)
		if err != nil {
			t.Fatal(err)
		}
		if want := single.Tree.CountWindow(w); got != want {
			t.Fatalf("w=%v: single count %d, sharded %d", w, want, got)
		}
	}
}

// TestClusterInsertDelete: mutations route to the owning shard and the
// query surface reflects them.
func TestClusterInsertDelete(t *testing.T) {
	d := dataset.Uniform(500, 61)
	c, err := NewCluster(d.Items, d.Universe, Options{Shards: 4, Strategy: Grid})
	if err != nil {
		t.Fatal(err)
	}
	it := rtree.Item{ID: 1 << 40, P: geom.Pt(0.501, 0.499)}
	if err := c.Insert(it); err != nil {
		t.Fatal(err)
	}
	if got := c.Len(); got != 501 {
		t.Fatalf("Len after insert = %d, want 501", got)
	}
	nbs, err := c.KNearestCtx(context.Background(), it.P, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(nbs) != 1 || nbs[0].Item.ID != it.ID {
		t.Fatalf("KNearest after insert: %v", nbs)
	}
	if !c.Delete(it) {
		t.Fatal("Delete reported item absent")
	}
	if c.Delete(it) {
		t.Fatal("second Delete reported item present")
	}
	if err := c.Insert(rtree.Item{ID: 2, P: geom.Pt(5, 5)}); err == nil {
		t.Fatal("want error inserting outside the universe")
	}
	counts := 0
	for _, st := range c.ShardStats() {
		counts += st.Count
	}
	if counts != c.Len() {
		t.Fatalf("shard stats count %d, cluster Len %d", counts, c.Len())
	}
}
