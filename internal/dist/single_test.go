package dist_test

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"lbsq/internal/core"
	"lbsq/internal/geom"
	"lbsq/internal/nn"
	"lbsq/internal/rtree"
	"lbsq/internal/tp"
)

// The single-server oracle. The coordinator and shard.Cluster run the
// same scatter-gather executor, so their parity alone cannot catch an
// executor bug; every coordinator answer is also compared with one
// core.Server over all items (sharded ≡ single server). Results, range
// and window answers must be equal — a window down to its holes,
// influence sets and conservative rectangle. NN regions must be equal
// in area (bisector clips run in another order, so vertices may differ
// in the last bit); the single server's NN influence set is minimal,
// while a group reports the influence objects of its own larger local
// region, so every single-server influence object must be in the
// coordinator's set.

// newSingle builds the single-server oracle over all items.
func newSingle(items []rtree.Item, universe geom.Rect) *core.Server {
	return core.NewServer(rtree.BulkLoad(items, rtree.Options{}, 0), universe)
}

func ids(items []rtree.Item) []int64 {
	out := make([]int64, len(items))
	for i, it := range items {
		out[i] = it.ID
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func neighborItems(nbs []nn.Neighbor) []rtree.Item {
	out := make([]rtree.Item, len(nbs))
	for i, nb := range nbs {
		out[i] = nb.Item
	}
	return out
}

func sameIDs(a, b []rtree.Item) bool {
	x, y := ids(a), ids(b)
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// containsIDs reports whether every item of sub is in set (by id).
func containsIDs(set, sub []rtree.Item) bool {
	in := make(map[int64]bool, len(set))
	for _, it := range set {
		in[it.ID] = true
	}
	for _, it := range sub {
		if !in[it.ID] {
			return false
		}
	}
	return true
}

func sameArea(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a))
}

func checkSingleNN(t *testing.T, single *core.Server, q geom.Point, k int, got *core.NNValidity) {
	t.Helper()
	want, _, err := single.NNQuery(q, k)
	if err != nil {
		t.Fatalf("single NN(%v,%d): %v", q, k, err)
	}
	if !sameIDs(want.Result(), got.Result()) {
		t.Fatalf("NN(%v,%d): single result %v, coordinator %v", q, k, ids(want.Result()), ids(got.Result()))
	}
	if !containsIDs(got.Influence, want.Influence) {
		t.Fatalf("NN(%v,%d): coordinator influence %v misses single %v", q, k, ids(got.Influence), ids(want.Influence))
	}
	if a, b := want.Region.Area(), got.Region.Area(); !sameArea(a, b) {
		t.Fatalf("NN(%v,%d): single region area %g, coordinator %g", q, k, a, b)
	}
}

func checkSingleKNN(t *testing.T, single *core.Server, q geom.Point, k int, got []nn.Neighbor) {
	t.Helper()
	if want := neighborItems(nn.KNearest(single.Tree, q, k)); !sameIDs(want, neighborItems(got)) {
		t.Fatalf("KNearest(%v,%d): single %v, coordinator %v", q, k, ids(want), ids(neighborItems(got)))
	}
}

func checkSingleWindow(t *testing.T, single *core.Server, w geom.Rect, got *core.WindowValidity) {
	t.Helper()
	want, _ := single.WindowQuery(w)
	switch {
	case !sameIDs(want.Result, got.Result):
		t.Fatalf("Window(%v): single result %v, coordinator %v", w, ids(want.Result), ids(got.Result))
	case want.InnerRect != got.InnerRect:
		t.Fatalf("Window(%v): single inner rect %v, coordinator %v", w, want.InnerRect, got.InnerRect)
	case !sameRects(want.Region.Holes, got.Region.Holes):
		t.Fatalf("Window(%v): single holes %v, coordinator %v", w, want.Region.Holes, got.Region.Holes)
	case !sameIDs(want.InnerInfluence, got.InnerInfluence):
		t.Fatalf("Window(%v): single inner influence %v, coordinator %v", w, ids(want.InnerInfluence), ids(got.InnerInfluence))
	case !sameIDs(want.OuterInfluence, got.OuterInfluence):
		t.Fatalf("Window(%v): single outer influence %v, coordinator %v", w, ids(want.OuterInfluence), ids(got.OuterInfluence))
	case want.Conservative != got.Conservative:
		t.Fatalf("Window(%v): single conservative rect %v, coordinator %v", w, want.Conservative, got.Conservative)
	}
}

// sameRects reports whether a and b hold the same rectangles with the
// same multiplicities, in any order.
func sameRects(a, b []geom.Rect) bool {
	if len(a) != len(b) {
		return false
	}
	n := make(map[geom.Rect]int, len(a))
	for _, r := range a {
		n[r]++
	}
	for _, r := range b {
		if n[r]--; n[r] < 0 {
			return false
		}
	}
	return true
}

func checkSingleRange(t *testing.T, single *core.Server, center geom.Point, radius float64, got *core.RangeValidity) {
	t.Helper()
	want, _ := single.RangeQuery(center, radius)
	if !sameIDs(want.Result, got.Result) || !sameIDs(want.InnerInfluence, got.InnerInfluence) ||
		!sameIDs(want.OuterInfluence, got.OuterInfluence) {
		t.Fatalf("Range(%v,%g): single and coordinator result or influence sets differ", center, radius)
	}
	if !reflect.DeepEqual(want.Inner, got.Inner) {
		t.Fatalf("Range(%v,%g): single inner region %v, coordinator %v", center, radius, want.Inner, got.Inner)
	}
}

// checkSingleRoute compares the nearest neighbor's distance along the
// route at each partition boundary and midpoint (ids may differ only
// at exact ties).
func checkSingleRoute(t *testing.T, single *core.Server, a, b geom.Point, got []tp.CNNInterval) {
	t.Helper()
	want := tp.CNN(single.Tree, a, b)
	total := a.Dist(b)
	for _, iv := range want {
		for _, pos := range []float64{iv.From, (iv.From + iv.To) / 2} {
			wIv, wok := tp.NNAt(want, pos)
			gIv, gok := tp.NNAt(got, pos)
			if wok != gok {
				t.Fatalf("RouteNN(%v,%v) t=%g: NNAt ok mismatch", a, b, pos)
			}
			if !wok || geom.ExactZero(total) {
				continue
			}
			p := a.Lerp(b, pos/total)
			if dw, dg := p.Dist(wIv.NN.P), p.Dist(gIv.NN.P); math.Abs(dw-dg) > 1e-9*(1+dw) {
				t.Fatalf("RouteNN(%v,%v) t=%g: single NN at %g, coordinator at %g", a, b, pos, dw, dg)
			}
		}
	}
}
