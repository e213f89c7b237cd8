package shard

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"lbsq/internal/core"
	"lbsq/internal/geom"
	"lbsq/internal/nn"
	"lbsq/internal/rtree"
)

// randomBatch draws a mixed batch of every request kind, including
// degenerate ones (k < 1, zero radius) that must fail or no-op exactly
// like the per-query paths.
func randomBatch(rng *rand.Rand, cfg equivConfig, n int) []BatchReq {
	u := cfg.d.Universe
	reqs := make([]BatchReq, n)
	for i := range reqs {
		q := queryPoint(rng, cfg.d)
		switch rng.Intn(7) {
		case 0:
			reqs[i] = BatchReq{Op: BatchNN, Q: q, K: 1 + rng.Intn(8)}
		case 1:
			reqs[i] = BatchReq{Op: BatchKNN, Q: q, K: rng.Intn(9)} // k=0 allowed
		case 2:
			reqs[i] = BatchReq{Op: BatchWindow, Q: q,
				W: geom.RectCenteredAt(q, (0.005+rng.Float64()*0.05)*u.Width(), (0.005+rng.Float64()*0.05)*u.Height())}
		case 3:
			reqs[i] = BatchReq{Op: BatchRange, Q: q, Radius: rng.Float64() * 0.04 * u.Width()}
		case 4:
			reqs[i] = BatchReq{Op: BatchCount, W: geom.RectCenteredAt(q, rng.Float64()*0.2*u.Width(), rng.Float64()*0.2*u.Height())}
		case 5:
			reqs[i] = BatchReq{Op: BatchSearch, W: geom.RectCenteredAt(q, rng.Float64()*0.2*u.Width(), rng.Float64()*0.2*u.Height())}
		default:
			reqs[i] = BatchReq{Op: BatchNN, Q: q, K: rng.Intn(2)} // k ∈ {0,1}
		}
	}
	return reqs
}

// TestBatchEquivalence: every response of a mixed batch is deeply equal
// to the corresponding per-query scatter answer — results, validity
// regions, influence sets, error presence, and access costs — and
// equivalent to the single server's answer over all items. Both come
// from the one executor, so the single server is the independent
// oracle.
func TestBatchEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, cfg := range equivConfigs() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			single, c := buildPair(t, cfg)
			rng := rand.New(rand.NewSource(707))
			for round := 0; round < 12; round++ {
				reqs := randomBatch(rng, cfg, 1+rng.Intn(24))
				resps, err := c.BatchCtx(ctx, reqs)
				if err != nil {
					t.Fatal(err)
				}
				if len(resps) != len(reqs) {
					t.Fatalf("batch returned %d responses for %d requests", len(resps), len(reqs))
				}
				for i, req := range reqs {
					checkBatchResp(t, c, req, resps[i])
					checkSingle(t, single, req, resps[i])
				}
			}
		})
	}
}

// checkBatchResp compares one batched response against the per-query
// path for the same request.
func checkBatchResp(t *testing.T, c *Cluster, req BatchReq, got BatchResp) {
	t.Helper()
	switch req.Op {
	case BatchNN:
		want, wantCost, wantErr := c.NNQuery(req.Q, req.K)
		if (wantErr == nil) != (got.Err == nil) {
			t.Fatalf("NN q=%v k=%d: per-query err=%v, batched err=%v", req.Q, req.K, wantErr, got.Err)
		}
		if wantErr != nil {
			if wantErr.Error() != got.Err.Error() {
				t.Fatalf("NN q=%v k=%d: per-query err %q, batched %q", req.Q, req.K, wantErr, got.Err)
			}
			return
		}
		if !reflect.DeepEqual(want, got.NN) {
			t.Fatalf("NN q=%v k=%d: batched validity differs from per-query", req.Q, req.K)
		}
		if wantCost != got.Cost {
			t.Fatalf("NN q=%v k=%d: per-query cost %+v, batched %+v", req.Q, req.K, wantCost, got.Cost)
		}
	case BatchKNN:
		want, err := c.KNearestCtx(context.Background(), req.Q, req.K)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got.Neighbors) {
			t.Fatalf("kNN q=%v k=%d: per-query %v, batched %v", req.Q, req.K, want, got.Neighbors)
		}
		if got.Err != nil {
			t.Fatalf("kNN q=%v k=%d: unexpected batched error %v", req.Q, req.K, got.Err)
		}
	case BatchWindow:
		want, wantCost := c.WindowQuery(req.W)
		if !reflect.DeepEqual(want, got.Window) {
			t.Fatalf("window %v: batched validity differs from per-query", req.W)
		}
		if wantCost != got.Cost {
			t.Fatalf("window %v: per-query cost %+v, batched %+v", req.W, wantCost, got.Cost)
		}
	case BatchRange:
		want, wantCost := c.RangeQuery(req.Q, req.Radius)
		if !reflect.DeepEqual(want, got.Range) {
			t.Fatalf("range q=%v r=%g: batched validity differs from per-query", req.Q, req.Radius)
		}
		if wantCost != got.Cost {
			t.Fatalf("range q=%v r=%g: per-query cost %+v, batched %+v", req.Q, req.Radius, wantCost, got.Cost)
		}
	case BatchCount:
		want, err := c.CountWindowCtx(context.Background(), req.W)
		if err != nil {
			t.Fatal(err)
		}
		if want != got.Count {
			t.Fatalf("count %v: per-query %d, batched %d", req.W, want, got.Count)
		}
	case BatchSearch:
		items, err := c.SearchItemsCtx(context.Background(), req.W)
		if err != nil {
			t.Fatal(err)
		}
		want := sortedIDs(items)
		if !sameIDs(want, sortedIDs(got.Items)) {
			t.Fatalf("search %v: per-query %d items, batched %d", req.W, len(want), len(got.Items))
		}
	}
}

// checkSingle compares one sharded answer with the single server's
// answer over all items (sharded ≡ single server). Results, range and
// window answers must be equal (windowDiff). NN regions must be equal
// in area (bisector clips run in another order, so vertices may differ
// in the last bit); the single server's NN influence set is minimal,
// while a shard reports the influence objects of its own larger local
// region, so every single-server influence object must be in the
// sharded set.
func checkSingle(t *testing.T, single *core.Server, req BatchReq, got BatchResp) {
	t.Helper()
	switch req.Op {
	case BatchNN:
		want, _, wantErr := single.NNQuery(req.Q, req.K)
		if (wantErr == nil) != (got.Err == nil) {
			t.Fatalf("NN q=%v k=%d: single err=%v, sharded err=%v", req.Q, req.K, wantErr, got.Err)
		}
		if wantErr != nil {
			return
		}
		if !sameIDs(sortedIDs(want.Result()), sortedIDs(got.NN.Result())) {
			t.Fatalf("NN q=%v k=%d: single result %v, sharded %v", req.Q, req.K, sortedIDs(want.Result()), sortedIDs(got.NN.Result()))
		}
		if !containsIDs(got.NN.Influence, want.Influence) {
			t.Fatalf("NN q=%v k=%d: sharded influence %v misses single %v", req.Q, req.K, sortedIDs(got.NN.Influence), sortedIDs(want.Influence))
		}
		if a, b := want.Region.Area(), got.NN.Region.Area(); !sameArea(a, b) {
			t.Fatalf("NN q=%v k=%d: single region area %g, sharded %g", req.Q, req.K, a, b)
		}
	case BatchKNN:
		var want []rtree.Item
		for _, nb := range nn.KNearest(single.Tree, req.Q, req.K) {
			want = append(want, nb.Item)
		}
		var gotItems []rtree.Item
		for _, nb := range got.Neighbors {
			gotItems = append(gotItems, nb.Item)
		}
		if !sameIDs(sortedIDs(want), sortedIDs(gotItems)) {
			t.Fatalf("kNN q=%v k=%d: single %v, sharded %v", req.Q, req.K, sortedIDs(want), sortedIDs(gotItems))
		}
	case BatchWindow:
		want, _ := single.WindowQuery(req.W)
		if diff := windowDiff(want, got.Window); diff != "" {
			t.Fatalf("window %v: %s", req.W, diff)
		}
	case BatchRange:
		want, _ := single.RangeQuery(req.Q, req.Radius)
		rv := got.Range
		if !sameIDs(sortedIDs(want.Result), sortedIDs(rv.Result)) ||
			!sameIDs(sortedIDs(want.InnerInfluence), sortedIDs(rv.InnerInfluence)) ||
			!sameIDs(sortedIDs(want.OuterInfluence), sortedIDs(rv.OuterInfluence)) {
			t.Fatalf("range q=%v r=%g: single and sharded result or influence sets differ", req.Q, req.Radius)
		}
		if !reflect.DeepEqual(want.Inner, rv.Inner) {
			t.Fatalf("range q=%v r=%g: single inner region %v, sharded %v", req.Q, req.Radius, want.Inner, rv.Inner)
		}
	case BatchCount:
		if want := single.Tree.CountWindow(req.W); want != got.Count {
			t.Fatalf("count %v: single %d, sharded %d", req.W, want, got.Count)
		}
	case BatchSearch:
		if want := sortedIDs(single.Tree.SearchItems(req.W)); !sameIDs(want, sortedIDs(got.Items)) {
			t.Fatalf("search %v: single %d items, sharded %d", req.W, len(want), len(got.Items))
		}
	}
}

// windowDiff describes how a sharded window answer differs from the
// single server's, or returns "" when they are equal: the same result
// and influence id sets, the same inner and conservative rectangles
// exactly, and the same multiset of holes.
func windowDiff(want, got *core.WindowValidity) string {
	switch {
	case !sameIDs(sortedIDs(want.Result), sortedIDs(got.Result)):
		return fmt.Sprintf("single result %v, sharded %v", sortedIDs(want.Result), sortedIDs(got.Result))
	case want.InnerRect != got.InnerRect:
		return fmt.Sprintf("single inner rect %v, sharded %v", want.InnerRect, got.InnerRect)
	case !sameRects(want.Region.Holes, got.Region.Holes):
		return fmt.Sprintf("single holes %v, sharded %v", want.Region.Holes, got.Region.Holes)
	case !sameIDs(sortedIDs(want.InnerInfluence), sortedIDs(got.InnerInfluence)):
		return fmt.Sprintf("single inner influence %v, sharded %v", sortedIDs(want.InnerInfluence), sortedIDs(got.InnerInfluence))
	case !sameIDs(sortedIDs(want.OuterInfluence), sortedIDs(got.OuterInfluence)):
		return fmt.Sprintf("single outer influence %v, sharded %v", sortedIDs(want.OuterInfluence), sortedIDs(got.OuterInfluence))
	case want.Conservative != got.Conservative:
		return fmt.Sprintf("single conservative rect %v, sharded %v", want.Conservative, got.Conservative)
	}
	return ""
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

// sameArea compares two region areas with a relative tolerance.
func sameArea(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a))
}

// TestBatchCancellation: a cancelled context aborts the batch with the
// context error and no responses.
func TestBatchCancellation(t *testing.T) {
	cfg := equivConfigs()[0]
	_, c := buildPair(t, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	resps, err := c.BatchCtx(ctx, []BatchReq{{Op: BatchNN, Q: geom.Pt(0.5, 0.5), K: 2}})
	if err == nil {
		t.Fatal("want context error from cancelled batch")
	}
	if resps != nil {
		t.Fatalf("want nil responses on batch-level error, got %d", len(resps))
	}
}

// TestBatchEmpty: an empty batch is a no-op.
func TestBatchEmpty(t *testing.T) {
	cfg := equivConfigs()[0]
	_, c := buildPair(t, cfg)
	resps, err := c.BatchCtx(context.Background(), nil)
	if err != nil || len(resps) != 0 {
		t.Fatalf("empty batch: resps=%v err=%v", resps, err)
	}
}
