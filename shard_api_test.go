package lbsq

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"testing"
)

// TestOpenShardedEquivalence drives the sharded DB through the public
// API and compares every query type against an unsharded DB over the
// same items.
func TestOpenShardedEquivalence(t *testing.T) {
	items, uni := UniformDataset(3000, 41)
	plain, err := Open(items, uni, nil)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(items, uni, &Options{Shards: 4, ShardStrategy: ShardKDMedian})
	if err != nil {
		t.Fatal(err)
	}
	if !db.Sharded() || db.NumShards() != 4 || db.Cluster() == nil || db.Server() != nil {
		t.Fatalf("sharded DB accessors wrong: sharded=%v shards=%d", db.Sharded(), db.NumShards())
	}
	if db.Len() != plain.Len() || db.Universe() != plain.Universe() {
		t.Fatalf("Len/Universe mismatch: %d/%v vs %d/%v", db.Len(), db.Universe(), plain.Len(), plain.Universe())
	}
	stats := db.ShardStatsList()
	if len(stats) != 4 {
		t.Fatalf("ShardStatsList returned %d entries", len(stats))
	}
	count := 0
	for _, st := range stats {
		count += st.Count
	}
	if count != db.Len() {
		t.Fatalf("shard stats sum to %d, Len is %d", count, db.Len())
	}

	ids := func(items []Item) []int64 {
		out := make([]int64, len(items))
		for i, it := range items {
			out[i] = it.ID
		}
		sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
		return out
	}
	eq := func(a, b []int64) bool {
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

	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 300; i++ {
		q := Pt(rng.Float64(), rng.Float64())
		k := 1 + i%8
		pv, _, perr := plain.NN(context.Background(), q, k)
		sv, _, serr := db.NN(context.Background(), q, k)
		if (perr == nil) != (serr == nil) {
			t.Fatalf("NN error mismatch at %v: %v vs %v", q, perr, serr)
		}
		if perr == nil && !eq(ids(pv.Result()), ids(sv.Result())) {
			t.Fatalf("NN result mismatch at %v k=%d", q, k)
		}
		pw, _, err1 := plain.WindowAt(context.Background(), q, 0.05, 0.04)
		sw, _, err2 := db.WindowAt(context.Background(), q, 0.05, 0.04)
		if err1 != nil || err2 != nil {
			t.Fatalf("window error at %v: %v / %v", q, err1, err2)
		}
		if !eq(ids(pw.Result), ids(sw.Result)) {
			t.Fatalf("window result mismatch at %v", q)
		}
		pr, _, err1 := plain.Range(context.Background(), q, 0.03)
		sr, _, err2 := db.Range(context.Background(), q, 0.03)
		if err1 != nil || err2 != nil {
			t.Fatalf("range error at %v: %v / %v", q, err1, err2)
		}
		if !eq(ids(pr.Result), ids(sr.Result)) {
			t.Fatalf("range result mismatch at %v", q)
		}
		w := R(q.X-0.1, q.Y-0.1, q.X+0.1, q.Y+0.1)
		pc, err1 := plain.Count(context.Background(), w)
		dc, err2 := db.Count(context.Background(), w)
		if err1 != nil || err2 != nil {
			t.Fatalf("count error at %v: %v / %v", w, err1, err2)
		}
		if pc != dc {
			t.Fatalf("count mismatch at %v", w)
		}
		ps, err1 := plain.RangeSearch(context.Background(), w)
		ds, err2 := db.RangeSearch(context.Background(), w)
		if err1 != nil || err2 != nil {
			t.Fatalf("range search error at %v: %v / %v", w, err1, err2)
		}
		if !eq(ids(ps), ids(ds)) {
			t.Fatalf("range search mismatch at %v", w)
		}
	}

	// KNearest and RouteNN sanity.
	if nbs, err := db.KNearest(context.Background(), Pt(0.5, 0.5), 5); err != nil || len(nbs) != 5 {
		t.Fatalf("KNearest returned %d neighbors (err %v)", len(nbs), err)
	}
	ivs, err := db.RouteNN(context.Background(), Pt(0.1, 0.1), Pt(0.9, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) == 0 {
		t.Fatal("RouteNN returned no intervals")
	}
}

// TestShardedMobileClients: the caching mobile clients work against a
// sharded DB through the QueryEngine interface.
func TestShardedMobileClients(t *testing.T) {
	items, uni := UniformDataset(2000, 43)
	db, err := OpenSharded(items, uni, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	nnc := db.NewNNClient(3)
	wc := db.NewWindowClient(0.06, 0.06)
	rc := db.NewRangeClient(0.05)
	rng := rand.New(rand.NewSource(44))
	p := Pt(0.5, 0.5)
	for i := 0; i < 50; i++ {
		p = Pt(p.X+(rng.Float64()-0.5)*0.02, p.Y+(rng.Float64()-0.5)*0.02)
		got, err := nnc.At(p)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := db.NN(context.Background(), p, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want.Neighbors) {
			t.Fatalf("client returned %d items, server %d", len(got), len(want.Neighbors))
		}
		if _, err := wc.At(p); err != nil {
			t.Fatal(err)
		}
		if _, err := rc.At(p); err != nil {
			t.Fatal(err)
		}
	}
	if nnc.Stats.ServerQueries == 0 || nnc.Stats.PositionUpdates == 0 {
		t.Fatalf("client stats not accumulated: %+v", nnc.Stats)
	}
}

// TestShardedUnsupported: single-server-only surfaces fail loudly on a
// sharded DB instead of misbehaving.
func TestShardedUnsupported(t *testing.T) {
	items, uni := UniformDataset(500, 45)
	db, err := OpenSharded(items, uni, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.NewZL01Client(0.01); err == nil {
		t.Fatal("NewZL01Client on a sharded DB must error")
	}
	if _, err := db.NewSR01Client(1, 4); !errors.Is(err, ErrShardedUnsupported) {
		t.Errorf("NewSR01Client on a sharded DB: err = %v, want ErrShardedUnsupported", err)
	}
	if _, err := db.NewTP02Client(1); !errors.Is(err, ErrShardedUnsupported) {
		t.Errorf("NewTP02Client on a sharded DB: err = %v, want ErrShardedUnsupported", err)
	}
	if _, err := db.NewNaiveClient(1); !errors.Is(err, ErrShardedUnsupported) {
		t.Errorf("NewNaiveClient on a sharded DB: err = %v, want ErrShardedUnsupported", err)
	}

	if _, err := OpenSharded(items, uni, 0, nil); err == nil {
		t.Fatal("OpenSharded with 0 shards must error")
	}
	one, err := OpenSharded(items, uni, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if one.Sharded() {
		t.Fatal("1-shard DB should use the single-server layout")
	}
}

// TestShardedInsertDelete routes mutations through the public API.
func TestShardedInsertDelete(t *testing.T) {
	items, uni := UniformDataset(1000, 46)
	db, err := OpenSharded(items, uni, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	it := Item{ID: 1 << 41, P: Pt(0.25, 0.75)}
	if err := db.Insert(it); err != nil {
		t.Fatal(err)
	}
	if db.Len() != 1001 {
		t.Fatalf("Len after insert = %d", db.Len())
	}
	v, _, err := db.NN(context.Background(), it.P, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v.Neighbors[0].Item.ID != it.ID {
		t.Fatalf("NN after insert = %d, want %d", v.Neighbors[0].Item.ID, it.ID)
	}
	if ok, err := db.Delete(it); err != nil || !ok {
		t.Fatalf("Delete failed: ok=%v err=%v", ok, err)
	}
	if err := db.Insert(Item{ID: 5, P: Pt(7, 7)}); err == nil {
		t.Fatal("insert outside universe must error")
	}
}
