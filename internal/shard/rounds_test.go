package shard_test

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"lbsq/internal/dataset"
	"lbsq/internal/geom"
	"lbsq/internal/nn"
	"lbsq/internal/qexec"
	"lbsq/internal/rtree"
	"lbsq/internal/shard"
)

// hookReader runs before ahead of every read that only a later round
// issues: window outer scans (a non-empty skip) and empty-result
// nearest probes.
type hookReader struct {
	shard.Reader
	before func()
}

func (h hookReader) Scan(ctx context.Context, r, skip geom.Rect) ([]rtree.Item, shard.Cost, error) {
	if !skip.IsEmpty() {
		h.before()
	}
	return h.Reader.Scan(ctx, r, skip)
}

func (h hookReader) Nearest(ctx context.Context, q geom.Point) (nn.Neighbor, bool, shard.Cost, error) {
	h.before()
	return h.Reader.Nearest(ctx, q)
}

// roundWriter inserts and deletes points while armed, bumping the
// cache epoch around each write as lbsq.DB does, and records every item
// state it produces.
type roundWriter struct {
	c    *shard.Cluster
	exec *qexec.Executor
	rng  *rand.Rand
	near []geom.Rect // windows whose surroundings the inserts target

	mu     sync.Mutex
	armed  bool
	nextID int64
	items  map[int64]rtree.Item
	states [][]rtree.Item
	writes int
}

func (w *roundWriter) write() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.armed {
		return
	}
	w.exec.Invalidate()
	if w.writes%2 == 0 {
		// Insert just outside a window, where its outer scan looks.
		win := w.near[w.rng.Intn(len(w.near))]
		u := w.c.Universe
		p := geom.Pt(win.Center().X+(w.rng.Float64()-0.5)*2*win.Width(), win.Center().Y+(w.rng.Float64()-0.5)*2*win.Height())
		p = geom.Pt(min(max(p.X, u.MinX), u.MaxX), min(max(p.Y, u.MinY), u.MaxY))
		it := rtree.Item{ID: w.nextID, P: p}
		w.nextID++
		if err := w.c.Insert(it); err != nil {
			panic(err)
		}
		w.items[it.ID] = it
	} else {
		for id, it := range w.items { // map order: a random victim
			if w.c.Delete(it) {
				delete(w.items, id)
			}
			break
		}
	}
	w.exec.Invalidate()
	w.writes++
	w.snapshot()
}

// snapshot records the current item state; the caller holds mu.
func (w *roundWriter) snapshot() {
	state := make([]rtree.Item, 0, len(w.items))
	for _, it := range w.items {
		state = append(state, it)
	}
	w.states = append(w.states, state)
}

// windowIDs is the brute-force content of w in one item state.
func windowIDs(state []rtree.Item, w geom.Rect) map[int64]bool {
	ids := make(map[int64]bool)
	for _, it := range state {
		if w.Contains(it.P) {
			ids[it.ID] = true
		}
	}
	return ids
}

// TestWindowBatchWritesBetweenRounds runs mixed window batches — empty
// and non-empty results, small and large windows — on a Cluster through
// qexec's validity cache, while inserts and deletes land between the
// executor's rounds. Window rounds are not atomic across writes, as NN
// and range rounds are not, so each answer is checked against every
// item state the batch went through: its result must be exactly the
// window's content in one of them, and its region must contain its
// focus. The cache must refuse every answer of a batch that saw a
// write, and serve the answers of a quiet batch unchanged.
func TestWindowBatchWritesBetweenRounds(t *testing.T) {
	d := dataset.Uniform(2000, 81)
	c, err := shard.NewCluster(d.Items, d.Universe, shard.Options{Shards: 4, Strategy: shard.KDMedian, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	exec := qexec.New(nil, nil, c, qexec.Config{CacheSize: 4096})
	rng := rand.New(rand.NewSource(82))
	u := d.Universe
	reqs := make([]qexec.Request, 48)
	wr := &roundWriter{c: c, exec: exec, rng: rand.New(rand.NewSource(83)), nextID: 1 << 40, items: make(map[int64]rtree.Item)}
	for i := range reqs {
		side := 0.005 + 0.08*rng.Float64()
		f := geom.Pt(u.MinX+rng.Float64()*u.Width(), u.MinY+rng.Float64()*u.Height())
		reqs[i] = qexec.Request{Op: qexec.OpWindow, W: geom.RectCenteredAt(f, side*u.Width(), side*u.Height())}
		wr.near = append(wr.near, reqs[i].W)
	}
	for _, it := range d.Items {
		wr.items[it.ID] = it
	}
	c.WrapReaders(func(r shard.Reader) shard.Reader { return hookReader{Reader: r, before: wr.write} })
	ctx := context.Background()

	empty := 0
	for batch := 0; batch < 4; batch++ {
		wr.mu.Lock()
		wr.states = wr.states[:0]
		wr.snapshot()
		wr.armed, wr.writes = true, 0
		wr.mu.Unlock()
		resps, err := exec.Batch(ctx, reqs)
		wr.mu.Lock()
		wr.armed = false
		states, writes := wr.states, wr.writes
		wr.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if writes == 0 {
			t.Fatalf("batch %d: no write landed between rounds", batch)
		}
		for i, r := range resps {
			w := reqs[i].W
			if r.Err != nil {
				t.Fatalf("batch %d window %v: %v", batch, w, r.Err)
			}
			if !r.Window.Valid(w.Center()) {
				t.Fatalf("batch %d window %v: region does not contain its focus", batch, w)
			}
			got := make(map[int64]bool)
			for _, it := range r.Window.Result {
				got[it.ID] = true
			}
			if len(got) == 0 {
				empty++
			}
			matched := false
			for _, st := range states {
				if reflect.DeepEqual(got, windowIDs(st, w)) {
					matched = true
					break
				}
			}
			if !matched {
				t.Fatalf("batch %d window %v: result %v is the content of no item state", batch, w, got)
			}
		}
		if n := exec.Cache().Len(); n != 0 {
			t.Fatalf("batch %d: the cache kept %d answers computed across %d writes", batch, n, writes)
		}
	}
	if empty == 0 {
		t.Fatal("no empty-result window: the nearest-probe round went untested")
	}

	// A quiet batch is cached, and a repeat serves it unchanged.
	quiet, err := exec.Batch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if exec.Cache().Len() == 0 {
		t.Fatal("a batch without writes cached nothing")
	}
	again, err := exec.Batch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i := range again {
		if again[i].CacheHit {
			hits++
			if !reflect.DeepEqual(again[i].Window, quiet[i].Window) {
				t.Fatalf("window %v: cache hit differs from the quiet batch's answer", reqs[i].W)
			}
		}
	}
	if hits == 0 {
		t.Fatal("repeat of a quiet batch hit no cached answer")
	}
}
