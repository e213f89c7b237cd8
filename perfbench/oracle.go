package main

import (
	"context"
	"fmt"
	"sort"

	"lbsq"
	"lbsq/internal/geom"
)

// itemSet is the oracle's copy of the dataset: answers are checked
// against a brute-force scan of it.
type itemSet struct {
	pos   map[int64]int
	items []lbsq.Item
}

func newItemSet(items []lbsq.Item) *itemSet {
	s := &itemSet{pos: make(map[int64]int, len(items)), items: make([]lbsq.Item, 0, len(items))}
	for _, it := range items {
		s.add(it)
	}
	return s
}

func (s *itemSet) add(it lbsq.Item) {
	s.pos[it.ID] = len(s.items)
	s.items = append(s.items, it)
}

func (s *itemSet) remove(it lbsq.Item) {
	i, ok := s.pos[it.ID]
	if !ok {
		return
	}
	last := s.items[len(s.items)-1]
	s.items[i] = last
	s.pos[last.ID] = i
	s.items = s.items[:len(s.items)-1]
	delete(s.pos, it.ID)
}

func (s *itemSet) apply(o op) {
	if o.kind == kindInsert {
		s.add(o.item)
	} else {
		s.remove(o.item)
	}
}

func dist2(a, b lbsq.Point) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return dx*dx + dy*dy
}

// knn returns the k smallest squared distances from q, ascending.
func (s *itemSet) knn(q lbsq.Point, k int) []float64 {
	best := make([]float64, 0, k+1)
	for _, it := range s.items {
		d := dist2(q, it.P)
		if len(best) == k && d >= best[k-1] {
			continue
		}
		i := sort.SearchFloat64s(best, d)
		best = append(best, 0)
		copy(best[i+1:], best[i:])
		best[i] = d
		if len(best) > k {
			best = best[:k]
		}
	}
	return best
}

// checkNeighbors verifies that items are k nearest neighbors of q in
// the set: each exists at its stored position, and their distances
// equal the brute-force k smallest (ties may pick either item).
func (s *itemSet) checkNeighbors(q lbsq.Point, k int, got []lbsq.Item) error {
	if len(got) != k {
		return fmt.Errorf("%d neighbors, want %d", len(got), k)
	}
	for _, it := range got {
		j, ok := s.pos[it.ID]
		if !ok || !geom.SamePoint(s.items[j].P, it.P) {
			return fmt.Errorf("neighbor %d at %v is not in the dataset", it.ID, it.P)
		}
	}
	d := distances(q, got)
	want := s.knn(q, k)
	for i := range want {
		if !geom.ExactEq(d[i], want[i]) {
			return fmt.Errorf("kNN at %v: distance² %d is %g, brute force %g", q, i, d[i], want[i])
		}
	}
	return nil
}

// distances returns the squared distances from q to items, ascending.
func distances(q lbsq.Point, items []lbsq.Item) []float64 {
	d := make([]float64, len(items))
	for i, it := range items {
		d[i] = dist2(q, it.P)
	}
	sort.Float64s(d)
	return d
}

// checkWindow verifies that result is exactly the set inside w.
func (s *itemSet) checkWindow(w lbsq.Rect, result []lbsq.Item) error {
	got := make(map[int64]bool, len(result))
	for _, it := range result {
		got[it.ID] = true
	}
	n := 0
	for _, it := range s.items {
		if w.Contains(it.P) {
			n++
			if !got[it.ID] {
				return fmt.Errorf("window %v misses item %d", w, it.ID)
			}
		}
	}
	if n != len(got) {
		return fmt.Errorf("window %v: %d items, brute force %d", w, len(got), n)
	}
	return nil
}

func (s *itemSet) checkNN(q lbsq.Point, k int, v *lbsq.NNValidity) error {
	if !v.Valid(q) {
		return fmt.Errorf("NN validity region does not contain its query point %v", q)
	}
	return s.checkNeighbors(q, k, v.Result())
}

func (s *itemSet) checkWindowAnswer(w lbsq.Rect, wv *lbsq.WindowValidity) error {
	if !wv.Valid(w.Center()) {
		return fmt.Errorf("window validity region does not contain its focus %v", w.Center())
	}
	return s.checkWindow(w, wv.Result)
}

// verify checks every sampled answer against the dataset as it stood
// after the writes acknowledged before the answer was produced. On a
// static dataset, NN session answers must also equal DB.KNearest.
func verify(in *inputs, r *runner, db *lbsq.DB) (int, error) {
	sort.SliceStable(r.checks, func(i, j int) bool { return r.checks[i].version < r.checks[j].version })
	set := newItemSet(in.items)
	applied := 0
	for _, c := range r.checks {
		for applied < c.version {
			set.apply(r.acked[applied])
			applied++
		}
		if err := checkOne(set, in, c, db, len(r.acked) == 0); err != nil {
			return 0, fmt.Errorf("%s answer: %w", c.o.kind, err)
		}
	}
	return len(r.checks), nil
}

func checkOne(set *itemSet, in *inputs, c check, db *lbsq.DB, static bool) error {
	o := c.o
	switch o.kind {
	case kindNN:
		v, err := lbsq.DecodeNN(c.res.body)
		if err != nil {
			return err
		}
		return set.checkNN(o.p, o.k, v)
	case kindWindow:
		wv, err := lbsq.DecodeWindow(c.res.body, in.universe)
		if err != nil {
			return err
		}
		return set.checkWindowAnswer(geom.RectCenteredAt(o.p, o.qx, o.qy), wv)
	case kindBatch:
		resps, err := batchResponses(c.res.body)
		if err != nil {
			return err
		}
		if len(resps) != len(o.batch) {
			return fmt.Errorf("%d batch answers, want %d", len(resps), len(o.batch))
		}
		for i, req := range o.batch {
			if resps[i].Error != "" {
				return fmt.Errorf("batch request %d: %s", i, resps[i].Error)
			}
			if req.Op == lbsq.BatchNN {
				v, err := lbsq.DecodeNN(resps[i].NN)
				if err == nil {
					err = set.checkNN(req.Q, req.K, v)
				}
				if err != nil {
					return fmt.Errorf("batch request %d: %w", i, err)
				}
				continue
			}
			wv, err := lbsq.DecodeWindow(resps[i].Window, in.universe)
			if err == nil {
				err = set.checkWindowAnswer(req.W, wv)
			}
			if err != nil {
				return fmt.Errorf("batch request %d: %w", i, err)
			}
		}
		return nil
	case kindMove:
		spec := in.sessions[o.client]
		if spec.window {
			w := geom.RectCenteredAt(o.p, spec.qx, spec.qy)
			if !c.res.win.Valid(o.p) {
				return fmt.Errorf("window session region does not contain the position %v", o.p)
			}
			return set.checkWindow(w, c.res.win.Result)
		}
		if !c.res.nn.Valid(o.p) {
			return fmt.Errorf("NN session region does not contain the position %v", o.p)
		}
		if err := set.checkNeighbors(o.p, spec.k, c.res.nn.Result()); err != nil {
			return err
		}
		if !static {
			return nil
		}
		nbs, err := db.KNearest(context.Background(), o.p, spec.k)
		if err != nil {
			return err
		}
		items := make([]lbsq.Item, len(nbs))
		for i, nb := range nbs {
			items[i] = nb.Item
		}
		if err := set.checkNeighbors(o.p, spec.k, items); err != nil {
			return fmt.Errorf("DB.KNearest disagrees with the brute force: %w", err)
		}
		want, got := distances(o.p, items), distances(o.p, c.res.nn.Result())
		for i := range want {
			if !geom.ExactEq(want[i], got[i]) {
				return fmt.Errorf("session answer differs from DB.KNearest at %v", o.p)
			}
		}
	}
	return nil
}

// verifyRecovery reopens a closed durable store and checks that it
// holds exactly the acknowledged item set.
func verifyRecovery(w *workload, in *inputs, r *runner, dir string) error {
	opts := w.options(dir)
	opts.DataDir = ""
	db, err := lbsq.OpenDir(dir, &opts)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer db.Close()
	set := newItemSet(in.items)
	for _, o := range r.acked {
		set.apply(o)
	}
	got, err := db.RangeSearch(context.Background(), in.universe)
	if err != nil {
		return err
	}
	if len(got) != len(set.items) {
		return fmt.Errorf("recovered %d items, acknowledged %d", len(got), len(set.items))
	}
	for _, it := range got {
		j, ok := set.pos[it.ID]
		if !ok || !geom.SamePoint(set.items[j].P, it.P) {
			return fmt.Errorf("recovered item %d at %v was not acknowledged", it.ID, it.P)
		}
	}
	return nil
}
