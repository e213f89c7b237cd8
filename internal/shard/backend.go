package shard

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"lbsq/internal/core"
	"lbsq/internal/geom"
	"lbsq/internal/nn"
	"lbsq/internal/rtree"
	"lbsq/internal/tp"
)

// Reader is the read half of the per-shard primitive surface: the
// shard-local tasks the scatter-gather Executor is built from. The
// result phase of each query maps to one primitive, the influence phase
// to another, and all global decisions (pruning radii, merged regions,
// bisector clips) stay in the Executor. A LocalBackend serves them from
// an in-process tree; internal/dist serves them from a remote replica
// group.
//
// Every method takes a context first; implementations must honor
// cancellation (a remote backend propagates it as request cancellation,
// a local backend checks it before touching the tree). On error a
// method returns the cost already paid and zero values for everything
// else. Methods are safe for concurrent use.
type Reader interface {
	// KNNCandidates returns the backend's k nearest neighbors of q in
	// (distance, id) order — the NN result-phase primitive.
	KNNCandidates(ctx context.Context, q geom.Point, k int) ([]nn.Neighbor, Cost, error)
	// Influence computes the influence set of the global members
	// against this backend's tree (core.InfluenceSetKNN) — the NN
	// influence-phase primitive. Only Pairs and TPQueries of the
	// returned part are meaningful; the merged region is rebuilt by the
	// Executor from the pairs.
	Influence(ctx context.Context, q geom.Point, members []rtree.Item) (*core.NNValidity, Cost, error)
	// Scan returns the backend's items inside r that lie outside skip
	// (an empty skip excludes nothing), in tree order — the window
	// primitive of both phases: the result scan of w, and the outer
	// scan of the extended query q′ skipping w. It also serves plain
	// window enumeration.
	Scan(ctx context.Context, r, skip geom.Rect) ([]rtree.Item, Cost, error)
	// RangeScan returns the backend's items within radius of center —
	// the range result-phase primitive.
	RangeScan(ctx context.Context, center geom.Point, radius float64) ([]rtree.Item, Cost, error)
	// RangeOuter runs the range influence-phase scan with the global
	// inner disks and radius: the items in search whose disks can reach
	// the inner region, and the count of candidates examined; exclude
	// lists the ids of the global result (never outer influence).
	RangeOuter(ctx context.Context, search geom.Rect, inner []geom.Disk, radius float64, exclude []int64) (outer []rtree.Item, cands int, c Cost, err error)
	// Nearest returns the backend's single nearest neighbor of q; ok is
	// false for an empty backend.
	Nearest(ctx context.Context, q geom.Point) (nb nn.Neighbor, ok bool, c Cost, err error)
	// Route computes the backend-local continuous-NN partition of the
	// segment a→b (tp.CNN); partitions merge by mergeCNN.
	Route(ctx context.Context, a, b geom.Point) ([]tp.CNNInterval, Cost, error)
	// CountWindow counts the backend's items inside w.
	CountWindow(ctx context.Context, w geom.Rect) (int, error)
}

// Backend is one shard as a whole: the Reader primitives plus the
// writes and housekeeping a data node serves over the shard RPC.
type Backend interface {
	Reader
	// Insert adds one point; Delete removes one, reporting presence.
	Insert(ctx context.Context, it rtree.Item) error
	Delete(ctx context.Context, it rtree.Item) (bool, error)
	// Load bulk-inserts items (rebalance transfer and test seeding).
	Load(ctx context.Context, items []rtree.Item) error
	// Unload bulk-deletes items (rebalance cleanup). Items not present
	// are skipped silently — cleanup must be idempotent.
	Unload(ctx context.Context, items []rtree.Item) error
	// Stats reports the backend's size, mutation epoch, and universe.
	Stats(ctx context.Context) (BackendStats, error)
	// Close releases resources held by the backend (idempotent).
	Close() error
}

// Cost is one backend primitive's node/page access delta. Without a
// buffer, page accesses equal node accesses (core.Server accounting).
// Under concurrent queries on the same backend the attribution is
// approximate, exactly as documented on Cluster.
type Cost struct{ NA, PA int64 }

// BackendStats describes one backend for placement and monitoring.
type BackendStats struct {
	// Count is the number of stored points.
	Count int
	// Epoch increments on every mutation (insert/delete/load); the
	// coordinator uses the sum across backends for cache invalidation.
	Epoch uint64
	// Universe is the backend's configured data universe. All backends
	// of a cluster must agree on it; the coordinator rejects mismatches.
	Universe geom.Rect
	// NodeAccesses is the cumulative R-tree node-access counter.
	NodeAccesses int64
}

// LocalBackend adapts one in-process core.Server to the Backend
// interface. It is the reference implementation the remote path is
// validated against, and the adapter a data node uses to expose its
// own tree over the shard RPC endpoint.
//
// Mu serializes tree mutation against queries; when the server is
// shared with another owner (e.g. the embedding DB), pass that owner's
// lock so both sides agree. InsertFn/DeleteFn, when set, replace the
// direct tree mutation so writes route through the owner's full write
// path (session invalidation, cache epoch bumps); they are called
// WITHOUT Mu held and must do their own locking.
type LocalBackend struct {
	Mu  *sync.RWMutex
	Srv *core.Server

	InsertFn func(it rtree.Item) error
	DeleteFn func(it rtree.Item) (bool, error)

	epoch atomic.Uint64
}

// NewLocalBackend wraps srv with a private lock.
func NewLocalBackend(srv *core.Server) *LocalBackend {
	return &LocalBackend{Mu: new(sync.RWMutex), Srv: srv}
}

var _ Backend = (*LocalBackend)(nil)

// read runs fn under the read lock after a cancellation check.
func (b *LocalBackend) read(ctx context.Context, fn func()) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	b.Mu.RLock()
	defer b.Mu.RUnlock()
	fn()
	return nil
}

// delta snapshots the access counters against a baseline.
func (b *LocalBackend) delta(na0, pa0 int64) Cost {
	na := b.Srv.Tree.NodeAccesses() - na0
	pa := b.faults() - pa0
	if b.Srv.Buffer == nil {
		pa = na
	}
	return Cost{NA: na, PA: pa}
}

func (b *LocalBackend) faults() int64 {
	if b.Srv.Buffer == nil {
		return 0
	}
	return b.Srv.Buffer.Faults()
}

// KNNCandidates implements Backend.
func (b *LocalBackend) KNNCandidates(ctx context.Context, q geom.Point, k int) (nbs []nn.Neighbor, c Cost, err error) {
	err = b.read(ctx, func() {
		na0, pa0 := b.Srv.Tree.NodeAccesses(), b.faults()
		nbs = nn.KNearest(b.Srv.Tree, q, k)
		c = b.delta(na0, pa0)
	})
	return nbs, c, err
}

// Influence implements Backend.
func (b *LocalBackend) Influence(ctx context.Context, q geom.Point, members []rtree.Item) (part *core.NNValidity, c Cost, err error) {
	rerr := b.read(ctx, func() {
		na0, pa0 := b.Srv.Tree.NodeAccesses(), b.faults()
		part, err = core.InfluenceSetKNN(b.Srv.Tree, q, members, b.Srv.Universe)
		c = b.delta(na0, pa0)
	})
	if rerr != nil {
		return nil, c, rerr
	}
	if err != nil {
		return nil, c, err
	}
	return part, c, nil
}

// Scan implements Backend.
func (b *LocalBackend) Scan(ctx context.Context, r, skip geom.Rect) (items []rtree.Item, c Cost, err error) {
	err = b.read(ctx, func() {
		na0, pa0 := b.Srv.Tree.NodeAccesses(), b.faults()
		b.Srv.Tree.Search(r, func(it rtree.Item) bool {
			if !skip.Contains(it.P) {
				items = append(items, it)
			}
			return true
		})
		c = b.delta(na0, pa0)
	})
	return items, c, err
}

// RangeScan implements Backend.
func (b *LocalBackend) RangeScan(ctx context.Context, center geom.Point, radius float64) (found []rtree.Item, c Cost, err error) {
	err = b.read(ctx, func() {
		na0, pa0 := b.Srv.Tree.NodeAccesses(), b.faults()
		r2 := radius * radius
		bb := geom.RectCenteredAt(center, 2*radius, 2*radius)
		b.Srv.Tree.Search(bb, func(it rtree.Item) bool {
			if it.P.Dist2(center) <= r2 {
				found = append(found, it)
			}
			return true
		})
		c = b.delta(na0, pa0)
	})
	return found, c, err
}

// RangeOuter implements Backend: it scans the tree for candidate
// outer points whose disks can reach the inner region, filtering with
// the same global lower bound (the farthest single inner disk) as the
// single server.
func (b *LocalBackend) RangeOuter(ctx context.Context, search geom.Rect, inner []geom.Disk, radius float64, exclude []int64) (outer []rtree.Item, cands int, c Cost, err error) {
	inResult := make(map[int64]bool, len(exclude))
	for _, id := range exclude {
		inResult[id] = true
	}
	err = b.read(ctx, func() {
		na0, pa0 := b.Srv.Tree.NodeAccesses(), b.faults()
		b.Srv.Tree.Search(search, func(it rtree.Item) bool {
			if inResult[it.ID] {
				return true
			}
			cands++
			lb := 0.0
			for _, d := range inner {
				if sl := it.P.Dist(d.C) - d.R; sl > lb {
					lb = sl
				}
			}
			if lb < radius {
				outer = append(outer, it)
			}
			return true
		})
		c = b.delta(na0, pa0)
	})
	return outer, cands, c, err
}

// Nearest implements Backend.
func (b *LocalBackend) Nearest(ctx context.Context, q geom.Point) (nb nn.Neighbor, ok bool, c Cost, err error) {
	err = b.read(ctx, func() {
		na0, pa0 := b.Srv.Tree.NodeAccesses(), b.faults()
		nb, ok = nn.Nearest(b.Srv.Tree, q)
		c = b.delta(na0, pa0)
	})
	return nb, ok, c, err
}

// Route implements Backend.
func (b *LocalBackend) Route(ctx context.Context, a, to geom.Point) (ivs []tp.CNNInterval, c Cost, err error) {
	err = b.read(ctx, func() {
		na0, pa0 := b.Srv.Tree.NodeAccesses(), b.faults()
		ivs = tp.CNN(b.Srv.Tree, a, to)
		c = b.delta(na0, pa0)
	})
	return ivs, c, err
}

// CountWindow implements Backend.
func (b *LocalBackend) CountWindow(ctx context.Context, w geom.Rect) (n int, err error) {
	err = b.read(ctx, func() { n = b.Srv.Tree.CountWindow(w) })
	return n, err
}

// Insert implements Backend.
func (b *LocalBackend) Insert(ctx context.Context, it rtree.Item) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	defer b.epoch.Add(1)
	if b.InsertFn != nil {
		return b.InsertFn(it)
	}
	b.Mu.Lock()
	defer b.Mu.Unlock()
	if !b.Srv.Universe.Contains(it.P) {
		return fmt.Errorf("shard: point %v outside universe %v", it.P, b.Srv.Universe)
	}
	b.Srv.Tree.Insert(it)
	return nil
}

// Delete implements Backend.
func (b *LocalBackend) Delete(ctx context.Context, it rtree.Item) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	defer b.epoch.Add(1)
	if b.DeleteFn != nil {
		return b.DeleteFn(it)
	}
	b.Mu.Lock()
	defer b.Mu.Unlock()
	return b.Srv.Tree.Delete(it), nil
}

// Load implements Backend.
func (b *LocalBackend) Load(ctx context.Context, items []rtree.Item) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if b.InsertFn != nil {
		for _, it := range items {
			if err := b.InsertFn(it); err != nil {
				return err
			}
		}
		b.epoch.Add(1)
		return nil
	}
	b.Mu.Lock()
	defer b.Mu.Unlock()
	for _, it := range items {
		if !b.Srv.Universe.Contains(it.P) {
			return fmt.Errorf("shard: point %v outside universe %v", it.P, b.Srv.Universe)
		}
		b.Srv.Tree.Insert(it)
	}
	b.epoch.Add(1)
	return nil
}

// Unload implements Backend: one lock acquisition (or DeleteFn pass)
// for the whole batch, so rebalance cleanup is not a per-item call.
func (b *LocalBackend) Unload(ctx context.Context, items []rtree.Item) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if b.DeleteFn != nil {
		for _, it := range items {
			if _, err := b.DeleteFn(it); err != nil {
				return err
			}
		}
		b.epoch.Add(1)
		return nil
	}
	b.Mu.Lock()
	defer b.Mu.Unlock()
	for _, it := range items {
		b.Srv.Tree.Delete(it)
	}
	b.epoch.Add(1)
	return nil
}

// Stats implements Backend.
func (b *LocalBackend) Stats(ctx context.Context) (BackendStats, error) {
	if err := ctx.Err(); err != nil {
		return BackendStats{}, err
	}
	return b.stats(), nil
}

// stats snapshots the backend's statistics under the read lock.
func (b *LocalBackend) stats() BackendStats {
	b.Mu.RLock()
	defer b.Mu.RUnlock()
	return BackendStats{
		Count:        b.Srv.Tree.Len(),
		Epoch:        b.epoch.Load(),
		Universe:     b.Srv.Universe,
		NodeAccesses: b.Srv.Tree.NodeAccesses(),
	}
}

// bufferStats reports the page buffer's hits and faults; ok is false
// for an unbuffered backend.
func (b *LocalBackend) bufferStats() (hits, faults int64, ok bool) {
	if b.Srv.Buffer == nil {
		return 0, 0, false
	}
	return b.Srv.Buffer.Hits(), b.Srv.Buffer.Faults(), true
}

// Close implements Backend (no resources to release locally).
func (b *LocalBackend) Close() error { return nil }
