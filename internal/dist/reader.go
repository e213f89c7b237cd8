package dist

import (
	"context"

	"lbsq/internal/core"
	"lbsq/internal/geom"
	"lbsq/internal/nn"
	"lbsq/internal/rtree"
	"lbsq/internal/shard"
	"lbsq/internal/tp"
)

// groupReader is one replica group as a shard.Reader, the part the
// coordinator hands the scatter-gather executor. Every read is a
// hedged call (see call), so replica selection, breakers and retries
// stay below the executor; the item reads drop items the ring assigns
// to another group — copies a running rebalance has not yet cleaned up
// (a no-op in steady state, where every group stores exactly its
// ring-owned items).
type groupReader struct {
	c    *Coordinator
	g    *group
	ring *Ring
}

var _ shard.Reader = groupReader{}

// costed pairs a primitive's answer with its cost for call.
type costed[T, C any] struct {
	v T
	c C
}

// callCosted is call for the primitives answering (value, cost, error).
func callCosted[T, C any](ctx context.Context, r groupReader, fn func(context.Context, shard.Backend) (T, C, error)) (T, C, error) {
	res, err := call(ctx, r.c, r.g, func(ctx context.Context, b shard.Backend) (costed[T, C], error) {
		v, c, err := fn(ctx, b)
		return costed[T, C]{v, c}, err
	})
	return res.v, res.c, err
}

// KNNCandidates implements shard.Reader.
func (r groupReader) KNNCandidates(ctx context.Context, q geom.Point, k int) ([]nn.Neighbor, shard.Cost, error) {
	nbs, c, err := callCosted(ctx, r, func(ctx context.Context, b shard.Backend) ([]nn.Neighbor, shard.Cost, error) {
		return b.KNNCandidates(ctx, q, k)
	})
	return ownedNeighbors(r.ring, r.g.id, nbs), c, err
}

// Influence implements shard.Reader.
func (r groupReader) Influence(ctx context.Context, q geom.Point, members []rtree.Item) (*core.NNValidity, shard.Cost, error) {
	return callCosted(ctx, r, func(ctx context.Context, b shard.Backend) (*core.NNValidity, shard.Cost, error) {
		return b.Influence(ctx, q, members)
	})
}

// Scan implements shard.Reader.
func (r groupReader) Scan(ctx context.Context, rect, skip geom.Rect) ([]rtree.Item, shard.Cost, error) {
	items, c, err := callCosted(ctx, r, func(ctx context.Context, b shard.Backend) ([]rtree.Item, shard.Cost, error) {
		return b.Scan(ctx, rect, skip)
	})
	return ownedItems(r.ring, r.g.id, items), c, err
}

// RangeScan implements shard.Reader.
func (r groupReader) RangeScan(ctx context.Context, center geom.Point, radius float64) ([]rtree.Item, shard.Cost, error) {
	items, c, err := callCosted(ctx, r, func(ctx context.Context, b shard.Backend) ([]rtree.Item, shard.Cost, error) {
		return b.RangeScan(ctx, center, radius)
	})
	return ownedItems(r.ring, r.g.id, items), c, err
}

// RangeOuter implements shard.Reader.
func (r groupReader) RangeOuter(ctx context.Context, search geom.Rect, inner []geom.Disk, radius float64, exclude []int64) ([]rtree.Item, int, shard.Cost, error) {
	type scan struct {
		items []rtree.Item
		cands int
	}
	s, c, err := callCosted(ctx, r, func(ctx context.Context, b shard.Backend) (scan, shard.Cost, error) {
		items, cands, c, err := b.RangeOuter(ctx, search, inner, radius, exclude)
		return scan{items, cands}, c, err
	})
	return ownedItems(r.ring, r.g.id, s.items), s.cands, c, err
}

// Nearest implements shard.Reader.
func (r groupReader) Nearest(ctx context.Context, q geom.Point) (nn.Neighbor, bool, shard.Cost, error) {
	type found struct {
		nb nn.Neighbor
		ok bool
	}
	f, c, err := callCosted(ctx, r, func(ctx context.Context, b shard.Backend) (found, shard.Cost, error) {
		nb, ok, c, err := b.Nearest(ctx, q)
		return found{nb, ok}, c, err
	})
	return f.nb, f.ok, c, err
}

// Route implements shard.Reader.
func (r groupReader) Route(ctx context.Context, a, to geom.Point) ([]tp.CNNInterval, shard.Cost, error) {
	return callCosted(ctx, r, func(ctx context.Context, b shard.Backend) ([]tp.CNNInterval, shard.Cost, error) {
		return b.Route(ctx, a, to)
	})
}

// CountWindow implements shard.Reader. During a rebalance the count
// can transiently include moving items twice.
func (r groupReader) CountWindow(ctx context.Context, w geom.Rect) (int, error) {
	return call(ctx, r.c, r.g, func(ctx context.Context, b shard.Backend) (int, error) {
		return b.CountWindow(ctx, w)
	})
}

// ownedNeighbors drops neighbors whose ring owner is not g — the
// transient-duplication filter applied while a rebalance is copying
// items between groups.
func ownedNeighbors(ring *Ring, g int, nbs []nn.Neighbor) []nn.Neighbor {
	out := nbs[:0:0]
	for _, nb := range nbs {
		if ring.OwnerGroup(nb.Item.P) == g {
			out = append(out, nb)
		}
	}
	return out
}

// ownedItems is ownedNeighbors for bare items.
func ownedItems(ring *Ring, g int, items []rtree.Item) []rtree.Item {
	out := items[:0:0]
	for _, it := range items {
		if ring.OwnerGroup(it.P) == g {
			out = append(out, it)
		}
	}
	return out
}
