package shard

import (
	"context"
	"fmt"
	"runtime"

	"lbsq/internal/core"
	"lbsq/internal/geom"
	"lbsq/internal/nn"
	"lbsq/internal/obs"
	"lbsq/internal/rtree"
	"lbsq/internal/tp"
)

// Options configures a Cluster.
type Options struct {
	// Shards is the number of spatial partitions (≥ 1).
	Shards int
	// Strategy selects the partitioning strategy (default Grid).
	Strategy Strategy
	// Workers bounds the scatter-gather worker pool shared by all
	// queries on the cluster; zero selects GOMAXPROCS.
	Workers int
	// PageSize, BufferFraction, BulkLoadFill configure each shard's
	// R*-tree exactly as the corresponding lbsq.Options fields do for a
	// single server. BufferFraction sizes each shard's LRU buffer
	// relative to that shard's tree.
	PageSize       int
	BufferFraction float64
	BulkLoadFill   float64
	// Registry receives the cluster's metrics (scatter width, per-task
	// latency, prune effectiveness, queue depth, buffer hits/misses).
	// Nil gives the cluster a private registry; read it with
	// Cluster.Registry.
	Registry *obs.Registry
}

// Cluster is a sharded location-based query processor: it owns one
// LocalBackend per spatial partition and answers the full query surface
// by running the scatter-gather Executor over them, merging per-shard
// results and intersecting their validity regions. It implements
// core.QueryEngine.
//
// Cluster is safe for concurrent use. Queries on disjoint shards
// proceed fully in parallel; Insert/Delete lock only the owning shard.
// Per-query QueryCost deltas are attributed approximately when queries
// overlap on a shard (the counters are shared, as in core.Server).
type Cluster struct {
	Universe geom.Rect

	shards []*LocalBackend
	exec   *Executor // one part per shard, tile = responsibility rectangle

	reg *obs.Registry
	met *clusterMetrics
}

// Stats describes one shard for monitoring (the /info endpoint).
type Stats struct {
	// Resp is the shard's responsibility rectangle.
	Resp geom.Rect
	// Count is the number of items currently stored in the shard.
	Count int
	// NodeAccesses is the shard tree's cumulative node-access counter.
	NodeAccesses int64
}

// NewCluster partitions items into opts.Shards spatial shards over the
// universe and bulk-loads one R*-tree per shard.
func NewCluster(items []rtree.Item, universe geom.Rect, opts Options) (*Cluster, error) {
	if opts.Shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d, want ≥ 1", opts.Shards)
	}
	parts, err := Partitions(items, universe, opts.Shards, opts.Strategy)
	if err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	c := &Cluster{Universe: universe, exec: &Executor{Universe: universe, Pool: make(chan struct{}, workers)}}
	for _, p := range parts {
		tree := rtree.BulkLoad(p.Items, rtree.Options{PageSize: opts.PageSize}, opts.BulkLoadFill)
		srv := core.NewServer(tree, universe)
		if opts.BufferFraction > 0 {
			srv.AttachBuffer(opts.BufferFraction)
		}
		b := NewLocalBackend(srv)
		c.shards = append(c.shards, b)
		c.exec.Parts = append(c.exec.Parts, Part{Reader: b, Tiles: []geom.Rect{p.Resp}})
	}
	c.reg = opts.Registry
	if c.reg == nil {
		c.reg = obs.NewRegistry()
	}
	c.met = newClusterMetrics(c.reg, c)
	c.exec.met = c.met
	return c, nil
}

// Registry returns the registry holding the cluster's metrics.
func (c *Cluster) Registry() *obs.Registry { return c.reg }

// TasksStarted returns the cumulative number of shard-local tasks the
// cluster has executed. Deltas around a query approximate the shards it
// touched (exact when queries do not overlap).
func (c *Cluster) TasksStarted() int64 { return c.met.tasks.Load() }

// NumShards returns the number of shards.
func (c *Cluster) NumShards() int { return len(c.shards) }

// UniverseRect returns the data universe (core.QueryEngine).
func (c *Cluster) UniverseRect() geom.Rect { return c.Universe }

// Len returns the total number of stored points across shards.
func (c *Cluster) Len() int {
	n := 0
	for _, b := range c.shards {
		n += b.stats().Count
	}
	return n
}

// ShardStats reports per-shard statistics in shard order.
func (c *Cluster) ShardStats() []Stats {
	out := make([]Stats, len(c.shards))
	for i, b := range c.shards {
		st := b.stats()
		out[i] = Stats{Resp: c.exec.Parts[i].Tiles[0], Count: st.Count, NodeAccesses: st.NodeAccesses}
	}
	return out
}

// owner returns the shard responsible for p under the canonical owner
// rule (first responsibility rectangle containing p), or nil when p is
// outside every shard.
func (c *Cluster) owner(p geom.Point) *LocalBackend {
	for i, part := range c.exec.Parts {
		if part.Tiles[0].Contains(p) {
			return c.shards[i]
		}
	}
	return nil
}

// Insert adds a point to its owning shard.
func (c *Cluster) Insert(it rtree.Item) error {
	b := c.owner(it.P)
	if b == nil {
		return fmt.Errorf("shard: point %v outside universe %v", it.P, c.Universe)
	}
	return b.Insert(context.Background(), it)
}

// Delete removes a point from its owning shard, reporting whether it
// was present.
func (c *Cluster) Delete(it rtree.Item) bool {
	b := c.owner(it.P)
	if b == nil {
		return false
	}
	// A local delete fails only on cancellation; Background has none.
	ok, err := b.Delete(context.Background(), it)
	return ok && err == nil
}

// BatchCtx executes a batch of queries with grouped per-shard scatter
// (see Executor). The returned slice parallels reqs; per-request errors
// are carried in BatchResp.Err. Local reads fail only on cancellation,
// which aborts the whole batch, so cluster answers never list Failed
// shards.
func (c *Cluster) BatchCtx(ctx context.Context, reqs []BatchReq) ([]BatchResp, error) {
	return c.exec.Run(ctx, reqs)
}

// one runs a single request through the executor.
func (c *Cluster) one(ctx context.Context, req BatchReq) BatchResp {
	resps, err := c.BatchCtx(ctx, []BatchReq{req})
	if err != nil {
		return BatchResp{Err: err}
	}
	return resps[0]
}

// NNQueryCtx answers a location-based k-nearest-neighbor query by
// scatter-gather (see Executor.planNN): a cancelled context aborts the
// fan-out between shard tasks and returns the context error.
func (c *Cluster) NNQueryCtx(ctx context.Context, q geom.Point, k int) (*core.NNValidity, core.QueryCost, error) {
	r := c.one(ctx, BatchReq{Op: BatchNN, Q: q, K: k})
	return r.NN, r.Cost, r.Err
}

// KNearestCtx returns the k nearest neighbors of q across all shards (a
// plain k-NN query, without validity computation).
func (c *Cluster) KNearestCtx(ctx context.Context, q geom.Point, k int) ([]nn.Neighbor, error) {
	r := c.one(ctx, BatchReq{Op: BatchKNN, Q: q, K: k})
	return r.Neighbors, r.Err
}

// WindowQueryCtx answers a location-based window query by
// scatter-gather (see Executor.planWindow): a cancelled context aborts
// the fan-out between shard tasks and returns the context error with a
// nil validity.
func (c *Cluster) WindowQueryCtx(ctx context.Context, w geom.Rect) (*core.WindowValidity, core.QueryCost, error) {
	r := c.one(ctx, BatchReq{Op: BatchWindow, W: w})
	return r.Window, r.Cost, r.Err
}

// WindowQueryAtCtx is WindowQueryCtx for the window of extents qx×qy
// centered at the focus.
func (c *Cluster) WindowQueryAtCtx(ctx context.Context, focus geom.Point, qx, qy float64) (*core.WindowValidity, core.QueryCost, error) {
	return c.WindowQueryCtx(ctx, geom.RectCenteredAt(focus, qx, qy))
}

// RangeQueryCtx answers a location-based range query by scatter-gather
// (see Executor.planRange): a cancelled context aborts the fan-out
// between shard tasks and returns the context error with a nil
// validity.
func (c *Cluster) RangeQueryCtx(ctx context.Context, center geom.Point, radius float64) (*core.RangeValidity, core.QueryCost, error) {
	r := c.one(ctx, BatchReq{Op: BatchRange, Q: center, Radius: radius})
	return r.Range, r.Cost, r.Err
}

// RouteNNCtx returns the continuous nearest neighbors along the segment
// a→b across all shards: each shard computes its local CNN partition
// and the partitions fold by a piecewise-minimum merge (mergeCNN).
func (c *Cluster) RouteNNCtx(ctx context.Context, a, b geom.Point) ([]tp.CNNInterval, error) {
	r := c.one(ctx, BatchReq{Op: BatchRoute, Q: a, To: b})
	return r.Route, r.Err
}

// CountWindowCtx returns the number of items inside w, summed over the
// overlapping shards using aggregate subtree counts.
func (c *Cluster) CountWindowCtx(ctx context.Context, w geom.Rect) (int, error) {
	r := c.one(ctx, BatchReq{Op: BatchCount, W: w})
	return r.Count, r.Err
}

// SearchItemsCtx returns the items inside w, gathered from the
// overlapping shards (order is by shard, then tree order within each
// shard).
func (c *Cluster) SearchItemsCtx(ctx context.Context, w geom.Rect) ([]rtree.Item, error) {
	r := c.one(ctx, BatchReq{Op: BatchSearch, W: w})
	return r.Items, r.Err
}
