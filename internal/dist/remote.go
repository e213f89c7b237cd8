package dist

import (
	"context"
	"encoding/json"
	"fmt"

	"lbsq/internal/core"
	"lbsq/internal/geom"
	"lbsq/internal/nn"
	"lbsq/internal/rtree"
	"lbsq/internal/shard"
	"lbsq/internal/tp"
)

// RemoteBackend implements shard.Backend against one data node through
// a Transport. It is stateless: every method is one shard RPC carrying
// the cluster universe as a guard.
type RemoteBackend struct {
	Addr     string
	Universe geom.Rect
	tr       Transport
}

// NewRemoteBackend returns a backend for the node at addr (a base URL
// such as "http://10.0.0.1:8080"). tr must not be nil.
func NewRemoteBackend(addr string, universe geom.Rect, tr Transport) *RemoteBackend {
	return &RemoteBackend{Addr: addr, Universe: universe, tr: tr}
}

var _ shard.Backend = (*RemoteBackend)(nil)

// do executes one op remotely.
func (b *RemoteBackend) do(ctx context.Context, op rpcOp) (rpcResult, error) {
	body, err := json.Marshal(rpcRequest{Universe: b.Universe, Ops: []rpcOp{op}})
	if err != nil {
		return rpcResult{}, err
	}
	data, err := b.tr.Do(ctx, b.Addr, body)
	if err != nil {
		return rpcResult{}, err
	}
	var resp rpcResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return rpcResult{}, fmt.Errorf("dist: decoding reply from %s: %w", b.Addr, err)
	}
	if len(resp.Results) != 1 {
		return rpcResult{}, fmt.Errorf("dist: %s returned %d results, want 1", b.Addr, len(resp.Results))
	}
	res := resp.Results[0]
	if res.Err != "" {
		return rpcResult{}, fmt.Errorf("dist: %s: %s", b.Addr, res.Err)
	}
	return res, nil
}

// KNNCandidates implements shard.Backend.
func (b *RemoteBackend) KNNCandidates(ctx context.Context, q geom.Point, k int) ([]nn.Neighbor, shard.Cost, error) {
	res, err := b.do(ctx, rpcOp{Op: opKNNCand, Q: q, K: k})
	return res.Neighbors, res.Cost, err
}

// Influence implements shard.Backend.
func (b *RemoteBackend) Influence(ctx context.Context, q geom.Point, members []rtree.Item) (*core.NNValidity, shard.Cost, error) {
	res, err := b.do(ctx, rpcOp{Op: opInfluence, Q: q, Members: members})
	if err != nil {
		return nil, res.Cost, err
	}
	if res.Part == nil {
		return nil, res.Cost, fmt.Errorf("dist: %s: influence reply without part", b.Addr)
	}
	return &core.NNValidity{Pairs: res.Part.Pairs, TPQueries: res.Part.TPQueries}, res.Cost, nil
}

// Scan implements shard.Backend. An empty skip travels as an absent
// field (JSON has no infinities).
func (b *RemoteBackend) Scan(ctx context.Context, r, skip geom.Rect) ([]rtree.Item, shard.Cost, error) {
	op := rpcOp{Op: opScan, W: r}
	if !skip.IsEmpty() {
		op.Skip = &skip
	}
	res, err := b.do(ctx, op)
	return res.Items, res.Cost, err
}

// RangeScan implements shard.Backend.
func (b *RemoteBackend) RangeScan(ctx context.Context, center geom.Point, radius float64) ([]rtree.Item, shard.Cost, error) {
	res, err := b.do(ctx, rpcOp{Op: opRangeScan, Q: center, Radius: radius})
	return res.Items, res.Cost, err
}

// RangeOuter implements shard.Backend.
func (b *RemoteBackend) RangeOuter(ctx context.Context, search geom.Rect, inner []geom.Disk, radius float64, exclude []int64) ([]rtree.Item, int, shard.Cost, error) {
	res, err := b.do(ctx, rpcOp{Op: opRangeOuter, W: search, Inner: inner, Radius: radius, Exclude: exclude})
	return res.Items, res.Cands, res.Cost, err
}

// Nearest implements shard.Backend.
func (b *RemoteBackend) Nearest(ctx context.Context, q geom.Point) (nn.Neighbor, bool, shard.Cost, error) {
	res, err := b.do(ctx, rpcOp{Op: opNearest, Q: q})
	if err != nil || !res.OK {
		return nn.Neighbor{}, false, res.Cost, err
	}
	return *res.Neighbor, true, res.Cost, nil
}

// Route implements shard.Backend.
func (b *RemoteBackend) Route(ctx context.Context, a, to geom.Point) ([]tp.CNNInterval, shard.Cost, error) {
	res, err := b.do(ctx, rpcOp{Op: opRoute, Q: a, B: to})
	return res.Route, res.Cost, err
}

// CountWindow implements shard.Backend.
func (b *RemoteBackend) CountWindow(ctx context.Context, w geom.Rect) (int, error) {
	res, err := b.do(ctx, rpcOp{Op: opCount, W: w})
	return res.N, err
}

// Insert implements shard.Backend.
func (b *RemoteBackend) Insert(ctx context.Context, it rtree.Item) error {
	_, err := b.do(ctx, rpcOp{Op: opInsert, Item: &it})
	return err
}

// Delete implements shard.Backend.
func (b *RemoteBackend) Delete(ctx context.Context, it rtree.Item) (bool, error) {
	res, err := b.do(ctx, rpcOp{Op: opDelete, Item: &it})
	return res.OK, err
}

// Load implements shard.Backend.
// Unload implements shard.Backend: one RPC deletes the whole batch,
// so rebalance cleanup costs one round trip per group, not per item.
func (b *RemoteBackend) Unload(ctx context.Context, items []rtree.Item) error {
	_, err := b.do(ctx, rpcOp{Op: opUnload, Items: items})
	return err
}

func (b *RemoteBackend) Load(ctx context.Context, items []rtree.Item) error {
	_, err := b.do(ctx, rpcOp{Op: opLoad, Items: items})
	return err
}

// Stats implements shard.Backend.
func (b *RemoteBackend) Stats(ctx context.Context) (shard.BackendStats, error) {
	res, err := b.do(ctx, rpcOp{Op: opStats})
	if err != nil {
		return shard.BackendStats{}, err
	}
	if res.Stats == nil {
		return shard.BackendStats{}, fmt.Errorf("dist: %s: stats reply without stats", b.Addr)
	}
	return *res.Stats, nil
}

// Close implements shard.Backend (connections are owned by the
// transport's HTTP client; nothing to release per backend).
func (b *RemoteBackend) Close() error { return nil }
