package shard

import (
	"context"

	"lbsq/internal/core"
	"lbsq/internal/geom"
)

// This file holds the core.QueryEngine methods, the only no-context
// Cluster surface left: NNQuery, WindowQuery, WindowQueryAt and
// RangeQuery. The two wrappers that drop an error funnel through
// legacyQuery.do below, so exactly one suppression in the whole package
// vouches for the "Background cannot be cancelled" argument — the
// droppederr analyzer audits the wrappers themselves, and nocheckaudit
// keeps this one suppression honest.

// legacyQuery adapts a context-aware query to the legacy no-context
// signature. T is the wrapper's full result (use a tuple struct for
// multi-value queries).
type legacyQuery[T any] struct {
	run func(context.Context) (T, error)
}

// do runs the query under context.Background. Scatter errors only
// arise from ctx cancellation and Background cannot be cancelled, so
// the dropped error is provably nil.
func (q legacyQuery[T]) do() T {
	v, _ := q.run(context.Background()) //lbsq:nocheck droppederr — Background cannot be cancelled; the only error source is ctx
	return v
}

// legacy is the call-site shorthand for legacyQuery.do.
func legacy[T any](run func(context.Context) (T, error)) T {
	return legacyQuery[T]{run: run}.do()
}

// withCost pairs a validity answer with its query cost so two-value
// queries fit the single-result legacyQuery shape.
type withCost[T any] struct {
	v    T
	cost core.QueryCost
}

// NNQuery answers a location-based k-nearest-neighbor query
// (core.QueryEngine); see NNQueryCtx.
func (c *Cluster) NNQuery(q geom.Point, k int) (*core.NNValidity, core.QueryCost, error) {
	return c.NNQueryCtx(context.Background(), q, k)
}

// WindowQuery answers a location-based window query
// (core.QueryEngine); see WindowQueryCtx.
func (c *Cluster) WindowQuery(w geom.Rect) (*core.WindowValidity, core.QueryCost) {
	out := legacy(func(ctx context.Context) (withCost[*core.WindowValidity], error) {
		wv, cost, err := c.WindowQueryCtx(ctx, w)
		return withCost[*core.WindowValidity]{wv, cost}, err
	})
	return out.v, out.cost
}

// WindowQueryAt answers a location-based window query whose window of
// extents qx×qy is centered at the focus (core.QueryEngine).
func (c *Cluster) WindowQueryAt(focus geom.Point, qx, qy float64) (*core.WindowValidity, core.QueryCost) {
	return c.WindowQuery(geom.RectCenteredAt(focus, qx, qy))
}

// RangeQuery answers a location-based range query (core.QueryEngine);
// see RangeQueryCtx.
func (c *Cluster) RangeQuery(center geom.Point, radius float64) (*core.RangeValidity, core.QueryCost) {
	out := legacy(func(ctx context.Context) (withCost[*core.RangeValidity], error) {
		rv, cost, err := c.RangeQueryCtx(ctx, center, radius)
		return withCost[*core.RangeValidity]{rv, cost}, err
	})
	return out.v, out.cost
}
