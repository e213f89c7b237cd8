package shard

import (
	"sort"

	"lbsq/internal/core"
	"lbsq/internal/geom"
	"lbsq/internal/nn"
	"lbsq/internal/rtree"
	"lbsq/internal/tp"
)

// The merges of the scatter-gather executor: each folds the per-part
// answers of one query phase into the global answer. The NN region
// merges by intersection — the universe clipped by every influence
// pair's bisector — so the merged answer equals the single-server
// answer over the union of the parts. Window answers need no merge:
// the executor gathers the global result and outer candidates, and
// core.WindowRegion builds the region from them.

// nnMerger accumulates per-part influence parts into the global NN
// validity answer: the merged region is the universe clipped by every
// influence pair's bisector, with pairs and influence objects
// deduplicated across parts.
type nnMerger struct {
	v         *core.NNValidity
	region    geom.Polygon
	seenPairs map[[2]int64]bool
	seenObjs  map[int64]bool
}

// newNNMerger starts a merge for query q with the already-gathered
// global k nearest neighbors.
func newNNMerger(universe geom.Rect, q geom.Point, k int, nbs []nn.Neighbor) *nnMerger {
	return &nnMerger{
		v:         &core.NNValidity{Query: q, K: k, Neighbors: nbs},
		region:    universe.Polygon(),
		seenPairs: make(map[[2]int64]bool),
		seenObjs:  make(map[int64]bool),
	}
}

// add merges one part's influence part.
func (m *nnMerger) add(part *core.NNValidity) {
	m.v.TPQueries += part.TPQueries
	for _, pr := range part.Pairs {
		key := [2]int64{pr.Obj.ID, pr.Member.ID}
		if m.seenPairs[key] {
			continue
		}
		m.seenPairs[key] = true
		m.v.Pairs = append(m.v.Pairs, pr)
		if !m.seenObjs[pr.Obj.ID] {
			m.seenObjs[pr.Obj.ID] = true
			m.v.Influence = append(m.v.Influence, pr.Obj)
		}
		m.region = m.region.ClipHalfPlane(geom.Bisector(pr.Member.P, pr.Obj.P))
	}
}

// reach returns the influence fan-out pruning radius 2·R_v + d_k
// (see planNN) once the owner part's clip has bounded the region; ok
// is false when the region is already empty and no further part can
// cut it.
func (m *nnMerger) reach(q geom.Point, dk float64) (float64, bool) {
	if m.region.IsEmpty() {
		return 0, false
	}
	rv := 0.0
	for _, vert := range m.region {
		if d := q.Dist(vert); d > rv {
			rv = d
		}
	}
	return 2*rv + dk, true
}

// finish normalizes and returns the merged answer.
func (m *nnMerger) finish() *core.NNValidity {
	if m.region.IsEmpty() {
		m.v.Region = geom.Polygon{}
	} else {
		m.v.Region = m.region
	}
	return m.v
}

// mergeNeighborParts flattens per-part candidate lists and sorts them
// by (distance, id) — the canonical global candidate order.
func mergeNeighborParts(found [][]nn.Neighbor) []nn.Neighbor {
	var all []nn.Neighbor
	for _, part := range found {
		all = append(all, part...)
	}
	sort.Slice(all, func(i, j int) bool {
		// Exact comparator: tolerant comparison breaks strict weak order.
		if !geom.ExactEq(all[i].Dist, all[j].Dist) {
			return all[i].Dist < all[j].Dist
		}
		return all[i].Item.ID < all[j].Item.ID
	})
	return all
}

// rangeInnerRegion fills rv.Inner and rv.InnerInfluence from the merged
// global result: disks of the result's convex-hull vertices.
func rangeInnerRegion(rv *core.RangeValidity) {
	pts := make([]geom.Point, len(rv.Result))
	byPos := make(map[geom.Point]rtree.Item, len(rv.Result))
	for i, it := range rv.Result {
		pts[i] = it.P
		byPos[it.P] = it
	}
	for _, h := range geom.ConvexHull(pts) {
		rv.InnerInfluence = append(rv.InnerInfluence, byPos[h])
		rv.Inner.Add(geom.Disk{C: h, R: rv.Radius})
	}
}

// rangeOuterSearchRect returns the phase-2 search rectangle: the inner
// region's bounding box inflated by the radius. inner must be the
// merged inner-region disks; radius the query radius.
func rangeOuterSearchRect(inner []geom.Disk, radius float64) geom.Rect {
	innerBB := inner[0].Bounds()
	for _, d := range inner[1:] {
		innerBB = innerBB.Intersect(d.Bounds())
	}
	return innerBB.Inflate(radius, radius)
}

// mergeCNN folds two CNN partitions of the same route into the
// piecewise-nearest partition. Either partition may be empty (an empty
// part contributes nothing). Within an elementary interval both
// candidates are fixed points, so their squared-distance difference
// along the route is linear in the travel distance and crosses zero at
// most once — each fold step splits at that bisector crossing.
func mergeCNN(x, y []tp.CNNInterval, a, b geom.Point) []tp.CNNInterval {
	if len(x) == 0 {
		return y
	}
	if len(y) == 0 {
		return x
	}
	if geom.ExactZero(a.Dist2(b)) {
		// Degenerate route: a single zero-length interval; keep the
		// nearer item.
		if a.Dist2(x[0].NN.P) <= a.Dist2(y[0].NN.P) {
			return x[:1]
		}
		return y[:1]
	}
	u := b.Sub(a).Unit()

	var out []tp.CNNInterval
	emit := func(from, to float64, it rtree.Item) {
		if to <= from {
			return
		}
		if n := len(out); n > 0 {
			if out[n-1].NN.ID == it.ID {
				out[n-1].To = to
				return
			}
			from = out[n-1].To // keep the partition gapless
		} else {
			from = 0
		}
		out = append(out, tp.CNNInterval{From: from, To: to, NN: it})
	}

	cur := 0.0
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		end := x[i].To
		if y[j].To < end {
			end = y[j].To
		}
		if end > cur {
			xi, yj := x[i].NN, y[j].NN
			if xi.ID == yj.ID {
				emit(cur, end, xi)
			} else {
				// f(t) = dist²(P(t), xi) − dist²(P(t), yj) is linear:
				// f(t) = C + D·t; xi is nearer where f < 0.
				C := a.Dist2(xi.P) - a.Dist2(yj.P)
				D := 2 * u.Dot(yj.P.Sub(xi.P))
				ts := cur - 1 // out of range unless a crossing exists
				// Exact zero test: any non-zero D is a valid divisor.
				if !geom.ExactZero(D) {
					ts = -C / D
				}
				if ts <= cur || ts >= end {
					if C+D*(cur+end)/2 <= 0 {
						emit(cur, end, xi)
					} else {
						emit(cur, end, yj)
					}
				} else if C+D*cur <= 0 {
					emit(cur, ts, xi)
					emit(ts, end, yj)
				} else {
					emit(cur, ts, yj)
					emit(ts, end, xi)
				}
			}
			cur = end
		}
		if x[i].To <= end {
			i++
		}
		if j < len(y) && y[j].To <= end {
			j++
		}
	}
	// Tail: one partition may extend marginally past the other from
	// floating-point length differences; keep its intervals.
	for ; i < len(x); i++ {
		emit(cur, x[i].To, x[i].NN)
		if x[i].To > cur {
			cur = x[i].To
		}
	}
	for ; j < len(y); j++ {
		emit(cur, y[j].To, y[j].NN)
		if y[j].To > cur {
			cur = y[j].To
		}
	}
	return out
}
