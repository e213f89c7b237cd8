package rtree

import (
	"math"

	"lbsq/internal/geom"
)

// UseReferenceChooser makes insertion choose level-1 subtrees with
// chooseLeastOverlapEnlargementRef until the returned restore runs.
// Tests only; not safe alongside concurrent inserts.
func UseReferenceChooser() (restore func()) {
	leastOverlapChooser = chooseLeastOverlapEnlargementRef
	return func() { leastOverlapChooser = chooseLeastOverlapEnlargement }
}

// chooseLeastOverlapEnlargementRef is the reference copy of the level-1
// chooser: the overlap enlargement summed over every sibling, with the
// rectangle operations written through math.Max/Min.
func chooseLeastOverlapEnlargementRef(n *Node, r geom.Rect) *Node {
	var best *Node
	bestOv, bestEnl, bestArea := math.Inf(1), math.Inf(1), math.Inf(1)
	for _, c := range n.children {
		grown := unionRef(c.rect, r)
		ov := 0.0
		for _, o := range n.children {
			if o == c {
				continue
			}
			ov += overlapRef(grown, o.rect) - overlapRef(c.rect, o.rect)
		}
		enl := unionRef(c.rect, r).Area() - c.rect.Area()
		area := c.rect.Area()
		if ov < bestOv ||
			(geom.ExactEq(ov, bestOv) && enl < bestEnl) ||
			(geom.ExactEq(ov, bestOv) && geom.ExactEq(enl, bestEnl) && area < bestArea) {
			best, bestOv, bestEnl, bestArea = c, ov, enl, area
		}
	}
	return best
}

func unionRef(r, s geom.Rect) geom.Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return geom.Rect{
		MinX: math.Min(r.MinX, s.MinX), MinY: math.Min(r.MinY, s.MinY),
		MaxX: math.Max(r.MaxX, s.MaxX), MaxY: math.Max(r.MaxY, s.MaxY),
	}
}

func overlapRef(r, s geom.Rect) float64 {
	i := geom.Rect{
		MinX: math.Max(r.MinX, s.MinX), MinY: math.Max(r.MinY, s.MinY),
		MaxX: math.Min(r.MaxX, s.MaxX), MaxY: math.Min(r.MaxY, s.MaxY),
	}
	if i.IsEmpty() {
		return 0
	}
	return i.Area()
}
