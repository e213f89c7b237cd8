package core

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"lbsq/internal/geom"
	"lbsq/internal/nn"
	"lbsq/internal/rtree"
)

// WindowValidity is the server's answer to a location-based window
// query. The query is a rectangle of fixed extents whose focus (center)
// moves with the client; all geometry below lives in focus space: a
// focus position f corresponds to the window RectCenteredAt(f, qx, qy).
//
// An inner point p (in the result) keeps the result valid while the
// focus stays inside the qx×qy rectangle centered at p; an outer point
// invalidates the result when the focus enters its qx×qy Minkowski
// rectangle. The exact validity region is therefore
//
//	(∩ inner rectangles) − (∪ outer Minkowski rectangles),
//
// a rectilinear region; the conservative region of Fig. 19 is the
// largest axis-aligned rectangle inside it containing the focus.
type WindowValidity struct {
	Window geom.Rect // the original query window
	Focus  geom.Point
	Result []rtree.Item // the inner points

	// InnerRect is the inner validity region (intersection of the
	// result points' rectangles, clipped to the universe).
	InnerRect geom.Rect
	// Region is the exact rectilinear validity region.
	Region *geom.RectRegion
	// Conservative is the conservative rectangular validity region.
	Conservative geom.Rect

	// InnerInfluence are result points contributing a surviving edge to
	// the validity region; OuterInfluence are outer points whose
	// Minkowski rectangles truncate it. Together they form S_inf.
	InnerInfluence []rtree.Item
	OuterInfluence []rtree.Item

	// CandidateOuter counts the outer points examined (retrieved by the
	// extended query q′), for the cost accounting of Fig. 34/35.
	CandidateOuter int
}

// Valid reports whether the cached window result is still correct when
// the focus has moved to f.
func (w *WindowValidity) Valid(f geom.Point) bool { return w.Region.Contains(f) }

// WindowQuery processes a location-based window query (Sec. 4): window w
// over the tree, with universe bounding the focus space. The two R-tree
// queries it performs (result retrieval, then candidate outer points in
// the extended rectangle q′) are visible in the tree's access counters;
// callers wanting the per-phase split should snapshot the counters around
// the call (see Server.WindowQuery).
func WindowQuery(ix rtree.Index, w geom.Rect, universe geom.Rect) *WindowValidity {
	return windowQuery(ix, w, universe, nil)
}

// windowQuery implements WindowQuery; afterResultPhase, if non-nil, runs
// between the result retrieval and the extended candidate search so
// callers can snapshot access counters per phase.
func windowQuery(ix rtree.Index, w geom.Rect, universe geom.Rect, afterResultPhase func()) *WindowValidity {
	// Phase 1: retrieve the result and build the inner validity region.
	result := ix.SearchItems(w)
	nearest := math.Inf(1)
	if len(result) == 0 {
		if nb, ok := nn.Nearest(ix, w.Center()); ok {
			nearest = nb.Dist
		}
	}
	inner := WindowInner(w, result, nearest, universe)
	if afterResultPhase != nil {
		afterResultPhase()
	}

	// Phase 2: retrieve candidate outer points with the extended query
	// q′ = inner ⊕ (qx/2, qy/2): exactly the points whose Minkowski
	// rectangle can reach the inner region. Points inside w are the
	// result itself and are skipped.
	var cands []rtree.Item
	ix.Search(inner.Inflate(w.Width()/2, w.Height()/2), func(it rtree.Item) bool {
		if !w.Contains(it.P) {
			cands = append(cands, it)
		}
		return true
	})
	return WindowRegion(w, result, inner, universe, cands)
}

// WindowInner is the first step of a window answer: the inner validity
// rectangle of result (the points inside w), the universe intersected
// with every result point's qx×qy rectangle.
//
// An empty result is valid wherever no point enters the window, which
// could make the region arbitrarily complex. Its base is bounded to a
// box around the focus reaching a little past the nearest data point,
// at distance nearest (+Inf for an empty dataset; ignored for a
// non-empty result), so only that point's neighborhood cuts holes — a
// conservative but compact region. The paper's workloads (queries
// conforming to the data) never hit this case.
func WindowInner(w geom.Rect, result []rtree.Item, nearest float64, universe geom.Rect) geom.Rect {
	qx, qy := w.Width(), w.Height()
	inner := universe
	for _, it := range result {
		inner = inner.Intersect(geom.RectCenteredAt(it.P, qx, qy))
	}
	if len(result) == 0 {
		inner = inner.Intersect(geom.RectCenteredAt(w.Center(), 2*nearest+2*qx, 2*nearest+2*qy))
	}
	return inner
}

// WindowRegion is the second step of a window answer: the validity
// region of result given its inner rectangle and the candidate outer
// points, the points in q′ = inner ⊕ (qx/2, qy/2) outside w. Candidates
// may arrive in any order: WindowRegion sorts cands by point id and
// keeps the holes in that order, so an answer assembled from several
// sources equals the single-index one.
func WindowRegion(w geom.Rect, result []rtree.Item, inner, universe geom.Rect, cands []rtree.Item) *WindowValidity {
	qx, qy := w.Width(), w.Height()
	out := &WindowValidity{
		Window:         w,
		Focus:          w.Center(),
		Result:         result,
		InnerRect:      inner,
		Region:         geom.NewRectRegion(inner),
		CandidateOuter: len(cands),
	}
	slices.SortFunc(cands, func(a, b rtree.Item) int { return cmp.Compare(a.ID, b.ID) })
	var holes []rtree.Item
	for _, it := range cands {
		if out.Region.Subtract(geom.RectCenteredAt(it.P, qx, qy)) {
			holes = append(holes, it)
		}
	}

	out.Conservative = out.Region.ConservativeRect(out.Focus)
	out.InnerInfluence = innerInfluence(out.Result, inner, universe, qx, qy, out.Region.Holes)
	out.OuterInfluence = minimalOuter(out.Region, holes)
	// The region's base rectangle is clipped to the universe, so the
	// containment invariant only holds for in-universe focus points.
	if geom.Checking && universe.Contains(out.Focus) && !out.Region.Contains(out.Focus) {
		panic("core: window validity region does not contain the query focus")
	}
	return out
}

// innerInfluence returns the result points that bind a surviving edge of
// the inner validity rectangle. A point binds an edge when its own
// rectangle's boundary realizes that edge (e.g. the point with maximum x
// binds inner.MinX); an edge bound by the universe has no influence
// object, and an edge fully covered by holes has been replaced by outer
// influence objects (the Fig. 33 situation).
func innerInfluence(result []rtree.Item, inner, universe geom.Rect, qx, qy float64, holes []geom.Rect) []rtree.Item {
	if inner.IsEmpty() {
		return nil
	}
	type edge struct {
		universeBound bool
		vertical      bool    // true: edge at x = coord, bound by a point's x; false: y
		coord         float64 // the edge's fixed coordinate
		want          float64 // the binding point's coordinate
		best          int     // result index of the binding point of least id
	}
	edges := [4]edge{
		{inner.MinX <= universe.MinX+geom.Eps, true, inner.MinX, inner.MinX + qx/2, -1},
		{inner.MaxX >= universe.MaxX-geom.Eps, true, inner.MaxX, inner.MaxX - qx/2, -1},
		{inner.MinY <= universe.MinY+geom.Eps, false, inner.MinY, inner.MinY + qy/2, -1},
		{inner.MaxY >= universe.MaxY-geom.Eps, false, inner.MaxY, inner.MaxY - qy/2, -1},
	}
	// One binding object per edge suffices for S_inf: the one of least
	// id, so the choice does not depend on the result order.
	for i, it := range result {
		for k := range edges {
			e, c := &edges[k], it.P.Y
			if e.vertical {
				c = it.P.X
			}
			if abs(c-e.want) <= geom.Eps && (e.best < 0 || it.ID < result[e.best].ID) {
				e.best = i
			}
		}
	}
	var out []rtree.Item
	for _, e := range edges {
		if e.best >= 0 && !e.universeBound && !slices.Contains(out, result[e.best]) && edgeSurvives(e.vertical, e.coord, inner, holes) {
			out = append(out, result[e.best])
		}
	}
	return out
}

// edgeSurvives reports whether any part of the inner-rectangle edge at
// the given coordinate remains on the region boundary (not swallowed by
// holes).
func edgeSurvives(vertical bool, coord float64, inner geom.Rect, holes []geom.Rect) bool {
	lo, hi := inner.MinY, inner.MaxY
	if !vertical {
		lo, hi = inner.MinX, inner.MaxX
	}
	type iv struct{ a, b float64 }
	var covered []iv
	for _, h := range holes {
		touches := false
		var a, b float64
		if vertical {
			touches = h.MinX <= coord+geom.Eps && h.MaxX >= coord-geom.Eps
			a, b = h.MinY, h.MaxY
		} else {
			touches = h.MinY <= coord+geom.Eps && h.MaxY >= coord-geom.Eps
			a, b = h.MinX, h.MaxX
		}
		if touches {
			covered = append(covered, iv{max(a, lo), min(b, hi)})
		}
	}
	// Sweep the covered intervals; any gap means the edge survives.
	cur := lo
	for cur < hi-geom.Eps {
		advanced := false
		for _, c := range covered {
			if c.a <= cur+geom.Eps && c.b > cur {
				cur = c.b
				advanced = true
			}
		}
		if !advanced {
			return true // gap at cur
		}
	}
	return false
}

// maxExactMinimality bounds the cubic-cost exact minimality filter; with
// more overlapping holes than this (far beyond the ~2 outer influence
// objects the paper reports) all overlapping holes are returned, which is
// correct but may include redundant objects.
const maxExactMinimality = 64

// minimalOuter reduces the candidate holes to an irredundant subset
// with the same union — the outer influence set S_inf. Large candidate
// counts arise for big windows near the universe boundary (the inner
// region grows while thousands of window-sized Minkowski rectangles
// chop it); there the holes have special structure, observed by the
// paper's Fig. 33 discussion: clipped to the base rectangle, each hole
// either spans the base fully along one axis (it "replaces" an inner
// edge) or is anchored at a base corner. The reduction exploits this:
//
//  1. a hole covering the whole base ⇒ empty region, one hole suffices;
//  2. x-spanning holes are y-intervals ⇒ greedy minimal interval cover;
//  3. y-spanning holes, symmetrically;
//  4. corner-anchored holes ⇒ Pareto staircase per corner;
//  5. remaining (floating) holes are kept as-is;
//  6. a final quadratic irredundance pass over the (now small) kept set
//     removes cross-class redundancy.
//
// Every step only drops holes covered by the remaining ones, so the
// union — hence the validity region the client rebuilds — is unchanged.
// Sequential (one-at-a-time) removal in step 6 matters: two mutually
// covering holes (duplicate data points) are each redundant given the
// other, but only one may be dropped.
func minimalOuter(region *geom.RectRegion, holes []rtree.Item) []rtree.Item {
	if len(holes) == 0 {
		return nil
	}
	base := region.Base
	eps := geom.Eps * (1 + abs(base.MaxX) + abs(base.MaxY))

	touchL := func(h geom.Rect) bool { return h.MinX <= base.MinX+eps }
	touchR := func(h geom.Rect) bool { return h.MaxX >= base.MaxX-eps }
	touchB := func(h geom.Rect) bool { return h.MinY <= base.MinY+eps }
	touchT := func(h geom.Rect) bool { return h.MaxY >= base.MaxY-eps }

	var spanXIdx, spanYIdx, loose []int
	corners := make([][]int, 4) // BL, BR, TL, TR
	for i, h := range region.Holes {
		l, r, b, t := touchL(h), touchR(h), touchB(h), touchT(h)
		switch {
		case l && r && b && t:
			return []rtree.Item{holes[i]} // covers everything
		case l && r:
			spanXIdx = append(spanXIdx, i)
		case b && t:
			spanYIdx = append(spanYIdx, i)
		case l && b:
			corners[0] = append(corners[0], i)
		case r && b:
			corners[1] = append(corners[1], i)
		case l && t:
			corners[2] = append(corners[2], i)
		case r && t:
			corners[3] = append(corners[3], i)
		default:
			loose = append(loose, i)
		}
	}

	var kept []int
	kept = append(kept, greedyIntervalCover(region.Holes, spanXIdx, false)...)
	kept = append(kept, greedyIntervalCover(region.Holes, spanYIdx, true)...)
	for c, idxs := range corners {
		kept = append(kept, paretoStaircase(region.Holes, idxs, c)...)
	}
	kept = append(kept, loose...)

	// Final cross-class irredundance pass (area-based, quadratic in the
	// kept count — small after the structural reduction).
	if len(kept) <= maxExactMinimality {
		keptRects := make([]geom.Rect, len(kept))
		for i, j := range kept {
			keptRects[i] = region.Holes[j]
		}
		area := (&geom.RectRegion{Base: base, Holes: keptRects}).Area()
		for i := 0; i < len(kept); {
			trimmed := geom.RectRegion{Base: base}
			trimmed.Holes = append(trimmed.Holes, keptRects[:i]...)
			trimmed.Holes = append(trimmed.Holes, keptRects[i+1:]...)
			if trimmed.Area() <= area+geom.Eps*geom.Eps {
				kept = append(kept[:i], kept[i+1:]...)
				keptRects = append(keptRects[:i], keptRects[i+1:]...)
				continue
			}
			i++
		}
	}

	sort.Ints(kept)
	out := make([]rtree.Item, len(kept))
	for i, j := range kept {
		out[i] = holes[j]
	}
	return out
}

// greedyIntervalCover selects a minimal subset of the given holes (which
// all span the base fully along one axis) whose intervals on the other
// axis have the same union. onX selects the interval axis: true reads
// [MinX, MaxX] (for y-spanning holes), false reads [MinY, MaxY].
func greedyIntervalCover(rects []geom.Rect, idxs []int, onX bool) []int {
	if len(idxs) == 0 {
		return nil
	}
	type iv struct {
		a, b float64
		idx  int
	}
	ivs := make([]iv, len(idxs))
	for i, j := range idxs {
		if onX {
			ivs[i] = iv{rects[j].MinX, rects[j].MaxX, j}
		} else {
			ivs[i] = iv{rects[j].MinY, rects[j].MaxY, j}
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var keep []int
	coverPos := math.Inf(-1)
	j := 0
	for j < len(ivs) {
		if ivs[j].a > coverPos+geom.Eps {
			coverPos = ivs[j].a // gap: new component
		}
		bestB, bestIdx := coverPos, -1
		for j < len(ivs) && ivs[j].a <= coverPos+geom.Eps {
			if ivs[j].b > bestB {
				bestB, bestIdx = ivs[j].b, ivs[j].idx
			}
			j++
		}
		if bestIdx >= 0 {
			keep = append(keep, bestIdx)
			coverPos = bestB
		}
	}
	return keep
}

// paretoStaircase selects the undominated holes among those anchored at
// one base corner: such holes are rectangles growing out of the corner,
// so hole A is redundant iff some hole B reaches at least as far along
// both axes. corner: 0=BL, 1=BR, 2=TL, 3=TR.
func paretoStaircase(rects []geom.Rect, idxs []int, corner int) []int {
	if len(idxs) == 0 {
		return nil
	}
	// Reach of a hole along x and y, measured away from the corner
	// (larger = covers more).
	reach := func(j int) (x, y float64) {
		h := rects[j]
		switch corner {
		case 0:
			return h.MaxX, h.MaxY
		case 1:
			return -h.MinX, h.MaxY
		case 2:
			return h.MaxX, -h.MinY
		default:
			return -h.MinX, -h.MinY
		}
	}
	order := append([]int(nil), idxs...)
	sort.Slice(order, func(a, b int) bool {
		xa, ya := reach(order[a])
		xb, yb := reach(order[b])
		// Exact comparator: tolerant comparison breaks strict weak order.
		if !geom.ExactEq(xa, xb) {
			return xa > xb
		}
		return ya > yb
	})
	var keep []int
	bestY := math.Inf(-1)
	for _, j := range order {
		_, y := reach(j)
		if y > bestY+geom.Eps {
			keep = append(keep, j)
			bestY = y
		}
	}
	return keep
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func min(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func max(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
