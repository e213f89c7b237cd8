package geom

import (
	"sort"
	"sync"
)

// RectRegion is a rectilinear region of the form
//
//	base − (f₁ ∪ f₂ ∪ … ∪ fₙ)
//
// used for the exact validity region of a location-based window query
// (paper Sec. 4): base is the inner validity rectangle (intersection of
// the per-result-point rectangles) and each fᵢ is the Minkowski rectangle
// of a candidate outer point, inside which that point would enter the
// window.
type RectRegion struct {
	Base Rect
	// Holes are the subtracted rectangles, stored already clipped to Base.
	// Entries with empty intersection are dropped on Subtract.
	Holes []Rect
}

// NewRectRegion returns the region consisting of base with no holes.
func NewRectRegion(base Rect) *RectRegion {
	return &RectRegion{Base: base}
}

// Subtract removes rectangle f from the region. It returns true if f
// actually overlaps the base rectangle (i.e. f influences the region).
func (rr *RectRegion) Subtract(f Rect) bool {
	clipped := f.Intersect(rr.Base)
	if clipped.IsEmpty() || clipped.Area() <= Eps*Eps {
		return false
	}
	rr.Holes = append(rr.Holes, clipped)
	return true
}

// Contains reports whether p belongs to the region. The base boundary is
// inclusive and hole boundaries are exclusive (a point on a hole edge is
// still valid: the outer object only enters the window strictly inside).
func (rr *RectRegion) Contains(p Point) bool {
	if !rr.Base.Contains(p) {
		return false
	}
	for _, h := range rr.Holes {
		if h.ContainsStrict(p) {
			return false
		}
	}
	return true
}

// Area returns the exact area of the region, computed by coordinate
// compression over the hole boundaries: the distinct (Eps-deduplicated)
// base and hole coordinates cut the plane into a grid, and a cell
// counts when its center lies in the base and in no hole.
//
// The holes are swept column by column. A rectangle contains the cell
// centers of one contiguous index range per axis (centers are
// non-decreasing, because rounded addition is monotone), so each hole
// enters the sweep at one column and leaves it at another, adding and
// removing its row range in a difference array. A cell's cover count
// is then a running sum down its column: O(cells + columns·holes).
// The cells are summed in column-then-row order, which keeps the sum
// bit-identical to testing each cell against each hole (the reference
// in region_oracle_test.go).
func (rr *RectRegion) Area() float64 {
	if rr.Base.IsEmpty() {
		return 0
	}
	if len(rr.Holes) == 0 {
		return rr.Base.Area()
	}
	sc := areaPool.Get().(*areaScratch)
	xs := append(sc.xs[:0], rr.Base.MinX, rr.Base.MaxX)
	ys := append(sc.ys[:0], rr.Base.MinY, rr.Base.MaxY)
	for _, h := range rr.Holes {
		xs = append(xs, h.MinX, h.MaxX)
		ys = append(ys, h.MinY, h.MaxY)
	}
	xs = dedupSorted(xs)
	ys = dedupSorted(ys)
	cx := cellCenters(sc.cx[:0], xs)
	cy := cellCenters(sc.cy[:0], ys)

	spans := sc.spans[:0]
	for _, h := range rr.Holes {
		i0, i1 := centerSpan(cx, h.MinX, h.MaxX)
		j0, j1 := centerSpan(cy, h.MinY, h.MaxY)
		if i0 < i1 && j0 < j1 {
			spans = append(spans, cellSpan{i0, i1, j0, j1})
		}
	}
	bi0, bi1 := centerSpan(cx, rr.Base.MinX, rr.Base.MaxX)
	bj0, bj1 := centerSpan(cy, rr.Base.MinY, rr.Base.MaxY)
	diff := append(sc.diff[:0], make([]int32, len(cy)+1)...)

	area := 0.0
	for i := 0; i < bi1; i++ {
		for _, sp := range spans {
			if sp.i0 == i {
				diff[sp.j0]++
				diff[sp.j1]--
			} else if sp.i1 == i {
				diff[sp.j0]--
				diff[sp.j1]++
			}
		}
		if i < bi0 {
			continue
		}
		cover := int32(0)
		for j := 0; j < bj1; j++ {
			cover += diff[j]
			if j >= bj0 && cover == 0 {
				area += (xs[i+1] - xs[i]) * (ys[j+1] - ys[j])
			}
		}
	}
	sc.xs, sc.ys, sc.cx, sc.cy, sc.spans, sc.diff = xs[:0], ys[:0], cx[:0], cy[:0], spans[:0], diff[:0]
	areaPool.Put(sc)
	return area
}

// cellSpan is the cell index range [i0, i1) × [j0, j1) whose centers a
// hole contains.
type cellSpan struct{ i0, i1, j0, j1 int }

// areaScratch holds the reusable buffers of one Area call. Pooled:
// every window query computes its region's area for the query trace.
type areaScratch struct {
	xs, ys, cx, cy []float64
	spans          []cellSpan
	diff           []int32
}

var areaPool = sync.Pool{New: func() interface{} { return new(areaScratch) }}

// cellCenters appends the midpoints of consecutive grid lines to dst.
func cellCenters(dst, lines []float64) []float64 {
	for i := 0; i+1 < len(lines); i++ {
		dst = append(dst, (lines[i]+lines[i+1])/2)
	}
	return dst
}

// centerSpan returns the index range [a, b) of the non-decreasing
// centers c with lo ≤ c ≤ hi — the cells an extent [lo, hi] contains —
// by two binary searches.
func centerSpan(centers []float64, lo, hi float64) (a, b int) {
	for n := len(centers); n > 0; {
		if half := n / 2; centers[a+half] < lo {
			a, n = a+half+1, n-half-1
		} else {
			n = half
		}
	}
	b = a
	for n := len(centers) - a; n > 0; {
		if half := n / 2; centers[b+half] <= hi {
			b, n = b+half+1, n-half-1
		} else {
			n = half
		}
	}
	return a, b
}

// ConservativeRect returns an axis-aligned rectangle contained in the
// region and containing focus, following the paper's conservative
// validity region (Fig. 19): each hole is eliminated by cutting the
// current rectangle along one hole edge, choosing the cut that keeps the
// focus and preserves the largest area. If focus is not in the region the
// empty rectangle is returned.
func (rr *RectRegion) ConservativeRect(focus Point) Rect {
	if !rr.Contains(focus) {
		return EmptyRect()
	}
	cur := rr.Base
	// Process larger intrusions first: cutting away big holes early tends
	// to make later holes fall outside the running rectangle entirely.
	// Each hole's area is computed once, before the sort.
	holes := make([]areaRect, len(rr.Holes))
	for i, h := range rr.Holes {
		holes[i] = areaRect{h, h.Area()}
	}
	sort.Slice(holes, func(i, j int) bool { return holes[i].area > holes[j].area })
	for _, hk := range holes {
		h := hk.r
		ov := h.Intersect(cur)
		if ov.IsEmpty() || ov.Area() <= Eps*Eps {
			continue
		}
		best := EmptyRect()
		// Four candidate cuts; keep only those still containing the focus.
		cands := []Rect{
			{cur.MinX, cur.MinY, ov.MinX, cur.MaxY}, // keep left of hole
			{ov.MaxX, cur.MinY, cur.MaxX, cur.MaxY}, // keep right of hole
			{cur.MinX, cur.MinY, cur.MaxX, ov.MinY}, // keep below hole
			{cur.MinX, ov.MaxY, cur.MaxX, cur.MaxY}, // keep above hole
		}
		for _, c := range cands {
			if c.IsEmpty() || !c.Contains(focus) {
				continue
			}
			if best.IsEmpty() || c.Area() > best.Area() {
				best = c
			}
		}
		if best.IsEmpty() {
			// The focus sits on the hole boundary; the conservative
			// region collapses to the focus itself.
			return Rect{focus.X, focus.Y, focus.X, focus.Y}
		}
		cur = best
	}
	return cur
}

// areaRect is a rectangle with its area, the ConservativeRect sort key.
type areaRect struct {
	r    Rect
	area float64
}

// dedupSorted sorts xs and removes values closer than Eps.
func dedupSorted(xs []float64) []float64 {
	sort.Float64s(xs)
	out := xs[:0]
	for _, x := range xs {
		if len(out) == 0 || x-out[len(out)-1] > Eps {
			out = append(out, x)
		}
	}
	return out
}
