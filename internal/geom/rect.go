package geom

import (
	"fmt"
	"math"
)

// Rect is an axis-aligned rectangle (a 2-D minimum bounding rectangle).
// A Rect with MinX > MaxX or MinY > MaxY is empty.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// R is shorthand for Rect{minX, minY, maxX, maxY}.
func R(minX, minY, maxX, maxY float64) Rect { return Rect{minX, minY, maxX, maxY} }

// RectFromPoints returns the MBR of the given points. It panics on an
// empty slice.
func RectFromPoints(pts ...Point) Rect {
	if len(pts) == 0 {
		panic("geom: RectFromPoints with no points")
	}
	r := Rect{pts[0].X, pts[0].Y, pts[0].X, pts[0].Y}
	for _, p := range pts[1:] {
		r = r.ExpandPoint(p)
	}
	return r
}

// RectCenteredAt returns the rectangle with center c and side lengths
// w (along x) and h (along y).
func RectCenteredAt(c Point, w, h float64) Rect {
	return Rect{c.X - w/2, c.Y - h/2, c.X + w/2, c.Y + h/2}
}

// EmptyRect returns a canonical empty rectangle that expands correctly.
func EmptyRect() Rect {
	return Rect{math.Inf(1), math.Inf(1), math.Inf(-1), math.Inf(-1)}
}

// IsEmpty reports whether r contains no points.
func (r Rect) IsEmpty() bool { return r.MinX > r.MaxX || r.MinY > r.MaxY }

// Width returns the extent of r along the x-axis (0 if empty).
func (r Rect) Width() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.MaxX - r.MinX
}

// Height returns the extent of r along the y-axis (0 if empty).
func (r Rect) Height() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.MaxY - r.MinY
}

// Area returns the area of r (0 if empty).
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Margin returns half the perimeter of r, the R*-tree margin metric.
func (r Rect) Margin() float64 { return r.Width() + r.Height() }

// Center returns the centroid of r.
func (r Rect) Center() Point { return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2} }

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// ContainsStrict reports whether p lies strictly inside r by more than Eps.
func (r Rect) ContainsStrict(p Point) bool {
	return p.X > r.MinX+Eps && p.X < r.MaxX-Eps && p.Y > r.MinY+Eps && p.Y < r.MaxY-Eps
}

// ContainsRect reports whether r fully contains s.
func (r Rect) ContainsRect(s Rect) bool {
	if s.IsEmpty() {
		return true
	}
	return s.MinX >= r.MinX && s.MaxX <= r.MaxX && s.MinY >= r.MinY && s.MaxY <= r.MaxY
}

// Intersects reports whether r and s share at least a boundary point.
func (r Rect) Intersects(s Rect) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return false
	}
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX && r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// Intersect returns the intersection of r and s (possibly empty).
// Plain comparisons instead of math.Max/Min: for the finite coordinates
// of the index they pick the same value (up to the sign of a zero).
func (r Rect) Intersect(s Rect) Rect {
	out := r
	if s.MinX > out.MinX {
		out.MinX = s.MinX
	}
	if s.MinY > out.MinY {
		out.MinY = s.MinY
	}
	if s.MaxX < out.MaxX {
		out.MaxX = s.MaxX
	}
	if s.MaxY < out.MaxY {
		out.MaxY = s.MaxY
	}
	return out
}

// Union returns the MBR of r and s.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	out := r
	if s.MinX < out.MinX {
		out.MinX = s.MinX
	}
	if s.MinY < out.MinY {
		out.MinY = s.MinY
	}
	if s.MaxX > out.MaxX {
		out.MaxX = s.MaxX
	}
	if s.MaxY > out.MaxY {
		out.MaxY = s.MaxY
	}
	return out
}

// ExpandPoint returns the MBR of r and p.
func (r Rect) ExpandPoint(p Point) Rect {
	if r.IsEmpty() {
		return Rect{p.X, p.Y, p.X, p.Y}
	}
	return Rect{
		math.Min(r.MinX, p.X), math.Min(r.MinY, p.Y),
		math.Max(r.MaxX, p.X), math.Max(r.MaxY, p.Y),
	}
}

// Inflate returns r grown by dx on each side along x and dy along y.
// Negative values shrink; the result may become empty.
func (r Rect) Inflate(dx, dy float64) Rect {
	return Rect{r.MinX - dx, r.MinY - dy, r.MaxX + dx, r.MaxY + dy}
}

// MinDist returns the minimum Euclidean distance from p to r
// (0 if p is inside). This is the mindist metric of [RKV95].
func (r Rect) MinDist(p Point) float64 {
	return math.Sqrt(r.MinDist2(p))
}

// MinDist2 returns the squared minimum distance from p to r. Branches
// instead of math.Max: the per-axis gap is the same value (up to the
// sign of a zero, which squaring removes).
func (r Rect) MinDist2(p Point) float64 {
	var dx, dy float64
	if d := r.MinX - p.X; d > dx {
		dx = d
	}
	if d := p.X - r.MaxX; d > dx {
		dx = d
	}
	if d := r.MinY - p.Y; d > dy {
		dy = d
	}
	if d := p.Y - r.MaxY; d > dy {
		dy = d
	}
	return dx*dx + dy*dy
}

// MaxDist returns the maximum Euclidean distance from p to any point of r.
func (r Rect) MaxDist(p Point) float64 {
	dx := math.Max(math.Abs(p.X-r.MinX), math.Abs(p.X-r.MaxX))
	dy := math.Max(math.Abs(p.Y-r.MinY), math.Abs(p.Y-r.MaxY))
	return math.Hypot(dx, dy)
}

// Corners returns the four corner points of r in counter-clockwise order
// starting at (MinX, MinY).
func (r Rect) Corners() [4]Point {
	return [4]Point{
		{r.MinX, r.MinY}, {r.MaxX, r.MinY}, {r.MaxX, r.MaxY}, {r.MinX, r.MaxY},
	}
}

// Polygon returns r as a counter-clockwise convex polygon.
func (r Rect) Polygon() Polygon {
	c := r.Corners()
	return Polygon{c[0], c[1], c[2], c[3]}
}

// Overlap returns the overlap area between r and s.
func (r Rect) Overlap(s Rect) float64 {
	i := r.Intersect(s)
	if i.IsEmpty() {
		return 0
	}
	return i.Area()
}

// Enlargement returns the increase in area of r needed to include s.
func (r Rect) Enlargement(s Rect) float64 {
	return r.Union(s).Area() - r.Area()
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%.6g,%.6g]x[%.6g,%.6g]", r.MinX, r.MaxX, r.MinY, r.MaxY)
}
