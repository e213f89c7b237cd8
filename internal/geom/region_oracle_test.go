package geom

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"
)

// Reference copies of RectRegion.Area and ConservativeRect as they were
// before the sweep and the precomputed sort keys. Both rewrites are
// meant to be bit-exact, so the tests below compare bits, not values
// within a tolerance.

// areaGridRef tests every grid cell against every hole.
func areaGridRef(rr *RectRegion) float64 {
	if rr.Base.IsEmpty() {
		return 0
	}
	if len(rr.Holes) == 0 {
		return rr.Base.Area()
	}
	xs := []float64{rr.Base.MinX, rr.Base.MaxX}
	ys := []float64{rr.Base.MinY, rr.Base.MaxY}
	for _, h := range rr.Holes {
		xs = append(xs, h.MinX, h.MaxX)
		ys = append(ys, h.MinY, h.MaxY)
	}
	xs = dedupSorted(xs)
	ys = dedupSorted(ys)
	area := 0.0
	for i := 0; i+1 < len(xs); i++ {
		for j := 0; j+1 < len(ys); j++ {
			cx, cy := (xs[i]+xs[i+1])/2, (ys[j]+ys[j+1])/2
			cell := Point{cx, cy}
			if !rr.Base.Contains(cell) {
				continue
			}
			covered := false
			for _, h := range rr.Holes {
				if h.Contains(cell) {
					covered = true
					break
				}
			}
			if !covered {
				area += (xs[i+1] - xs[i]) * (ys[j+1] - ys[j])
			}
		}
	}
	return area
}

// conservativeRectRef recomputes each hole's area inside the sort
// comparator.
func conservativeRectRef(rr *RectRegion, focus Point) Rect {
	if !rr.Contains(focus) {
		return EmptyRect()
	}
	cur := rr.Base
	holes := append([]Rect(nil), rr.Holes...)
	sort.Slice(holes, func(i, j int) bool { return holes[i].Area() > holes[j].Area() })
	for _, h := range holes {
		ov := h.Intersect(cur)
		if ov.IsEmpty() || ov.Area() <= Eps*Eps {
			continue
		}
		best := EmptyRect()
		cands := []Rect{
			{cur.MinX, cur.MinY, ov.MinX, cur.MaxY},
			{ov.MaxX, cur.MinY, cur.MaxX, cur.MaxY},
			{cur.MinX, cur.MinY, cur.MaxX, ov.MinY},
			{cur.MinX, ov.MaxY, cur.MaxX, cur.MaxY},
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
			return Rect{focus.X, focus.Y, focus.X, focus.Y}
		}
		cur = best
	}
	return cur
}

// randomRegion draws a region whose hole edges come from a small pool
// of coordinates (so edges are shared and whole holes coincide), with
// some coordinates nudged by less than Eps (merged by the grid's
// deduplication) and some holes reaching past the base.
func randomRegion(rng *rand.Rand, holes int) *RectRegion {
	var pool []float64
	for i := 0; i < 4+rng.Intn(12); i++ {
		pool = append(pool, rng.Float64())
	}
	coord := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return rng.Float64()*1.4 - 0.2
		case 1:
			return pool[rng.Intn(len(pool))] + (rng.Float64()-0.5)*Eps
		default:
			return pool[rng.Intn(len(pool))]
		}
	}
	span := func() (float64, float64) {
		a, b := coord(), coord()
		return math.Min(a, b), math.Max(a, b)
	}
	x0, x1 := rng.Float64()*0.3, 0.7+rng.Float64()*0.3
	y0, y1 := rng.Float64()*0.3, 0.7+rng.Float64()*0.3
	rr := NewRectRegion(R(x0, y0, x1, y1))
	for len(rr.Holes) < holes {
		if len(rr.Holes) > 0 && rng.Intn(10) == 0 {
			rr.Holes = append(rr.Holes, rr.Holes[rng.Intn(len(rr.Holes))])
			continue
		}
		hx0, hx1 := span()
		hy0, hy1 := span()
		h := R(hx0, hy0, hx1, hy1)
		if rng.Intn(4) == 0 {
			rr.Holes = append(rr.Holes, h) // unclipped: Holes is an exported field
		} else {
			rr.Subtract(h)
		}
	}
	return rr
}

func TestRectRegionAreaMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20_000; trial++ {
		rr := randomRegion(rng, rng.Intn(12))
		switch trial % 50 {
		case 0:
			rr = randomRegion(rng, 20+rng.Intn(60))
		case 1:
			rr = scatteredRegion(rng, 1+rng.Intn(60))
		}
		got, want := rr.Area(), areaGridRef(rr)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: Area = %v, reference %v (base %v, holes %v)", trial, got, want, rr.Base, rr.Holes)
		}
	}
}

func TestConservativeRectMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 5_000; trial++ {
		rr := randomRegion(rng, rng.Intn(40))
		focus := Pt(rr.Base.MinX+rng.Float64()*rr.Base.Width(), rr.Base.MinY+rng.Float64()*rr.Base.Height())
		got, want := rr.ConservativeRect(focus), conservativeRectRef(rr, focus)
		if got != want {
			t.Fatalf("trial %d: ConservativeRect = %v, reference %v", trial, got, want)
		}
	}
}

// scatteredRegion is a window-validity-like region: a unit base with
// holes of random size at random centers, clipped to the base, so the
// hole edges are all distinct.
func scatteredRegion(rng *rand.Rand, holes int) *RectRegion {
	rr := NewRectRegion(R(0, 0, 1, 1))
	for len(rr.Holes) < holes {
		rr.Subtract(RectCenteredAt(Pt(rng.Float64(), rng.Float64()), 0.05+0.2*rng.Float64(), 0.05+0.2*rng.Float64()))
	}
	return rr
}

// BenchmarkRectRegionArea pairs the sweep (new) with the reference grid
// test (ref) on regions of growing hole counts.
func BenchmarkRectRegionArea(b *testing.B) {
	for _, holes := range []int{2, 8, 60} {
		rng := rand.New(rand.NewSource(23))
		regions := make([]*RectRegion, 32)
		for i := range regions {
			regions[i] = scatteredRegion(rng, holes)
		}
		for _, impl := range []struct {
			name string
			area func(*RectRegion) float64
		}{{"new", (*RectRegion).Area}, {"ref", areaGridRef}} {
			b.Run("holes="+strconv.Itoa(holes)+"/"+impl.name, func(b *testing.B) {
				b.ReportAllocs()
				sum := 0.0
				for i := 0; i < b.N; i++ {
					sum += impl.area(regions[i%len(regions)])
				}
				sinkArea = sum
			})
		}
	}
}

var sinkArea float64
