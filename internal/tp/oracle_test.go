package tp

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"lbsq/internal/geom"
	"lbsq/internal/nn"
	"lbsq/internal/rtree"
	"lbsq/internal/rtree/arena"
)

// This file keeps reference copies of the TP probe as it was before the
// leaf loop and the node bound were rewritten. The rewrites are meant
// to be bit-exact, so the oracle test below demands equality — the same
// Result and the same node accesses — not closeness.

// crossDistPre is CrossDist with the member's squared distance and
// projection precomputed (the reference leaf kernel).
func crossDistPre(q, u geom.Point, oD2, oProj float64, a geom.Point) float64 {
	den := 2 * (u.Dot(a) - oProj)
	if den <= 0 {
		return math.Inf(1)
	}
	num := q.Dist2(a) - oD2
	if num <= 0 {
		return 0
	}
	return num / den
}

// nodeLBRef is the reference node bound: the maximum corner projection
// over all four corners, and MinDist2 through math.Max.
func nodeLBRef(r geom.Rect, q, u geom.Point, memberD2, memberProj []float64) float64 {
	maxCorner := math.Inf(-1)
	for _, c := range r.Corners() {
		if p := u.Dot(c); p > maxCorner {
			maxCorner = p
		}
	}
	dx := math.Max(0, math.Max(r.MinX-q.X, q.X-r.MaxX))
	dy := math.Max(0, math.Max(r.MinY-q.Y, q.Y-r.MaxY))
	mind2 := dx*dx + dy*dy
	lb := math.Inf(1)
	for i := range memberD2 {
		den := 2 * (maxCorner - memberProj[i])
		if den <= 0 {
			continue
		}
		num := mind2 - memberD2[i]
		var t float64
		if num <= 0 {
			t = 0
		} else {
			t = num / den
		}
		if t < lb {
			lb = t
		}
	}
	return lb
}

// knnRef is the reference TPkNN probe: member test first, then one
// crossDistPre per (item, member).
func knnRef(ix rtree.Index, q, u geom.Point, members []rtree.Item, tMax float64) Result {
	if len(members) == 0 || tMax <= 0 {
		return Result{}
	}
	root := ix.RootRef()
	if !root.Valid() {
		return Result{}
	}
	var memberD2, memberProj []float64
	for _, m := range members {
		memberD2 = append(memberD2, q.Dist2(m.P))
		memberProj = append(memberProj, u.Dot(m.P))
	}
	best := Result{T: tMax}
	var h nodeHeap
	h.push(nodeEntry{lb: nodeLBRef(ix.RefRect(root), q, u, memberD2, memberProj), ref: root})
	for len(h) > 0 {
		e := h.pop()
		if e.lb >= best.T {
			break
		}
		ix.Visit(e.ref)
		if ix.RefLeaf(e.ref) {
			for i, n := 0, ix.RefFanout(e.ref); i < n; i++ {
				it := ix.RefItem(e.ref, i)
				if isMember(members, it.ID) {
					continue
				}
				for mi, m := range members {
					t := crossDistPre(q, u, memberD2[mi], memberProj[mi], it.P)
					if t < best.T {
						best = Result{Obj: it, Member: m, T: t, Found: true}
					}
				}
			}
			continue
		}
		for i, n := 0, ix.RefFanout(e.ref); i < n; i++ {
			lb := nodeLBRef(ix.RefChildRect(e.ref, i), q, u, memberD2, memberProj)
			if lb < best.T {
				h.push(nodeEntry{lb: lb, ref: ix.RefChild(e.ref, i)})
			}
		}
	}
	if !best.Found {
		return Result{}
	}
	return best
}

// oracleItems draws n points: mostly uniform, plus points snapped to a
// coarse lattice and exact duplicates, so crossings tie, directions run
// parallel to node edges and zero projections occur.
func oracleItems(rng *rand.Rand, n int) []rtree.Item {
	items := make([]rtree.Item, n)
	for i := range items {
		p := geom.Pt(rng.Float64(), rng.Float64())
		switch r := rng.Intn(20); {
		case r == 0:
			p = geom.Pt(math.Round(p.X*64)/64, math.Round(p.Y*64)/64)
		case r == 1 && i > 0:
			p = items[rng.Intn(i)].P
		}
		items[i] = rtree.Item{ID: int64(i), P: p}
	}
	return items
}

// oracleDirection returns a random unit direction, an axis direction
// one time in four.
func oracleDirection(rng *rand.Rand) geom.Point {
	if rng.Intn(4) == 0 {
		return [4]geom.Point{{X: 1}, {X: -1}, {Y: 1}, {Y: -1}}[rng.Intn(4)]
	}
	ang := rng.Float64() * 2 * math.Pi
	return geom.Pt(math.Cos(ang), math.Sin(ang))
}

// TestKNNMatchesReference compares KNN with the reference copy over a
// 100k-point dataset, for k ∈ {1, 4, 10}, on the pointer tree and on
// its frozen arena: every probe must return the identical Result and
// charge the identical number of node accesses.
func TestKNNMatchesReference(t *testing.T) {
	n, probes := 100_000, 1500
	if testing.Short() {
		n, probes = 20_000, 300
	}
	rng := rand.New(rand.NewSource(12))
	items := oracleItems(rng, n)
	tree := rtree.BulkLoad(append([]rtree.Item(nil), items...), rtree.Options{}, 0.7)
	layouts := []struct {
		name string
		ix   rtree.Index
	}{{"pointer", tree}, {"arena", arena.Freeze(tree)}}
	for _, l := range layouts {
		for _, k := range []int{1, 4, 10} {
			found := 0
			for p := 0; p < probes; p++ {
				q := geom.Pt(rng.Float64(), rng.Float64())
				if rng.Intn(10) == 0 {
					q = items[rng.Intn(len(items))].P // the query sits on a data point
				}
				nbs := nn.KNearest(l.ix, q, k)
				members := make([]rtree.Item, len(nbs))
				for i, nb := range nbs {
					members[i] = nb.Item
				}
				u := oracleDirection(rng)
				tMax := rng.Float64() * 0.05
				switch rng.Intn(8) {
				case 0:
					tMax = math.Inf(1)
				case 1:
					tMax = 0.5
				}
				na0 := l.ix.NodeAccesses()
				got := KNN(l.ix, q, u, members, tMax)
				na1 := l.ix.NodeAccesses()
				want := knnRef(l.ix, q, u, members, tMax)
				na2 := l.ix.NodeAccesses()
				if got != want {
					t.Fatalf("%s k=%d probe %d: KNN = %+v, reference = %+v", l.name, k, p, got, want)
				}
				if na1-na0 != na2-na1 {
					t.Fatalf("%s k=%d probe %d: KNN charged %d node accesses, reference %d", l.name, k, p, na1-na0, na2-na1)
				}
				if got.Found {
					found++
				}
			}
			if found == 0 {
				t.Fatalf("%s k=%d: no probe found an influence object; the oracle compared nothing", l.name, k)
			}
		}
	}
}

// TestNodeLBMatchesReference checks the node bound on its own,
// including rectangles that straddle the query point, degenerate
// (point and segment) rectangles and axis directions.
func TestNodeLBMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200_000; trial++ {
		q := geom.Pt(rng.Float64(), rng.Float64())
		u := oracleDirection(rng)
		x0, y0 := rng.Float64(), rng.Float64()
		w, h := rng.Float64()*0.3, rng.Float64()*0.3
		switch rng.Intn(6) {
		case 0:
			w = 0
		case 1:
			h = 0
		case 2:
			x0, y0 = q.X-w/2, q.Y-h/2
		}
		r := geom.R(x0, y0, x0+w, y0+h)
		k := 1 + rng.Intn(10)
		d2, proj := make([]float64, k), make([]float64, k)
		for i := range d2 {
			m := geom.Pt(rng.Float64(), rng.Float64())
			d2[i], proj[i] = q.Dist2(m), u.Dot(m)
		}
		got, want := nodeLB(r, q, u, d2, proj), nodeLBRef(r, q, u, d2, proj)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: nodeLB(%v) = %v, reference %v", trial, r, got, want)
		}
	}
}

// BenchmarkTPKNN measures one TPkNN probe from a query point toward a
// random direction over a 100k-point arena, with the k nearest
// neighbors as members. The benchmark asserts 0 allocs/op: KNN and
// nodeLB carry //lbsq:hotpath and the scratch state is pooled.
func BenchmarkTPKNN(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	items := make([]rtree.Item, 100_000)
	for i := range items {
		items[i] = rtree.Item{ID: int64(i), P: geom.Pt(rng.Float64(), rng.Float64())}
	}
	ix := arena.Freeze(rtree.BulkLoad(items, rtree.Options{}, 0.7))
	type probe struct {
		q, u    geom.Point
		members []rtree.Item
	}
	for _, k := range []int{1, 4, 10} {
		b.Run("k="+strconv.Itoa(k), func(b *testing.B) {
			probes := make([]probe, 256)
			for i := range probes {
				q := geom.Pt(rng.Float64(), rng.Float64())
				var members []rtree.Item
				for _, nb := range nn.KNearest(ix, q, k) {
					members = append(members, nb.Item)
				}
				probes[i] = probe{q: q, u: oracleDirection(rng), members: members}
			}
			// Probe toward a region-vertex distance: a few node accesses,
			// as in the influence phase.
			const tMax = 0.01
			if allocs := testing.AllocsPerRun(100, func() {
				KNN(ix, probes[0].q, probes[0].u, probes[0].members, tMax)
			}); allocs != 0 {
				b.Fatalf("TP probe allocated %.1f times per op, want 0", allocs)
			}
			b.ReportAllocs()
			na0 := ix.NodeAccesses()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := &probes[i%len(probes)]
				sinkResult = KNN(ix, p.q, p.u, p.members, tMax)
			}
			b.StopTimer()
			b.ReportMetric(float64(ix.NodeAccesses()-na0)/float64(b.N), "NA/op")
		})
	}
}

// sinkResult keeps benchmark results live.
var sinkResult Result
