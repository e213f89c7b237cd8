// Package tp implements time-parameterized (TP) queries [TP02] over the
// R*-tree, specialized to the location-based setting of the paper: the
// query point moves along a ray and the "influence time" of an object is
// the travel distance at which it starts affecting the current result.
//
// TPNN/TPkNN are the workhorses of the validity-region algorithms
// (Figs. 10 and 12): a TPkNN query from q toward a region vertex either
// discovers a new influence object (the first outsider to become closer
// than a current result member along the ray) or confirms the vertex.
//
// The search is best-first over the rtree.Index seam (pointer tree or
// flat arena) with a conservative influence-distance lower bound for
// node MBRs; correctness requires only that the bound never exceeds the
// true minimum influence distance of any point in the subtree. Scratch
// state (the node heap, per-member precomputations) is pooled so the
// validity probes that fire dozens of TP queries per region do not
// allocate per probe.
package tp

import (
	"math"
	"sync"

	"lbsq/internal/geom"
	"lbsq/internal/rtree"
)

// CrossDist returns the travel distance t ≥ 0 at which the moving query
// point q + t·u becomes equidistant from member o and outsider a, after
// which a is closer. It returns +Inf if a never becomes closer along the
// ray. u must be a unit vector.
//
// Derivation: dist²(x(t), a) − dist²(x(t), o)
//
//	= |qa|² − |qo|² − 2t·u·(a−o),
//
// which reaches zero at t = (|qa|² − |qo|²) / (2·u·(a−o)) when the
// denominator is positive (the query moves toward a's side of the
// bisector).
func CrossDist(q, u, o, a geom.Point) float64 {
	den := 2 * u.Dot(a.Sub(o))
	if den <= 0 {
		return math.Inf(1)
	}
	num := q.Dist2(a) - q.Dist2(o)
	if num <= 0 {
		// a is already at least as close as o (tie or floating-point
		// noise): it influences immediately.
		return 0
	}
	return num / den
}

// Result is the outcome of a TP nearest-neighbor query.
type Result struct {
	// Obj is the influence object: the first outsider to become closer
	// than a result member along the ray.
	Obj rtree.Item
	// Member is the result member whose bisector with Obj is crossed
	// first (for 1NN queries this is the nearest neighbor itself).
	Member rtree.Item
	// T is the travel distance at which the crossing happens.
	T float64
	// Found reports whether any influence object exists within tMax.
	Found bool
}

// nodeEntry orders tree nodes by their influence-distance lower bound.
type nodeEntry struct {
	lb  float64
	ref rtree.NodeRef
}

// nodeHeap is a typed binary min-heap by lb. The sift operations follow
// container/heap's algorithm exactly so pop order — and therefore node
// accesses — match the previous container/heap implementation without
// boxing every entry.
type nodeHeap []nodeEntry

func (h *nodeHeap) push(e nodeEntry) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

func (h *nodeHeap) pop() nodeEntry {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	h.down(0, n)
	e := q[n]
	*h = q[:n]
	return e
}

func (h nodeHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].lb < h[i].lb) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h nodeHeap) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].lb < h[j1].lb {
			j = j2
		}
		if !(h[j].lb < h[i].lb) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// scratch holds the reusable best-first state of one TP query: the
// node heap and the per-member precomputations. Pooled because the
// validity-region construction issues one TP query per vertex probe.
type scratch struct {
	heap nodeHeap
	d2   []float64
	proj []float64
}

var scratchPool = sync.Pool{New: func() interface{} {
	return &scratch{
		heap: make(nodeHeap, 0, 256),
		d2:   make([]float64, 0, 16),
		proj: make([]float64, 0, 16),
	}
}}

// isMember reports whether id is one of the current result members.
// Linear scan: k is small, and this avoids building a map per query.
func isMember(members []rtree.Item, id int64) bool {
	for i := range members {
		if members[i].ID == id {
			return true
		}
	}
	return false
}

// KNN performs a TPkNN query: the query point starts at q and moves in
// unit direction u; members is the current k-NN result set. It returns
// the first outsider (not in members) whose bisector with some member is
// crossed strictly before travel distance tMax, together with that
// member and the crossing distance. Callers probing a region vertex at
// distance d should pass a slightly inflated cap (d·(1+ε)) so crossings
// landing exactly on the vertex — re-discoveries of known influence
// objects — are still reported.
//
//lbsq:hotpath
func KNN(ix rtree.Index, q, u geom.Point, members []rtree.Item, tMax float64) Result {
	if len(members) == 0 || tMax <= 0 {
		return Result{}
	}
	root := ix.RootRef()
	if !root.Valid() {
		return Result{}
	}
	sc := scratchPool.Get().(*scratch)
	sc.d2, sc.proj = sc.d2[:0], sc.proj[:0]
	for _, m := range members {
		sc.d2 = append(sc.d2, q.Dist2(m.P))
		sc.proj = append(sc.proj, u.Dot(m.P))
	}
	memberD2, memberProj := sc.d2, sc.proj

	best := Result{T: tMax}
	h := sc.heap[:0]
	h.push(nodeEntry{lb: nodeLB(ix.RefRect(root), q, u, memberD2, memberProj), ref: root})
	for len(h) > 0 {
		e := h.pop()
		if e.lb >= best.T {
			break // no remaining subtree can improve the crossing
		}
		ix.Visit(e.ref)
		if ix.RefLeaf(e.ref) {
			for i, n := 0, ix.RefFanout(e.ref); i < n; i++ {
				it := ix.RefItem(e.ref, i)
				// CrossDist against every member, with the member terms
				// precomputed and u·a, |qa|² computed once per item. A
				// crossing that never happens (den ≤ 0, t = +Inf) cannot
				// pass t < best.T, so it is skipped; the member test runs
				// only on an improving crossing, and a member is skipped
				// whole, before it has changed best.
				ua, qa := u.Dot(it.P), q.Dist2(it.P)
				for mi := range memberD2 {
					den := 2 * (ua - memberProj[mi])
					if den <= 0 {
						continue
					}
					var t float64
					if num := qa - memberD2[mi]; num <= 0 {
						t = 0
					} else {
						t = num / den
					}
					if t < best.T {
						if isMember(members, it.ID) {
							break
						}
						best = Result{Obj: it, Member: members[mi], T: t, Found: true}
					}
				}
			}
			continue
		}
		for i, n := 0, ix.RefFanout(e.ref); i < n; i++ {
			lb := nodeLB(ix.RefChildRect(e.ref, i), q, u, memberD2, memberProj)
			if lb < best.T {
				h.push(nodeEntry{lb: lb, ref: ix.RefChild(e.ref, i)})
			}
		}
	}
	sc.heap = h[:0]
	scratchPool.Put(sc)
	if !best.Found {
		return Result{}
	}
	if geom.Checking && (best.T < 0 || math.IsNaN(best.T)) {
		panic("tp: negative or NaN influence time")
	}
	return best
}

// NN performs a TPNN query with a single current nearest neighbor.
func NN(ix rtree.Index, q, u geom.Point, o rtree.Item, tMax float64) Result {
	return KNN(ix, q, u, []rtree.Item{o}, tMax)
}

// nodeLB returns a lower bound on the influence distance of any point in
// the MBR r: for each member o,
//
//	t_a = (|qa|² − |qo|²) / (2·u·(a−o)) ≥ (mindist²(q,E) − |qo|²) / (2·maxProj)
//
// where maxProj bounds u·(a−o) from above over the MBR corners (u·a is
// linear, so the corner maximum is exact). The bound is conservative —
// never above the true minimum — which is all the best-first search
// needs for correctness.
//
// The corner maximum is taken per axis: u·c = u.X·c.X + u.Y·c.Y, and
// rounded addition is monotone in each operand, so the sum of the two
// per-axis maxima is bit-for-bit the largest of the four corner sums.
//
//lbsq:hotpath
func nodeLB(r geom.Rect, q, u geom.Point, memberD2, memberProj []float64) float64 {
	px, py := u.X*r.MinX, u.Y*r.MinY
	if p := u.X * r.MaxX; p > px {
		px = p
	}
	if p := u.Y * r.MaxY; p > py {
		py = p
	}
	maxCorner := px + py
	mind2 := r.MinDist2(q)
	lb := math.Inf(1)
	for i := range memberD2 {
		den := 2 * (maxCorner - memberProj[i])
		if den <= 0 {
			continue // every point in E moves away from this member's bisector
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
