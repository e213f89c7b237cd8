package core

import (
	"fmt"
	"math"

	"lbsq/internal/geom"
	"lbsq/internal/nn"
	"lbsq/internal/rtree"
	"lbsq/internal/tp"
)

// InfluencePair records that outsider Obj forms a validity-region edge
// with result member Member: the region lies in the half-plane of points
// closer to Member than to Obj. For 1NN queries Member is always the
// nearest neighbor; for kNN queries one outsider may pair with several
// members (and contribute several edges).
type InfluencePair struct {
	Obj    rtree.Item
	Member rtree.Item
}

// NNValidity is the server's answer to a location-based (k-)nearest-
// neighbor query: the result itself plus its validity region and the
// influence set that determines it.
type NNValidity struct {
	Query     geom.Point
	K         int
	Neighbors []nn.Neighbor // the k nearest neighbors, by distance

	// Region is the validity region V(q): the (order-k) Voronoi cell of
	// the result set, clipped to the data universe.
	Region geom.Polygon
	// Pairs are the influence pairs defining the region's bisector edges
	// (the set S_inf_p of Fig. 12).
	Pairs []InfluencePair
	// Influence is the influence set S_inf: the distinct objects
	// appearing in Pairs.
	Influence []rtree.Item

	// TPQueries is the number of TP(k)NN probes executed; by Lemma 3.2
	// it equals the number of influence pairs plus confirmed vertices.
	TPQueries int

	// GuardCenter/GuardRadius describe an optional guard circle produced
	// by the INSQ strategy (internal/insq): the influence pairs constrain
	// the result only against the *influential* neighbors, so the answer
	// is additionally valid only while the client stays within GuardRadius
	// of GuardCenter — outside, an unseen object could enter the result.
	// GuardRadius == 0 means no guard (the TPkNN region is exact).
	GuardCenter geom.Point
	GuardRadius float64
}

// Result returns the result items without distances.
func (v *NNValidity) Result() []rtree.Item {
	out := make([]rtree.Item, len(v.Neighbors))
	for i, nb := range v.Neighbors {
		out[i] = nb.Item
	}
	return out
}

// Valid reports whether the cached result is still correct at position
// p, using the half-plane test the paper prescribes for thin clients:
// p must be closer to each result member than to the member's paired
// influence objects. (The test deliberately ignores the universe
// boundary: Voronoi cells of border sites extend beyond it.) A guarded
// answer (GuardRadius > 0, see internal/insq) additionally requires p
// to stay inside the guard circle.
func (v *NNValidity) Valid(p geom.Point) bool {
	if v.GuardRadius > 0 && p.Dist2(v.GuardCenter) > v.GuardRadius*v.GuardRadius {
		return false
	}
	for _, pr := range v.Pairs {
		if p.Dist2(pr.Obj.P) < p.Dist2(pr.Member.P) {
			return false
		}
	}
	return true
}

// RegionPolygon reconstructs the validity-region polygon from the
// influence pairs by clipping the universe with each bisector
// half-plane — what a client that only received the wire form computes
// when it needs the region's geometry (area, rendering) rather than
// just membership tests.
func (v *NNValidity) RegionPolygon(universe geom.Rect) geom.Polygon {
	pg := universe.Polygon()
	if v.GuardRadius > 0 {
		pg = pg.IntersectConvex(inscribedPolygon(v.GuardCenter, v.GuardRadius, guardPolygonSides))
		if pg.IsEmpty() {
			return geom.Polygon{}
		}
	}
	for _, pr := range v.Pairs {
		pg = pg.ClipHalfPlane(geom.Bisector(pr.Member.P, pr.Obj.P))
		if pg.IsEmpty() {
			return geom.Polygon{}
		}
	}
	return pg
}

// guardPolygonSides is the vertex count of the regular polygon used to
// approximate a guard circle. Inscribed vertices keep the approximation
// a subset of the circle, so guarded regions stay conservative.
const guardPolygonSides = 16

// inscribedPolygon returns the regular n-gon inscribed in the circle of
// radius r around c (counter-clockwise).
func inscribedPolygon(c geom.Point, r float64, n int) geom.Polygon {
	pg := make(geom.Polygon, n)
	for i := 0; i < n; i++ {
		a := 2 * math.Pi * float64(i) / float64(n)
		pg[i] = geom.Pt(c.X+r*math.Cos(a), c.Y+r*math.Sin(a))
	}
	return pg
}

// maxInfluenceIterations bounds the Fig. 10/12 loop against pathological
// floating-point configurations; in correct executions the loop performs
// ninf + nv iterations, both of which are small (≈ 6 each for 1NN on
// uniform data).
const maxInfluenceIterations = 100000

// vertexCapEps inflates the TP query cap so crossings landing exactly on
// the probed vertex (re-discoveries of known influence objects) are
// reported rather than lost to the strict-inequality semantics.
const vertexCapEps = 1e-9

// InfluenceSetKNN runs the paper's algorithm Retrieve_Influence_Set_kNN
// (Fig. 12; Fig. 10 is the k = 1 case): starting from the data universe,
// repeatedly probe an unconfirmed region vertex with a TPkNN query,
// clipping the region by the bisector of every newly discovered
// influence pair, until all vertices are confirmed.
//
// members must be the exact k nearest neighbors of q. The universe
// rectangle bounds the initial region.
func InfluenceSetKNN(ix rtree.Index, q geom.Point, members []rtree.Item, universe geom.Rect) (*NNValidity, error) {
	return InfluenceSetKNNOrdered(ix, q, members, universe, OrderFirst)
}

// InfluenceSetKNNOrdered is InfluenceSetKNN with an explicit
// vertex-probing order (see VertexOrder); used by the ablation
// experiments.
func InfluenceSetKNNOrdered(ix rtree.Index, q geom.Point, members []rtree.Item, universe geom.Rect, order VertexOrder) (*NNValidity, error) {
	v := &NNValidity{Query: q, K: len(members)}
	for _, m := range members {
		v.Neighbors = append(v.Neighbors, nn.Neighbor{Item: m, Dist: m.P.Dist(q)})
	}
	if len(members) == 0 {
		return v, fmt.Errorf("core: empty result set")
	}

	vp := newVertexPoly(universe.Polygon())

	for iter := 0; iter < maxInfluenceIterations; iter++ {
		vi := vp.nextUnconfirmed(order, q)
		if vi < 0 {
			if geom.Checking {
				assertRegion(q, vp.poly, universe)
			}
			v.Region = vp.poly
			return v, nil
		}
		vert := vp.poly[vi]
		d := q.Dist(vert)
		if d <= geom.Eps {
			// The query sits on the region boundary (a tie); nothing to
			// probe in this direction.
			vp.confirm(vi)
			continue
		}
		u := vert.Sub(q).Unit()
		tCap := d*(1+vertexCapEps) + 1e-12
		res := tp.KNN(ix, q, u, members, tCap)
		v.TPQueries++

		if !res.Found || hasPair(v.Pairs, res.Obj.ID, res.Member.ID) {
			vp.confirm(vi)
			continue
		}
		v.Pairs = append(v.Pairs, InfluencePair{Obj: res.Obj, Member: res.Member})
		if !hasItem(v.Influence, res.Obj.ID) {
			v.Influence = append(v.Influence, res.Obj)
		}
		vp.clip(geom.Bisector(res.Member.P, res.Obj.P))
		if vp.empty() {
			// Degenerate region (e.g. duplicate points tied with the
			// result): the result changes under any movement.
			v.Region = geom.Polygon{}
			return v, nil
		}
	}
	v.Region = vp.poly
	return v, fmt.Errorf("core: influence-set iteration cap reached (degenerate input?)")
}

// hasPair reports whether pairs already holds the pair (obj, member).
// A linear scan: a region has tens of pairs at most, and the scan
// spares every query two maps.
func hasPair(pairs []InfluencePair, obj, member int64) bool {
	for _, p := range pairs {
		if p.Obj.ID == obj && p.Member.ID == member {
			return true
		}
	}
	return false
}

// hasItem reports whether items holds an item with the given id.
func hasItem(items []rtree.Item, id int64) bool {
	for _, it := range items {
		if it.ID == id {
			return true
		}
	}
	return false
}

// assertRegion checks the Lemma 3.1/3.2 invariants on a completed
// validity region: it must contain the query point and stay convex (it
// is an intersection of half-planes). The region is clipped to the
// universe rectangle, so containment is only required for in-universe
// queries. Guarded by geom.Checking, so the calls compile away outside
// lbsqcheck builds.
func assertRegion(q geom.Point, pg geom.Polygon, universe geom.Rect) {
	if pg.IsEmpty() {
		return
	}
	if universe.Contains(q) && !pg.Contains(q) {
		panic("core: validity region does not contain the query point")
	}
	if !pg.IsConvex() {
		panic("core: validity region is not convex")
	}
}

// InfluenceSet1NN runs algorithm Retrieve_Influence_Set_1NN (Fig. 10).
func InfluenceSet1NN(ix rtree.Index, q geom.Point, o rtree.Item, universe geom.Rect) (*NNValidity, error) {
	return InfluenceSetKNN(ix, q, []rtree.Item{o}, universe)
}
