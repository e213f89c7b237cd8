package core

import (
	"fmt"
	"sort"
	"sync"

	"lbsq/internal/geom"
	"lbsq/internal/nn"
	"lbsq/internal/rtree"
	"lbsq/internal/tp"
)

// This file implements the two related-work baselines the paper compares
// against conceptually (Sec. 2): the m-nearest-neighbor buffering scheme
// of Song & Roussopoulos [SR01] and the time-parameterized queries of
// Tao & Papadias [TP02]. The client simulation (examples/navigation and
// BenchmarkClientSavings) pits them against the validity-region client.

// SR01Response is the server answer of the [SR01] scheme: m > k
// neighbors of the query point. The client can answer k-NN queries at a
// new location q′ locally as long as 2·dist(q,q′) ≤ dist(m) − dist(k).
type SR01Response struct {
	Query     geom.Point
	K, M      int
	Neighbors []nn.Neighbor // m neighbors by distance from Query
}

// SR01Query asks the server for m ≥ k neighbors.
func SR01Query(ix rtree.Index, q geom.Point, k, m int) (*SR01Response, error) {
	if m < k {
		return nil, fmt.Errorf("core: SR01 requires m ≥ k (got m=%d k=%d)", m, k)
	}
	nbs := nn.KNearest(ix, q, m)
	if len(nbs) < m {
		return nil, fmt.Errorf("core: dataset has fewer than %d points", m)
	}
	return &SR01Response{Query: q, K: k, M: m, Neighbors: nbs}, nil
}

// Valid reports whether the buffered m neighbors provably contain the
// exact k nearest neighbors of position p: 2·dist(q,p) ≤ dist(m)−dist(k).
func (r *SR01Response) Valid(p geom.Point) bool {
	distK := r.Neighbors[r.K-1].Dist
	distM := r.Neighbors[r.M-1].Dist
	return 2*p.Dist(r.Query) <= distM-distK
}

// ResultAt returns the k nearest neighbors of p among the buffered m
// objects. The answer is exact when Valid(p) holds.
func (r *SR01Response) ResultAt(p geom.Point) []rtree.Item {
	buf := make([]nn.Neighbor, len(r.Neighbors))
	for i, nb := range r.Neighbors {
		buf[i] = nn.Neighbor{Item: nb.Item, Dist: nb.Item.P.Dist(p)}
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i].Dist < buf[j].Dist })
	out := make([]rtree.Item, r.K)
	for i := 0; i < r.K; i++ {
		out[i] = buf[i].Item
	}
	return out
}

// WireSize returns the response size in bytes (m items).
func (r *SR01Response) WireSize() int { return 8 + itemBytes*r.M }

// SR01Client is the [SR01] mobile client with buffer parameter m.
type SR01Client struct {
	Server *Server
	K, M   int
	Stats  ClientStats

	// lock, when set, is held around each server query — the read lock
	// of whoever mutates Server, so no query reads a tree mid-write.
	lock   sync.Locker
	cached *SR01Response
}

// NewSR01Client returns an [SR01] client retrieving m neighbors per
// server query to answer k-NN requests; lock may be nil.
func NewSR01Client(s *Server, lock sync.Locker, k, m int) *SR01Client {
	return &SR01Client{Server: s, lock: lock, K: k, M: m}
}

// At returns the k nearest neighbors of p, using the buffered m
// neighbors when the [SR01] condition allows.
func (c *SR01Client) At(p geom.Point) ([]rtree.Item, error) {
	c.Stats.PositionUpdates++
	if c.cached != nil && c.cached.Valid(p) {
		c.Stats.CacheHits++
		return c.cached.ResultAt(p), nil
	}
	r, err := locked(c.lock, func() (*SR01Response, error) { return SR01Query(c.Server.Index, p, c.K, c.M) })
	if err != nil {
		return nil, err
	}
	c.cached = r
	c.Stats.ServerQueries++
	c.Stats.BytesReceived += int64(r.WireSize())
	return r.ResultAt(p), nil
}

// TP02Response is the <R, T, C> answer of a time-parameterized k-NN
// query: the result R is valid while the client travels up to distance T
// along the declared direction.
type TP02Response struct {
	Query     geom.Point
	Dir       geom.Point // unit direction declared at query time
	Members   []rtree.Item
	T         float64     // validity travel distance
	Change    *rtree.Item // the object causing the change at T, if any
	OutMember *rtree.Item // the member it displaces
}

// TP02NNQuery executes a TP k-NN query from q in unit direction u.
// horizon caps the lookahead (use the universe diameter).
func TP02NNQuery(ix rtree.Index, q, u geom.Point, k int, horizon float64) (*TP02Response, error) {
	nbs := nn.KNearest(ix, q, k)
	if len(nbs) < k {
		return nil, fmt.Errorf("core: dataset has fewer than %d points", k)
	}
	members := make([]rtree.Item, k)
	for i, nb := range nbs {
		members[i] = nb.Item
	}
	resp := &TP02Response{Query: q, Dir: u, Members: members, T: horizon}
	res := tp.KNN(ix, q, u, members, horizon)
	if res.Found {
		obj, mem := res.Obj, res.Member
		resp.T = res.T
		resp.Change = &obj
		resp.OutMember = &mem
	}
	return resp, nil
}

// Valid reports whether the result is still guaranteed at position p,
// which must lie on the declared ray within the validity distance. TP
// queries presuppose straight-line motion: any deviation from the ray
// invalidates the answer (the limitation motivating the paper).
func (r *TP02Response) Valid(p geom.Point) bool {
	d := p.Sub(r.Query)
	t := d.Dot(r.Dir)
	if t < 0 || t >= r.T {
		return false
	}
	// Off-ray deviation beyond tolerance invalidates the TP guarantee.
	perp := d.Sub(r.Dir.Scale(t)).Norm()
	return perp <= geom.Eps*(1+t)
}

// TP02Client simulates a client using TP queries: while it moves along
// a straight line it can also apply the change set C incrementally, so a
// new server query is needed only when it turns.
type TP02Client struct {
	Server  *Server
	K       int
	Horizon float64
	Stats   ClientStats

	lock   sync.Locker // held around each server query (see SR01Client)
	cached *TP02Response
}

// NewTP02Client returns a TP-query client; lock may be nil.
func NewTP02Client(s *Server, lock sync.Locker, k int) *TP02Client {
	diag := geom.Pt(s.Universe.Width(), s.Universe.Height()).Norm()
	return &TP02Client{Server: s, lock: lock, K: k, Horizon: diag}
}

// At returns the k nearest neighbors at p given the client's current
// heading u (unit vector). The cached TP answer is reused only while p
// stays on the declared ray within the validity distance.
func (c *TP02Client) At(p geom.Point, u geom.Point) ([]rtree.Item, error) {
	c.Stats.PositionUpdates++
	if c.cached != nil && sameDir(c.cached.Dir, u) && c.cached.Valid(p) {
		c.Stats.CacheHits++
		return c.cached.Members, nil
	}
	r, err := locked(c.lock, func() (*TP02Response, error) { return TP02NNQuery(c.Server.Index, p, u, c.K, c.Horizon) })
	if err != nil {
		return nil, err
	}
	c.cached = r
	c.Stats.ServerQueries++
	c.Stats.BytesReceived += int64(8 + itemBytes*(len(r.Members)+1))
	return r.Members, nil
}

func sameDir(a, b geom.Point) bool {
	return abs(a.X-b.X) <= geom.Eps && abs(a.Y-b.Y) <= geom.Eps
}

// NaiveClient re-queries the server on every position update — the
// conventional approach the paper's introduction argues against.
type NaiveClient struct {
	Server *Server
	K      int
	Stats  ClientStats

	lock sync.Locker // held around each server query (see SR01Client)
}

// NewNaiveClient returns a naive re-querying client; lock may be nil.
func NewNaiveClient(s *Server, lock sync.Locker, k int) *NaiveClient {
	return &NaiveClient{Server: s, lock: lock, K: k}
}

// At always queries the server.
func (c *NaiveClient) At(p geom.Point) ([]rtree.Item, error) {
	c.Stats.PositionUpdates++
	nbs, _ := locked(c.lock, func() ([]nn.Neighbor, error) { return nn.KNearest(c.Server.Index, p, c.K), nil })
	if len(nbs) < c.K {
		return nil, fmt.Errorf("core: dataset has fewer than %d points", c.K)
	}
	c.Stats.ServerQueries++
	c.Stats.BytesReceived += int64(8 + itemBytes*len(nbs))
	out := make([]rtree.Item, len(nbs))
	for i, nb := range nbs {
		out[i] = nb.Item
	}
	return out, nil
}

// locked runs fn holding l, or without a lock when l is nil.
func locked[T any](l sync.Locker, fn func() (T, error)) (T, error) {
	if l != nil {
		l.Lock()
		defer l.Unlock()
	}
	return fn()
}
