package core

import (
	"fmt"
	"sync"

	"lbsq/internal/geom"
	"lbsq/internal/rtree"
	"lbsq/internal/voronoi"
)

// ZL01Server implements the baseline of Zheng & Lee [ZL01]: the Voronoi
// diagram of the dataset is precomputed and stored; a moving 1-NN query
// is answered by point location, and the client additionally receives a
// validity time T — the time to reach the nearest cell boundary at the
// assumed maximum speed. The paper's critiques (Sec. 2/3): the diagram
// is expensive to maintain under updates, only supports k = 1, and T
// depends on an a-priori maximum speed — too small a T wastes queries,
// too large risks stale results.
type ZL01Server struct {
	Diagram  *voronoi.Diagram
	MaxSpeed float64
}

// NewZL01Server precomputes the diagram over the index seam (pointer
// tree or frozen arena alike). maxSpeed must be positive.
func NewZL01Server(ix rtree.Index, universe geom.Rect, maxSpeed float64) (*ZL01Server, error) {
	if maxSpeed <= 0 {
		return nil, fmt.Errorf("core: ZL01 max speed must be positive")
	}
	return &ZL01Server{Diagram: voronoi.Build(ix, universe), MaxSpeed: maxSpeed}, nil
}

// ZL01Response carries the NN and its validity time.
type ZL01Response struct {
	Query geom.Point
	NN    rtree.Item
	// T is the validity time: the result is guaranteed while less than
	// T time has elapsed, assuming the client moves at most at MaxSpeed.
	T float64
	// SafeRadius is the underlying distance to the Voronoi cell
	// boundary (T = SafeRadius / MaxSpeed).
	SafeRadius float64
}

// Query answers a 1-NN query at q.
func (s *ZL01Server) Query(q geom.Point) (*ZL01Response, error) {
	cell, err := s.Diagram.Locate(q)
	if err != nil {
		return nil, err
	}
	r := cell.SafeRadius(q)
	return &ZL01Response{Query: q, NN: cell.Site, T: r / s.MaxSpeed, SafeRadius: r}, nil
}

// ZL01Client simulates a client of the [ZL01] scheme: it re-queries once
// the elapsed time reaches the validity time of the cached answer.
type ZL01Client struct {
	Server *ZL01Server
	Stats  ClientStats

	// lock, when set, is held around each server query, which locates
	// the nearest site in the live index (see SR01Client).
	lock    sync.Locker
	cached  *ZL01Response
	expires float64 // absolute time at which the cached answer expires
}

// NewZL01Client returns a client of the given server; lock may be nil.
func NewZL01Client(s *ZL01Server, lock sync.Locker) *ZL01Client {
	return &ZL01Client{Server: s, lock: lock}
}

// At returns the NN at position p and absolute time now. The caller's
// clock must be monotone. Results can be stale if the client exceeded
// the server's assumed maximum speed (the scheme's documented hazard).
func (c *ZL01Client) At(p geom.Point, now float64) (rtree.Item, error) {
	c.Stats.PositionUpdates++
	if c.cached != nil && now < c.expires {
		c.Stats.CacheHits++
		return c.cached.NN, nil
	}
	r, err := locked(c.lock, func() (*ZL01Response, error) { return c.Server.Query(p) })
	if err != nil {
		return rtree.Item{}, err
	}
	c.cached = r
	c.expires = now + r.T
	c.Stats.ServerQueries++
	c.Stats.BytesReceived += int64(itemBytes + 8)
	return r.NN, nil
}
