package lbsq

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"

	"lbsq/internal/dist"
	"lbsq/internal/shard"
)

// HTTP surfaces of the distributed cluster. A data node (any unsharded
// DB served by Handler) answers the shard RPC at POST /v1/shard; the
// coordinator front-end (DistDB.Handler) exposes the cluster control
// plane plus the single-server query handlers, answered by the
// coordinator.

// shardBackend adapts an unsharded DB into the shard RPC backend:
// reads share db.mu with local queries, and writes route through the
// DB's full write path (session push invalidation, validity-cache
// epoch bumps). Sharded DBs return nil — a shard cluster inside one
// process is already its own coordinator, and nesting the two
// topologies is not supported.
func (db *DB) shardBackend() shard.Backend {
	if db.cluster != nil {
		return nil
	}
	return &shard.LocalBackend{
		Mu:       &db.mu,
		Srv:      db.server,
		InsertFn: db.Insert,
		DeleteFn: db.Delete,
	}
}

// registerShardRoute mounts the shard RPC endpoint onto a data node's
// mux (no-op for sharded DBs).
func (db *DB) registerShardRoute(mux *http.ServeMux) {
	b := db.shardBackend()
	if b == nil {
		return
	}
	h := dist.NewBackendHandler(b)
	mux.Handle("/v1/shard", instrumentHTTP(db.reg, "/v1/shard", h.ServeHTTP))
}

// Handler returns the coordinator front-end: the cluster control plane
//
//	GET  /v1/cluster/info                  → JSON DistClusterInfo
//	POST /v1/cluster/rebalance?placement=..&partitions=.. → JSON {"moved": n}
//	POST /v1/cluster/join?addr=..          → JSON {"group": g}
//
// plus the read-only query surface, served by the same handlers as
// DB.Handler: /v1/nn, /v1/window, /v1/range, /v1/route, /v1/info and
// /v1/metrics. Degraded answers (a shard was unreachable and the
// validity region was shrunk to exclude its territory) carry the
// X-Lbsq-Degraded: true header. All errors use the /v1 JSON envelope.
func (d *DistDB) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/cluster/info", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(d.Info(r.Context()))
	})
	mux.HandleFunc("/v1/cluster/rebalance", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeJSONError(w, http.StatusMethodNotAllowed, "rebalance requires POST")
			return
		}
		placement := d.coord.Ring().Placement
		if s := r.URL.Query().Get("placement"); s != "" {
			p, err := ParseDistPlacement(s)
			if err != nil {
				writeJSONError(w, http.StatusBadRequest, err.Error())
				return
			}
			placement = p
		}
		partitions := 0
		if s := r.URL.Query().Get("partitions"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 1 {
				writeJSONError(w, http.StatusBadRequest, "bad partitions")
				return
			}
			partitions = n
		}
		moved, err := d.Rebalance(r.Context(), placement, partitions)
		if err != nil {
			writeQueryError(w, r, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]int{"moved": moved})
	})
	mux.HandleFunc("/v1/cluster/join", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeJSONError(w, http.StatusMethodNotAllowed, "join requires POST")
			return
		}
		addr := r.URL.Query().Get("addr")
		if addr == "" {
			writeJSONError(w, http.StatusBadRequest, "join requires an addr parameter")
			return
		}
		group, err := d.Join(r.Context(), addr)
		if err != nil {
			writeQueryError(w, r, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]int{"group": group})
	})
	registerQueryRoutes(mux, d, d.coord.Registry())
	return mux
}

func (d *DistDB) nnAnswer(ctx context.Context, q Point, k int) (*NNValidity, bool, error) {
	v, _, st, err := d.NN(ctx, q, k)
	if err != nil {
		return nil, false, err
	}
	return v.NNValidity, st.Degraded, nil
}

func (d *DistDB) windowAnswer(ctx context.Context, focus Point, qx, qy float64) (*WindowValidity, bool, error) {
	wv, _, st, err := d.WindowAt(ctx, focus, qx, qy)
	return wv, st.Degraded, err
}

func (d *DistDB) rangeAnswer(ctx context.Context, center Point, radius float64) (*RangeValidity, bool, error) {
	rv, _, st, err := d.Range(ctx, center, radius)
	if err != nil {
		return nil, false, err
	}
	return rv.RangeValidity, st.Degraded, nil
}

func (d *DistDB) routeAnswer(ctx context.Context, a, b Point) ([]RouteInterval, bool, error) {
	ivs, st, err := d.RouteNN(ctx, a, b)
	return ivs, st.Degraded, err
}

func (d *DistDB) infoWire(ctx context.Context) map[string]interface{} {
	// Replicas within a group hold the same items, and a join can leave
	// groups with uneven replica counts — so the logical count is one
	// healthy replica's count per group, not a global sum divided by
	// the configured factor.
	count := 0
	counted := map[int]bool{}
	for _, n := range d.Info(ctx).Nodes {
		if n.Err == "" && !counted[n.Group] {
			counted[n.Group] = true
			count += n.Stats.Count
		}
	}
	u := d.Universe()
	return map[string]interface{}{
		"count":    count,
		"universe": [4]float64{u.MinX, u.MinY, u.MaxX, u.MaxY},
		"shards":   d.coord.NumGroups(),
	}
}
