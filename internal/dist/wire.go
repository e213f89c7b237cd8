package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"lbsq/internal/core"
	"lbsq/internal/geom"
	"lbsq/internal/nn"
	"lbsq/internal/rtree"
	"lbsq/internal/shard"
	"lbsq/internal/tp"
)

// The shard RPC: POST /v1/shard with a JSON rpcRequest executes each op
// against the node's local backend and returns one rpcResult per op.
// JSON is used (not the binary point codec of the client endpoints)
// because float64 round-trips exactly through encoding/json, and the
// merge algorithms need bit-exact parts. The universe field guards
// against heterogenous clusters: nodes reject requests whose universe
// differs from their own with 422.

// Op names of the shard RPC.
const (
	opKNNCand    = "knncand"
	opInfluence  = "influence"
	opRangeScan  = "rangescan"
	opRangeOuter = "rangeouter"
	opNearest    = "nearest"
	opRoute      = "route"
	opCount      = "count"
	opScan       = "scan"
	opInsert     = "insert"
	opDelete     = "delete"
	opLoad       = "load"
	opUnload     = "unload"
	opStats      = "stats"
)

// maxRPCOps bounds the ops of one RPC (mirrors the v1 batch cap).
const maxRPCOps = 4096

type rpcRequest struct {
	Universe geom.Rect `json:"universe"`
	Ops      []rpcOp   `json:"ops"`
}

// rpcOp is one operation: a tagged union over the Backend surface.
type rpcOp struct {
	Op      string       `json:"op"`
	Q       geom.Point   `json:"q"`
	B       geom.Point   `json:"b"`                 // route end
	K       int          `json:"k,omitempty"`       // knncand
	W       geom.Rect    `json:"w"`                 // scan/count rect; rangeouter search rect
	Skip    *geom.Rect   `json:"skip,omitempty"`    // scan: rect to skip (none when absent)
	Radius  float64      `json:"radius,omitempty"`  // rangescan, rangeouter
	Members []rtree.Item `json:"members,omitempty"` // influence
	Inner   []geom.Disk  `json:"inner,omitempty"`   // rangeouter
	Exclude []int64      `json:"exclude,omitempty"` // rangeouter result ids
	Item    *rtree.Item  `json:"item,omitempty"`    // insert, delete
	Items   []rtree.Item `json:"items,omitempty"`   // load, unload
}

// nnPart is the wire form of an influence part: only the pairs and the
// probe count travel — the coordinator rebuilds the region from the
// pairs, exactly as the in-process merger does.
type nnPart struct {
	Pairs     []core.InfluencePair `json:"pairs"`
	TPQueries int                  `json:"tpq"`
}

type rpcResult struct {
	Err       string              `json:"err,omitempty"`
	Neighbors []nn.Neighbor       `json:"neighbors,omitempty"`
	Part      *nnPart             `json:"part,omitempty"`
	Items     []rtree.Item        `json:"items,omitempty"`
	Cands     int                 `json:"cands,omitempty"`
	Neighbor  *nn.Neighbor        `json:"neighbor,omitempty"`
	OK        bool                `json:"ok,omitempty"`
	Route     []tp.CNNInterval    `json:"route,omitempty"`
	N         int                 `json:"n,omitempty"`
	Stats     *shard.BackendStats `json:"stats,omitempty"`
	Cost      shard.Cost          `json:"cost"`
}

type rpcResponse struct {
	Results []rpcResult `json:"results"`
}

// NewBackendHandler serves the shard RPC over b. Mount it at
// POST /v1/shard on every data node; the coordinator's RemoteBackend
// is its client.
func NewBackendHandler(b shard.Backend) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeRPCError(w, http.StatusMethodNotAllowed, "dist: POST required")
			return
		}
		ctx := r.Context()
		data, err := io.ReadAll(io.LimitReader(r.Body, maxRPCBody))
		if err != nil {
			writeRPCError(w, http.StatusBadRequest, "dist: reading body: "+err.Error())
			return
		}
		var req rpcRequest
		if err := json.Unmarshal(data, &req); err != nil {
			writeRPCError(w, http.StatusBadRequest, "dist: decoding request: "+err.Error())
			return
		}
		if len(req.Ops) == 0 || len(req.Ops) > maxRPCOps {
			writeRPCError(w, http.StatusUnprocessableEntity,
				fmt.Sprintf("dist: %d ops, want 1..%d", len(req.Ops), maxRPCOps))
			return
		}
		st, err := b.Stats(ctx)
		if err != nil {
			writeRPCError(w, http.StatusInternalServerError, "dist: stats: "+err.Error())
			return
		}
		if !geom.SameRect(st.Universe, req.Universe) {
			writeRPCError(w, http.StatusUnprocessableEntity,
				fmt.Sprintf("dist: universe mismatch: node %v, request %v", st.Universe, req.Universe))
			return
		}
		resp := rpcResponse{Results: make([]rpcResult, len(req.Ops))}
		for i, op := range req.Ops {
			if ctx.Err() != nil {
				return // client gone; the reply has no reader
			}
			resp.Results[i] = execOp(ctx, b, op)
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(&resp); err != nil {
			return // connection-level failure; nothing left to report
		}
	})
}

// execOp runs one RPC op against the backend.
func execOp(ctx context.Context, b shard.Backend, op rpcOp) (res rpcResult) {
	var err error
	switch op.Op {
	case opKNNCand:
		res.Neighbors, res.Cost, err = b.KNNCandidates(ctx, op.Q, op.K)
	case opInfluence:
		var part *core.NNValidity
		part, res.Cost, err = b.Influence(ctx, op.Q, op.Members)
		if err == nil {
			res.Part = &nnPart{Pairs: part.Pairs, TPQueries: part.TPQueries}
		}
	case opScan:
		skip := geom.EmptyRect()
		if op.Skip != nil {
			skip = *op.Skip
		}
		res.Items, res.Cost, err = b.Scan(ctx, op.W, skip)
	case opRangeScan:
		res.Items, res.Cost, err = b.RangeScan(ctx, op.Q, op.Radius)
	case opRangeOuter:
		res.Items, res.Cands, res.Cost, err = b.RangeOuter(ctx, op.W, op.Inner, op.Radius, op.Exclude)
	case opNearest:
		var nb nn.Neighbor
		nb, res.OK, res.Cost, err = b.Nearest(ctx, op.Q)
		if err == nil && res.OK {
			res.Neighbor = &nb
		}
	case opRoute:
		res.Route, res.Cost, err = b.Route(ctx, op.Q, op.B)
	case opCount:
		res.N, err = b.CountWindow(ctx, op.W)
	case opInsert:
		if op.Item == nil {
			err = fmt.Errorf("dist: insert without item")
		} else {
			err = b.Insert(ctx, *op.Item)
		}
	case opDelete:
		if op.Item == nil {
			err = fmt.Errorf("dist: delete without item")
		} else {
			res.OK, err = b.Delete(ctx, *op.Item)
		}
	case opLoad:
		err = b.Load(ctx, op.Items)
	case opUnload:
		err = b.Unload(ctx, op.Items)
	case opStats:
		var st shard.BackendStats
		st, err = b.Stats(ctx)
		if err == nil {
			res.Stats = &st
		}
	default:
		err = fmt.Errorf("dist: unknown op %q", op.Op)
	}
	if err != nil {
		res = rpcResult{Err: err.Error()}
	}
	return res
}

// writeRPCError writes the v1 error envelope.
func writeRPCError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	// Encoding a flat struct of string+int cannot fail.
	_ = enc.Encode(struct {
		Error string `json:"error"`
		Code  int    `json:"code"`
	}{Error: msg, Code: status})
}
