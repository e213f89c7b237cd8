package lbsq

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"lbsq/internal/geom"
	"lbsq/internal/rtree"
)

// Versioned (v1) wire protocol additions: the JSON batch endpoint and
// the RemoteClient configuration surface. Single-query endpoints keep
// the compact binary encodings (see http.go); the batch endpoint wraps
// those same binary payloads in a JSON frame, so one round trip can
// carry many heterogeneous answers without inventing a second encoding
// of validity regions.

// maxWireBatch bounds one POST /v1/batch request: a larger batch is a
// client error, not a memory-exhaustion vector.
const maxWireBatch = 4096

// maxWireBody bounds every JSON request body (batch and session POSTs)
// before it is decoded: 512 bytes per request — a full-precision
// window request is under 300 — times maxWireBatch, so every batch the
// request limit admits fits, and nothing much larger is ever read.
const maxWireBody = maxWireBatch * 512

// batchWireOps maps the wire op names onto batch ops (and back).
var batchWireOps = map[string]BatchOp{
	"nn":     BatchNN,
	"knn":    BatchKNN,
	"window": BatchWindow,
	"range":  BatchRange,
	"count":  BatchCount,
	"search": BatchSearch,
}

// batchWireName returns the wire name of op ("" when unknown).
func batchWireName(op BatchOp) string {
	for name, o := range batchWireOps {
		if o == op {
			return name
		}
	}
	return ""
}

// batchWireReq is one request of a POST /v1/batch body:
//
//	{"requests": [
//	  {"op": "nn", "x": 0.4, "y": 0.6, "k": 1},
//	  {"op": "window", "window": [0.1, 0.1, 0.2, 0.2]},
//	  {"op": "range", "x": 0.5, "y": 0.5, "radius": 0.05},
//	  ...
//	]}
type batchWireReq struct {
	Op     string      `json:"op"`
	X      float64     `json:"x,omitempty"`
	Y      float64     `json:"y,omitempty"`
	K      int         `json:"k,omitempty"`
	Window *[4]float64 `json:"window,omitempty"`
	Radius float64     `json:"radius,omitempty"`
}

// batchWireItem is one enumerated item of a knn/search answer.
type batchWireItem struct {
	ID   int64   `json:"id"`
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
	Dist float64 `json:"dist,omitempty"`
}

// batchWireResp is one answer of a POST /v1/batch response. The NN,
// Window and Range payloads are the binary encodings of EncodeNN /
// EncodeWindow / EncodeRange (base64 in JSON); exactly one result field
// is set, or Error carries the per-request failure.
type batchWireResp struct {
	NN        []byte          `json:"nn,omitempty"`
	Neighbors []batchWireItem `json:"neighbors,omitempty"`
	Window    []byte          `json:"window,omitempty"`
	Range     []byte          `json:"range,omitempty"`
	Count     int             `json:"count,omitempty"`
	Items     []batchWireItem `json:"items,omitempty"`
	CacheHit  bool            `json:"cache_hit,omitempty"`
	Coalesced bool            `json:"coalesced,omitempty"`
	Error     string          `json:"error,omitempty"`
}

// toWireRequests converts a wire batch body into executor requests.
func toWireRequests(wire []batchWireReq) ([]BatchRequest, error) {
	reqs := make([]BatchRequest, len(wire))
	for i := range wire {
		wr := &wire[i]
		op, ok := batchWireOps[wr.Op]
		if !ok {
			return nil, fmt.Errorf("lbsq: request %d: unknown op %q", i, wr.Op)
		}
		reqs[i] = BatchRequest{Op: op, Q: Pt(wr.X, wr.Y), K: wr.K, Radius: wr.Radius}
		if wr.Window != nil {
			w := *wr.Window
			reqs[i].W = R(w[0], w[1], w[2], w[3])
		}
	}
	return reqs, nil
}

// fromWireRequests converts executor requests into the wire batch body.
func fromWireRequests(reqs []BatchRequest) ([]batchWireReq, error) {
	wire := make([]batchWireReq, len(reqs))
	for i := range reqs {
		r := &reqs[i]
		name := batchWireName(r.Op)
		if name == "" {
			return nil, fmt.Errorf("lbsq: request %d: unknown batch op %d", i, r.Op)
		}
		wire[i] = batchWireReq{Op: name, X: r.Q.X, Y: r.Q.Y, K: r.K, Radius: r.Radius}
		zero := geom.ExactZero(r.W.MinX) && geom.ExactZero(r.W.MinY) &&
			geom.ExactZero(r.W.MaxX) && geom.ExactZero(r.W.MaxY)
		if !zero {
			wire[i].Window = &[4]float64{r.W.MinX, r.W.MinY, r.W.MaxX, r.W.MaxY}
		}
	}
	return wire, nil
}

// toWireResponses converts batch answers into the wire response body.
func toWireResponses(resps []BatchResponse) []batchWireResp {
	wire := make([]batchWireResp, len(resps))
	for i := range resps {
		b := &resps[i]
		w := &wire[i]
		w.CacheHit, w.Coalesced = b.CacheHit, b.Coalesced
		if b.Err != nil {
			w.Error = b.Err.Error()
			continue
		}
		if b.NN != nil {
			w.NN = EncodeNN(b.NN)
		}
		if b.Window != nil {
			w.Window = EncodeWindow(b.Window)
		}
		if b.Range != nil {
			w.Range = EncodeRange(b.Range)
		}
		w.Count = b.Count
		for _, nb := range b.Neighbors {
			w.Neighbors = append(w.Neighbors,
				batchWireItem{ID: nb.Item.ID, X: nb.Item.P.X, Y: nb.Item.P.Y, Dist: nb.Dist})
		}
		for _, it := range b.Items {
			w.Items = append(w.Items, batchWireItem{ID: it.ID, X: it.P.X, Y: it.P.Y})
		}
	}
	return wire
}

// fromWireResponses decodes the wire response body back into batch
// answers; universe is needed to rebuild window validity regions.
func fromWireResponses(wire []batchWireResp, universe Rect) ([]BatchResponse, error) {
	resps := make([]BatchResponse, len(wire))
	for i := range wire {
		w := &wire[i]
		b := &resps[i]
		b.CacheHit, b.Coalesced = w.CacheHit, w.Coalesced
		if w.Error != "" {
			b.Err = errors.New(w.Error)
			continue
		}
		var err error
		if len(w.NN) > 0 {
			if b.NN, err = DecodeNN(w.NN); err != nil {
				return nil, fmt.Errorf("lbsq: response %d: %w", i, err)
			}
		}
		if len(w.Window) > 0 {
			if b.Window, err = DecodeWindow(w.Window, universe); err != nil {
				return nil, fmt.Errorf("lbsq: response %d: %w", i, err)
			}
		}
		if len(w.Range) > 0 {
			if b.Range, err = DecodeRange(w.Range); err != nil {
				return nil, fmt.Errorf("lbsq: response %d: %w", i, err)
			}
		}
		b.Count = w.Count
		for _, it := range w.Neighbors {
			b.Neighbors = append(b.Neighbors, Neighbor{
				Item: rtree.Item{ID: it.ID, P: Pt(it.X, it.Y)}, Dist: it.Dist,
			})
		}
		for _, it := range w.Items {
			b.Items = append(b.Items, rtree.Item{ID: it.ID, P: Pt(it.X, it.Y)})
		}
	}
	return resps, nil
}

// handleBatch serves POST /v1/batch: decode the JSON batch, run it
// through the executor — cache, coalescing, grouped shard scatter and
// all — and frame the answers back out.
func (db *DB) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSONError(w, http.StatusMethodNotAllowed, "batch requires POST")
		return
	}
	var body struct {
		Requests []batchWireReq `json:"requests"`
	}
	if !decodeBody(w, r, "batch body", &body) {
		return
	}
	if len(body.Requests) > maxWireBatch {
		writeJSONError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d exceeds the %d-request limit", len(body.Requests), maxWireBatch))
		return
	}
	reqs, err := toWireRequests(body.Requests)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	resps, err := db.Batch(r.Context(), reqs)
	if err != nil {
		writeQueryError(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Responses []batchWireResp `json:"responses"`
	}{toWireResponses(resps)})
}

// decodeBody decodes the JSON body of a POST into v, reading at most
// maxWireBody bytes. On failure it writes the error envelope itself —
// 413 for an oversized body, 400 for a malformed one — and returns
// false.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v interface{}) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxWireBody)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		writeJSONError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("%s exceeds the %d-byte limit", what, maxWireBody))
	default:
		writeJSONError(w, http.StatusBadRequest, "bad "+what+": "+err.Error())
	}
	return false
}

// RemoteOption configures a RemoteClient built by NewRemoteClient.
// Options apply in order; the last setting of a knob wins.
type RemoteOption func(*RemoteClient)

// WithTimeout bounds every request of the client at d, overriding the
// 10-second default (it adjusts the client's http.Client, preserving
// any transport installed by an earlier WithHTTPClient).
func WithTimeout(d time.Duration) RemoteOption {
	return func(c *RemoteClient) {
		hc := *c.httpClient()
		hc.Timeout = d
		c.hc = &hc
	}
}

// WithHTTPClient uses hc for every request — bring your own transport,
// proxy, or TLS configuration.
func WithHTTPClient(hc *http.Client) RemoteOption {
	return func(c *RemoteClient) { c.hc = hc }
}

// WithBaseHeader adds a header to every request the client issues —
// authorization tokens, tracing ids, and the like. Repeat for multiple
// headers.
func WithBaseHeader(key, value string) RemoteOption {
	return func(c *RemoteClient) {
		if c.header == nil {
			c.header = make(http.Header)
		}
		c.header.Add(key, value)
	}
}

// WithSession enables incremental (delta) NN transfer under the given
// session id: the server remembers which items this session has seen.
func WithSession(id string) RemoteOption {
	return func(c *RemoteClient) { c.session = id }
}

// NewRemoteClient returns a client for a DB served by Handler at base
// (e.g. "http://localhost:8080"), configured by opts.
func NewRemoteClient(base string, opts ...RemoteOption) *RemoteClient {
	c := &RemoteClient{Base: base}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Batch executes a heterogeneous batch of queries in one POST
// /v1/batch round trip. The returned slice parallels reqs; per-request
// failures are carried in BatchResponse.Err. Fetch (or set) the
// client's Universe first — window validity regions are rebuilt
// client-side against it.
func (c *RemoteClient) Batch(ctx context.Context, reqs []BatchRequest) ([]BatchResponse, error) {
	wire, err := fromWireRequests(reqs)
	if err != nil {
		return nil, err
	}
	body, err := c.do(ctx, http.MethodPost, "/v1/batch", struct {
		Requests []batchWireReq `json:"requests"`
	}{wire})
	if err != nil {
		return nil, err
	}
	var out struct {
		Responses []batchWireResp `json:"responses"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, err
	}
	if len(out.Responses) != len(reqs) {
		return nil, fmt.Errorf("lbsq: batch returned %d responses for %d requests",
			len(out.Responses), len(reqs))
	}
	return fromWireResponses(out.Responses, c.Universe)
}
