package lbsq

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"lbsq/internal/core"
	"lbsq/internal/obs"
)

// HTTP transport for the client/server architecture of the paper: a DB
// can be served over the wire protocol, and RemoteClient mirrors the
// local query API from another process. Responses use the compact
// binary encodings of EncodeNN / EncodeWindow — the representation whose
// size the paper argues must stay small.

// statusCanceled reports that the client went away before the response
// was produced (nginx's non-standard 499, the de-facto convention).
const statusCanceled = 499

// Handler returns an http.Handler exposing the query server:
//
//	GET  /v1/nn?x=..&y=..&k=..            → binary NN response (EncodeNN)
//	GET  /v1/window?x=..&y=..&qx=..&qy=.. → binary window response
//	GET  /v1/range?x=..&y=..&r=..         → binary range response
//	GET  /v1/route?x1=..&y1=..&x2=..&y2=.. → binary route response
//	POST /v1/batch                        → JSON batch (see batchWireReq)
//	GET  /v1/info                         → JSON {"count":..,"universe":[..]}
//	GET  /v1/metrics                      → Prometheus text exposition
//	POST /v1/shard                        → shard RPC (unsharded DBs only):
//	                                        the surface a distributed
//	                                        coordinator drives (see
//	                                        OpenDistributed)
//
// Continuous-query sessions (see httpsession.go):
//
//	POST   /v1/session             → open a session (JSON body)
//	POST   /v1/session/{id}/move   → position update
//	GET    /v1/session/{id}/events → long-poll for push invalidations
//	DELETE /v1/session/{id}        → close
//
// Every error is the uniform JSON envelope {"error": ..., "code": ...}.
// Every handler passes the request context into the query, so a client
// disconnect aborts a slow sharded scatter instead of burning workers
// on an answer nobody will read.
func (db *DB) Handler() http.Handler {
	mux := http.NewServeMux()
	registerQueryRoutes(mux, db, db.reg)
	mux.Handle("/v1/batch", instrumentHTTP(db.reg, "/v1/batch", db.handleBatch))
	db.registerSessionRoutes(mux)
	db.registerShardRoute(mux)
	db.registerAdminRoutes(mux)
	return mux
}

// queryFacade is the query surface the shared /v1 handlers serve, met
// by *DB and *DistDB. Each answer comes with a degraded flag: true when
// a coordinator could not reach a shard in an influence phase and
// shrank the validity region to exclude its territory (a DB answer is
// never degraded).
type queryFacade interface {
	nnAnswer(ctx context.Context, q Point, k int) (*NNValidity, bool, error)
	windowAnswer(ctx context.Context, focus Point, qx, qy float64) (*WindowValidity, bool, error)
	rangeAnswer(ctx context.Context, center Point, radius float64) (*RangeValidity, bool, error)
	routeAnswer(ctx context.Context, a, b Point) ([]RouteInterval, bool, error)
	// infoWire is the GET /v1/info body.
	infoWire(ctx context.Context) map[string]interface{}
	WriteMetrics(w io.Writer) error
}

func (db *DB) nnAnswer(ctx context.Context, q Point, k int) (*NNValidity, bool, error) {
	v, _, err := db.NN(ctx, q, k)
	return v, false, err
}

func (db *DB) windowAnswer(ctx context.Context, focus Point, qx, qy float64) (*WindowValidity, bool, error) {
	wv, _, err := db.WindowAt(ctx, focus, qx, qy)
	return wv, false, err
}

func (db *DB) rangeAnswer(ctx context.Context, center Point, radius float64) (*RangeValidity, bool, error) {
	rv, _, err := db.Range(ctx, center, radius)
	return rv, false, err
}

func (db *DB) routeAnswer(ctx context.Context, a, b Point) ([]RouteInterval, bool, error) {
	ivs, err := db.RouteNN(ctx, a, b)
	return ivs, false, err
}

func (db *DB) infoWire(context.Context) map[string]interface{} {
	u := db.Universe()
	info := map[string]interface{}{
		"count":            db.Len(),
		"universe":         [4]float64{u.MinX, u.MinY, u.MaxX, u.MaxY},
		"shards":           db.NumShards(),
		"session_strategy": db.SessionStrategy(),
	}
	if stats := db.ShardStatsList(); stats != nil {
		type shardInfo struct {
			Resp         [4]float64 `json:"resp"`
			Count        int        `json:"count"`
			NodeAccesses int64      `json:"node_accesses"`
		}
		out := make([]shardInfo, len(stats))
		for i, st := range stats {
			out[i] = shardInfo{
				Resp:         [4]float64{st.Resp.MinX, st.Resp.MinY, st.Resp.MaxX, st.Resp.MaxY},
				Count:        st.Count,
				NodeAccesses: st.NodeAccesses,
			}
		}
		info["shard_stats"] = out
	}
	return info
}

// registerQueryRoutes mounts the query, info and metrics endpoints of
// f on mux, each instrumented on reg. Degraded answers carry the
// X-Lbsq-Degraded: true header; the encoded region is already the
// shrunk one, so a client honoring the region contract stays
// conservative.
func registerQueryRoutes(mux *http.ServeMux, f queryFacade, reg *obs.Registry) {
	sessions := &sessionStore{sessions: make(map[string]*session)}
	handle := func(path string, h http.HandlerFunc) {
		mux.Handle(path, instrumentHTTP(reg, path, h))
	}
	handle("/v1/nn", func(w http.ResponseWriter, r *http.Request) {
		q, err := parsePoint(r)
		if err != nil {
			writeJSONError(w, http.StatusBadRequest, err.Error())
			return
		}
		k, err := parseInt(r, "k", 1)
		if err != nil || k < 1 {
			writeJSONError(w, http.StatusBadRequest, "bad k")
			return
		}
		v, degraded, err := f.nnAnswer(r.Context(), q, k)
		if err != nil {
			writeQueryError(w, r, err)
			return
		}
		if sid := r.URL.Query().Get("session"); sid != "" {
			// Delta transfer: items this session already received are
			// referenced by id only. Encode and record under the
			// session's own lock — concurrent requests for different
			// sessions proceed in parallel, and the response write
			// happens outside any lock.
			ss := sessions.get(sid)
			ss.mu.Lock()
			payload := core.EncodeNNDelta(v, func(id int64) bool { return ss.ids[id] })
			for _, nb := range v.Neighbors {
				ss.ids[nb.Item.ID] = true
			}
			for _, it := range v.Influence {
				ss.ids[it.ID] = true
			}
			ss.mu.Unlock()
			writeBinary(w, degraded, payload)
			return
		}
		writeBinary(w, degraded, EncodeNN(v))
	})
	handle("/v1/route", func(w http.ResponseWriter, r *http.Request) {
		x1, e1 := parseFloat(r, "x1")
		y1, e2 := parseFloat(r, "y1")
		x2, e3 := parseFloat(r, "x2")
		y2, e4 := parseFloat(r, "y2")
		if e1 != nil || e2 != nil || e3 != nil || e4 != nil {
			writeJSONError(w, http.StatusBadRequest, "bad route endpoints")
			return
		}
		ivs, degraded, err := f.routeAnswer(r.Context(), Pt(x1, y1), Pt(x2, y2))
		if err != nil {
			writeQueryError(w, r, err)
			return
		}
		writeBinary(w, degraded, core.EncodeRoute(ivs))
	})
	handle("/v1/window", func(w http.ResponseWriter, r *http.Request) {
		q, err := parsePoint(r)
		if err != nil {
			writeJSONError(w, http.StatusBadRequest, err.Error())
			return
		}
		qx, err1 := parseFloat(r, "qx")
		qy, err2 := parseFloat(r, "qy")
		if err1 != nil || err2 != nil || qx <= 0 || qy <= 0 {
			writeJSONError(w, http.StatusBadRequest, "bad window extents")
			return
		}
		wv, degraded, err := f.windowAnswer(r.Context(), q, qx, qy)
		if err != nil {
			writeQueryError(w, r, err)
			return
		}
		writeBinary(w, degraded, EncodeWindow(wv))
	})
	handle("/v1/range", func(w http.ResponseWriter, r *http.Request) {
		q, err := parsePoint(r)
		if err != nil {
			writeJSONError(w, http.StatusBadRequest, err.Error())
			return
		}
		radius, err := parseFloat(r, "r")
		if err != nil || radius <= 0 {
			writeJSONError(w, http.StatusBadRequest, "bad radius")
			return
		}
		rv, degraded, err := f.rangeAnswer(r.Context(), q, radius)
		if err != nil {
			writeQueryError(w, r, err)
			return
		}
		writeBinary(w, degraded, EncodeRange(rv))
	})
	handle("/v1/info", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(f.infoWire(r.Context()))
	})
	handle("/v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// A write error means the scrape client disconnected mid-body;
		// the status line is already out, so there is nothing to send.
		f.WriteMetrics(w)
	})
}

// writeBinary writes one binary query answer, stamping the degradation
// header first.
func writeBinary(w http.ResponseWriter, degraded bool, payload []byte) {
	if degraded {
		w.Header().Set("X-Lbsq-Degraded", "true")
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(payload)
}

// writeJSONError is the /v1 error envelope: every error, on every
// endpoint, is {"error": <message>, "code": <status>}.
func writeJSONError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorEnvelope{Error: msg, Code: code})
}

// errorEnvelope is the uniform /v1 JSON error body.
type errorEnvelope struct {
	Error string `json:"error"`
	Code  int    `json:"code"`
}

// writeQueryError maps a query error onto an HTTP status: a cancelled
// request context means the client went away (499); anything else is an
// unprocessable query.
func writeQueryError(w http.ResponseWriter, r *http.Request, err error) {
	if r.Context().Err() != nil {
		writeJSONError(w, statusCanceled, "client canceled request")
		return
	}
	writeJSONError(w, http.StatusUnprocessableEntity, err.Error())
}

// statusWriter records the response status for the request metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.code = code
	sw.ResponseWriter.WriteHeader(code)
}

// instrumentHTTP wraps one endpoint with the HTTP-layer metrics:
// per-path request latency, per-path-and-status request counts, and a
// server-wide in-flight gauge.
func instrumentHTTP(reg *obs.Registry, path string, h http.HandlerFunc) http.Handler {
	dur := reg.Histogram("lbsq_http_request_duration_us",
		"HTTP request latency in microseconds, by path.",
		obs.Labels{"path": path}, obs.LatencyBucketsUS)
	inFlight := reg.Gauge("lbsq_http_in_flight",
		"HTTP requests currently being served.", nil)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		inFlight.Add(1)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		inFlight.Add(-1)
		dur.Observe(float64(time.Since(start).Microseconds()))
		reg.Counter("lbsq_http_requests_total",
			"HTTP requests served, by path and status code.",
			obs.Labels{"path": path, "code": strconv.Itoa(sw.code)}).Inc()
	})
}

func parsePoint(r *http.Request) (Point, error) {
	x, err1 := parseFloat(r, "x")
	y, err2 := parseFloat(r, "y")
	if err1 != nil || err2 != nil {
		return Point{}, fmt.Errorf("lbsq: bad x/y coordinates")
	}
	return Pt(x, y), nil
}

// parseFloat parses a finite float query parameter. NaN and ±Inf are
// rejected: non-finite coordinates poison every distance comparison
// downstream (NaN compares false with everything), so they are a client
// error, not a query.
func parseFloat(r *http.Request, name string) (float64, error) {
	v, err := strconv.ParseFloat(r.URL.Query().Get(name), 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("lbsq: parameter %q must be finite", name)
	}
	return v, nil
}

func parseInt(r *http.Request, name string, def int) (int, error) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return def, nil
	}
	return strconv.Atoi(s)
}

// session is one delta session's received-item set, with its own lock
// so concurrent requests for different sessions never serialize on a
// store-wide mutex (and no lock is ever held across a response write).
type session struct {
	mu  sync.Mutex
	ids map[int64]bool
}

// sessionStore tracks which item ids each delta session has received.
// Sessions are unbounded for the demo server; production deployments
// would expire them.
type sessionStore struct {
	mu       sync.Mutex
	sessions map[string]*session
}

// get returns the session for sid, creating it if needed. Only the
// map lookup runs under the store lock.
func (s *sessionStore) get(sid string) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	ss := s.sessions[sid]
	if ss == nil {
		ss = &session{ids: make(map[int64]bool)}
		s.sessions[sid] = ss
	}
	return ss
}

// RemoteClient issues location-based queries against a DB served by
// Handler. Build one with NewRemoteClient and its functional options
// (WithTimeout, WithHTTPClient, WithBaseHeader, WithSession).
type RemoteClient struct {
	// Base is the server URL, e.g. "http://localhost:8080".
	Base string
	// Universe must match the server's (fetch it with Info); needed to
	// rebuild window validity regions client-side.
	Universe Rect

	// hc is the client to use (WithHTTPClient, WithTimeout); nil
	// selects defaultHTTPClient.
	hc *http.Client
	// session, when non-empty, enables incremental (delta) NN transfer
	// (WithSession).
	session string
	// header holds base headers added to every request (WithBaseHeader).
	header http.Header

	items core.ItemCache
}

// defaultHTTPClient bounds remote queries at 10 seconds instead of
// http.DefaultClient's unbounded wait: a mobile client must fall back
// to its cached validity region, not hang.
var defaultHTTPClient = &http.Client{Timeout: 10 * time.Second}

func (c *RemoteClient) httpClient() *http.Client {
	if c.hc != nil {
		return c.hc
	}
	return defaultHTTPClient
}

// do issues one request, sending body (when non-nil) as JSON, and
// returns the response body. Any status but 200 or 204 becomes a
// *RemoteError carrying the error envelope — which compares equal
// (errors.Is) to the session sentinels, so a remote session surfaces
// the same ErrSessionNotFound / ErrSessionExpired a local one does.
func (c *RemoteClient) do(ctx context.Context, method, path string, body interface{}) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		payload, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, vs := range c.header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
		return nil, newRemoteError(resp.StatusCode, out)
	}
	return out, nil
}

// Info fetches the served dataset size and universe, storing the
// universe on the client. Like every RemoteClient query it is
// context-first: the request carries ctx, and cancellation aborts it.
func (c *RemoteClient) Info(ctx context.Context) (int, Rect, error) {
	body, err := c.do(ctx, http.MethodGet, "/v1/info", nil)
	if err != nil {
		return 0, Rect{}, err
	}
	var out struct {
		Count    int        `json:"count"`
		Universe [4]float64 `json:"universe"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return 0, Rect{}, err
	}
	c.Universe = R(out.Universe[0], out.Universe[1], out.Universe[2], out.Universe[3])
	return out.Count, c.Universe, nil
}

// NN issues a location-based k-NN query; the server aborts it when ctx
// is cancelled. With a session set, responses use the incremental
// (delta) encoding: items already received in this session travel as
// bare ids resolved from the client's item cache.
func (c *RemoteClient) NN(ctx context.Context, q Point, k int) (*NNValidity, error) {
	if c.session != "" {
		if c.items == nil {
			c.items = make(core.ItemCache)
		}
		body, err := c.do(ctx, http.MethodGet, fmt.Sprintf("/v1/nn?x=%g&y=%g&k=%d&session=%s", q.X, q.Y, k, c.session), nil)
		if err != nil {
			return nil, err
		}
		return core.DecodeNNDelta(body, c.items)
	}
	body, err := c.do(ctx, http.MethodGet, fmt.Sprintf("/v1/nn?x=%g&y=%g&k=%d", q.X, q.Y, k), nil)
	if err != nil {
		return nil, err
	}
	return DecodeNN(body)
}

// RouteNN fetches the continuous-NN partition of the segment a→b.
func (c *RemoteClient) RouteNN(ctx context.Context, a, b Point) ([]RouteInterval, error) {
	body, err := c.do(ctx, http.MethodGet, fmt.Sprintf("/v1/route?x1=%g&y1=%g&x2=%g&y2=%g", a.X, a.Y, b.X, b.Y), nil)
	if err != nil {
		return nil, err
	}
	return core.DecodeRoute(body)
}

// Window issues a location-based window query centered at the focus.
func (c *RemoteClient) Window(ctx context.Context, focus Point, qx, qy float64) (*WindowValidity, error) {
	body, err := c.do(ctx, http.MethodGet, fmt.Sprintf("/v1/window?x=%g&y=%g&qx=%g&qy=%g", focus.X, focus.Y, qx, qy), nil)
	if err != nil {
		return nil, err
	}
	return DecodeWindow(body, c.Universe)
}

// Range issues a location-based range query around the center.
func (c *RemoteClient) Range(ctx context.Context, center Point, radius float64) (*RangeValidity, error) {
	body, err := c.do(ctx, http.MethodGet, fmt.Sprintf("/v1/range?x=%g&y=%g&r=%g", center.X, center.Y, radius), nil)
	if err != nil {
		return nil, err
	}
	return DecodeRange(body)
}

// Metrics fetches the server's /v1/metrics endpoint (Prometheus text
// exposition) — handy for scraping from tests and tooling.
func (c *RemoteClient) Metrics(ctx context.Context) (string, error) {
	body, err := c.do(ctx, http.MethodGet, "/v1/metrics", nil)
	return string(body), err
}
