package lbsq

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// HTTP surface of the continuous-query session subsystem; like every
// /v1 endpoint, its errors are the uniform JSON envelope.
//
//	POST   /v1/session             → open (JSON body, see sessionOpenWire)
//	POST   /v1/session/{id}/move   → position update (JSON body {"x","y"})
//	GET    /v1/session/{id}/events → long-poll for invalidations
//	DELETE /v1/session/{id}        → close
//
// Result payloads stay in the compact binary encodings of EncodeNN /
// EncodeWindow (base64 inside the JSON frame) — the wire representation
// whose size the paper argues must stay small. A move that is answered
// from the armed region ("hit") carries no payload at all: the client
// already holds the current result, and resending it would defeat the
// point of the validity region.

// Session long-poll bounds: the default and maximum wait of
// GET /v1/session/{id}/events (milliseconds).
const (
	defaultEventsWaitMS = 30000
	maxEventsWaitMS     = 120000
)

// Wire messages of the /v1 error envelope for session endpoints.
const (
	msgSessionNotFound = "session_not_found"
	msgSessionExpired  = "session_expired"
	msgSessionLimit    = "session_limit"
)

// sessionOpenWire is the POST /v1/session body:
//
//	{"type": "nn", "x": 0.4, "y": 0.6, "k": 4}
//	{"type": "window", "x": 0.4, "y": 0.6, "qx": 0.1, "qy": 0.1}
type sessionOpenWire struct {
	Type string  `json:"type"`
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
	K    int     `json:"k,omitempty"`
	Qx   float64 `json:"qx,omitempty"`
	Qy   float64 `json:"qy,omitempty"`
}

// sessionOpenResp is the POST /v1/session response. Payload is the
// binary initial result (EncodeNN or EncodeWindow per Kind); Strategy
// reports the server's NN session strategy ("tpknn" or "insq").
type sessionOpenResp struct {
	ID       string `json:"id"`
	Kind     string `json:"kind"`
	Strategy string `json:"strategy"`
	Seq      uint64 `json:"seq"`
	Payload  []byte `json:"payload"`
}

// sessionMoveWire is the POST /v1/session/{id}/move body.
type sessionMoveWire struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// sessionMoveResp is the move response. Payload is present only when
// the answer changed regions (prefetched, repaired or requeried); on a
// hit the client's cached result is still current.
type sessionMoveResp struct {
	Hit         bool   `json:"hit"`
	Prefetched  bool   `json:"prefetched"`
	Repaired    bool   `json:"repaired,omitempty"`
	Requeried   bool   `json:"requeried"`
	Invalidated bool   `json:"invalidated"`
	Seq         uint64 `json:"seq"`
	Payload     []byte `json:"payload,omitempty"`
}

// sessionEventsResp is the long-poll response: Fired reports whether
// the invalidation sequence passed `since` before the wait expired.
type sessionEventsResp struct {
	Seq   uint64 `json:"seq"`
	Fired bool   `json:"fired"`
}

// registerSessionRoutes mounts the session endpoints on the v1 mux
// using Go 1.22 method+wildcard patterns.
func (db *DB) registerSessionRoutes(mux *http.ServeMux) {
	handle := func(pattern, label string, h http.HandlerFunc) {
		mux.Handle(pattern, instrumentHTTP(db.reg, label, h))
	}
	handle("POST /v1/session", "/v1/session", db.handleSessionOpen)
	handle("POST /v1/session/{id}/move", "/v1/session/move", db.handleSessionMove)
	handle("GET /v1/session/{id}/events", "/v1/session/events", db.handleSessionEvents)
	handle("DELETE /v1/session/{id}", "/v1/session/close", db.handleSessionClose)
}

// writeSessionError maps session errors onto the /v1 envelope: ids
// that don't resolve are 404 session_not_found, sessions that once
// existed but are gone are 410 session_expired, the open limit is 429.
func writeSessionError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, ErrSessionNotFound):
		writeJSONError(w, http.StatusNotFound, msgSessionNotFound)
	case errors.Is(err, ErrSessionExpired):
		writeJSONError(w, http.StatusGone, msgSessionExpired)
	case errors.Is(err, ErrSessionLimit):
		writeJSONError(w, http.StatusTooManyRequests, msgSessionLimit)
	case r.Context().Err() != nil:
		writeJSONError(w, statusCanceled, "client canceled request")
	default:
		writeJSONError(w, http.StatusUnprocessableEntity, err.Error())
	}
}

func (db *DB) handleSessionOpen(w http.ResponseWriter, r *http.Request) {
	var body sessionOpenWire
	if !decodeBody(w, r, "session body", &body) {
		return
	}
	var (
		s    *Session
		res  *SessionMove
		err  error
		resp sessionOpenResp
	)
	switch body.Type {
	case "nn":
		k := body.K
		if k == 0 {
			k = 1
		}
		if k < 1 {
			writeJSONError(w, http.StatusBadRequest, "bad k")
			return
		}
		s, res, err = db.OpenSession(r.Context(), Pt(body.X, body.Y), k)
	case "window":
		if body.Qx <= 0 || body.Qy <= 0 {
			writeJSONError(w, http.StatusBadRequest, "bad window extents")
			return
		}
		s, res, err = db.OpenWindowSession(r.Context(), Pt(body.X, body.Y), body.Qx, body.Qy)
	default:
		writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("unknown session type %q", body.Type))
		return
	}
	if err != nil {
		writeSessionError(w, r, err)
		return
	}
	resp = sessionOpenResp{ID: s.ID(), Kind: body.Type, Strategy: db.SessionStrategy(), Seq: res.Seq}
	if res.NN != nil {
		resp.Payload = EncodeNN(res.NN)
	} else if res.Window != nil {
		resp.Payload = EncodeWindow(res.Window)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

func (db *DB) handleSessionMove(w http.ResponseWriter, r *http.Request) {
	var body sessionMoveWire
	if !decodeBody(w, r, "move body", &body) {
		return
	}
	res, err := db.MoveSession(r.Context(), r.PathValue("id"), Pt(body.X, body.Y))
	if err != nil {
		writeSessionError(w, r, err)
		return
	}
	resp := sessionMoveResp{
		Hit:         res.Hit,
		Prefetched:  res.Prefetched,
		Repaired:    res.Repaired,
		Requeried:   res.Requeried,
		Invalidated: res.Invalidated,
		Seq:         res.Seq,
	}
	if !res.Hit {
		if res.NN != nil {
			resp.Payload = EncodeNN(res.NN)
		} else if res.Window != nil {
			resp.Payload = EncodeWindow(res.Window)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

func (db *DB) handleSessionEvents(w http.ResponseWriter, r *http.Request) {
	since, err := parseUint64Query(r, "since", 0)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, "bad since")
		return
	}
	waitMS, err := parseInt(r, "timeout_ms", defaultEventsWaitMS)
	if err != nil || waitMS < 0 {
		writeJSONError(w, http.StatusBadRequest, "bad timeout_ms")
		return
	}
	if waitMS > maxEventsWaitMS {
		waitMS = maxEventsWaitMS
	}
	ctx, cancel := context.WithTimeout(r.Context(), time.Duration(waitMS)*time.Millisecond)
	defer cancel()
	seq, fired, err := db.SessionEvents(ctx, r.PathValue("id"), since)
	if err != nil {
		writeSessionError(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(sessionEventsResp{Seq: seq, Fired: fired})
}

func (db *DB) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	if err := db.CloseSession(r.PathValue("id")); err != nil {
		writeSessionError(w, r, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// parseUint64Query parses an optional unsigned query parameter.
func parseUint64Query(r *http.Request, name string, def uint64) (uint64, error) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return def, nil
	}
	var v uint64
	_, err := fmt.Sscanf(s, "%d", &v)
	return v, err
}

// MovingClient is the mobile side of a continuous NN session: it holds
// the latest result with its validity region, answers position updates
// locally while the region stays valid, and reports movement to the
// server only on region exit — where the server-side session usually
// has the next region already prefetched along the trajectory.
//
// MovingClient is not safe for concurrent use; drive it from one
// goroutine (one client = one moving user).
type MovingClient struct {
	// Stats accumulates the client-side traffic metrics (position
	// updates vs. server round trips vs. cache hits).
	Stats ClientStats

	c       *RemoteClient
	id      string
	seq     uint64
	nn      *NNValidity
	invalid bool
}

// OpenMoving registers a continuous k-NN session for a client starting
// at start and returns the moving-client handle with its first result
// already cached.
func (c *RemoteClient) OpenMoving(ctx context.Context, start Point, k int) (*MovingClient, error) {
	body, err := c.do(ctx, http.MethodPost, "/v1/session",
		sessionOpenWire{Type: "nn", X: start.X, Y: start.Y, K: k})
	if err != nil {
		return nil, err
	}
	var resp sessionOpenResp
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	v, err := DecodeNN(resp.Payload)
	if err != nil {
		return nil, err
	}
	mc := &MovingClient{c: c, id: resp.ID, seq: resp.Seq, nn: v}
	mc.Stats.ServerQueries++
	mc.Stats.BytesReceived += int64(len(resp.Payload))
	return mc, nil
}

// ID returns the session's wire identifier.
func (mc *MovingClient) ID() string { return mc.id }

// At reports the client's position and returns the current k-NN
// result. While the position stays inside the cached validity region
// (and no invalidation has been observed), the answer is produced
// locally with zero network traffic; otherwise one move round trip
// refreshes the cache.
func (mc *MovingClient) At(ctx context.Context, p Point) (*NNValidity, error) {
	mc.Stats.PositionUpdates++
	if !mc.invalid && mc.nn != nil && mc.nn.Valid(p) {
		mc.Stats.CacheHits++
		return mc.nn, nil
	}
	body, err := mc.c.do(ctx, http.MethodPost, "/v1/session/"+mc.id+"/move",
		sessionMoveWire{X: p.X, Y: p.Y})
	if err != nil {
		return nil, err
	}
	mc.Stats.ServerQueries++
	var resp sessionMoveResp
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	mc.seq = resp.Seq
	if len(resp.Payload) > 0 {
		v, err := DecodeNN(resp.Payload)
		if err != nil {
			return nil, err
		}
		mc.Stats.BytesReceived += int64(len(resp.Payload))
		mc.nn = v
	}
	// Either the payload replaced the cached result, or the server
	// confirmed the cached region is still the current one (a server-side
	// hit after a spurious local miss).
	mc.invalid = false
	return mc.nn, nil
}

// PollEvents long-polls the server for a push invalidation, waiting at
// most wait. It returns true when the session was invalidated since the
// last At/PollEvents — the next At will refresh even if the position
// stays inside the cached region.
func (mc *MovingClient) PollEvents(ctx context.Context, wait time.Duration) (bool, error) {
	path := fmt.Sprintf("/v1/session/%s/events?since=%d&timeout_ms=%d",
		mc.id, mc.seq, wait.Milliseconds())
	body, err := mc.c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return false, err
	}
	var resp sessionEventsResp
	if err := json.Unmarshal(body, &resp); err != nil {
		return false, err
	}
	if resp.Fired {
		mc.seq = resp.Seq
		mc.invalid = true
	}
	return resp.Fired, nil
}

// Close releases the server-side session.
func (mc *MovingClient) Close(ctx context.Context) error {
	_, err := mc.c.do(ctx, http.MethodDelete, "/v1/session/"+mc.id, nil)
	return err
}
