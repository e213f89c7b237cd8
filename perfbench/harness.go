package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lbsq"
)

// env is one set-up system under test: a DB served over loopback HTTP,
// the benchmark's HTTP client, and the moving clients' sessions.
type env struct {
	db      *lbsq.DB
	srv     *http.Server
	served  chan error
	base    string
	hc      *http.Client
	clients []*client
}

// client is the thin mobile client of one session: it posts every
// position and keeps the last answer the server sent.
type client struct {
	mu  sync.Mutex // one move in flight per client, like a real device
	id  string
	nn  *lbsq.NNValidity
	win *lbsq.WindowValidity
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// setup opens the DB (bulk load, durable seed checkpoint or shard
// build), starts the loopback server and opens every session over
// HTTP. It returns the system and how long that took.
func setup(w *workload, in *inputs, dataDir string, conns int) (*env, time.Duration, error) {
	if w.Durable {
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, 0, err
		}
	}
	start := time.Now()
	opts := w.options(dataDir)
	db, err := lbsq.Open(in.items, in.universe, &opts)
	if err != nil {
		return nil, 0, fmt.Errorf("open: %w", err)
	}
	e, err := serve(db, conns)
	if err != nil {
		db.Close()
		return nil, 0, err
	}
	if err := e.openSessions(in.sessions, conns); err != nil {
		e.close()
		return nil, 0, err
	}
	return e, time.Since(start), nil
}

// serve starts the DB's handler on a loopback port.
func serve(db *lbsq.DB, conns int) (*env, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	e := &env{
		db:     db,
		srv:    &http.Server{Handler: db.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1), // Serve's return, read by close
		base:   "http://" + ln.Addr().String(),
		hc:     newHTTPClient(conns),
	}
	go func() { e.served <- e.srv.Serve(ln) }()
	return e, nil
}

// openSessions opens one server session per moving client, from
// `conns` goroutines.
func (e *env) openSessions(specs []*sessionSpec, conns int) error {
	e.clients = make([]*client, len(specs))
	errs := make([]error, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(specs); i = int(next.Add(1) - 1) {
				e.clients[i], errs[i] = e.openSession(specs[i])
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("open session %d: %w", i, err)
		}
	}
	return nil
}

func (e *env) openSession(s *sessionSpec) (*client, error) {
	body := map[string]interface{}{"type": "nn", "x": s.path[0].X, "y": s.path[0].Y, "k": s.k}
	if s.window {
		body = map[string]interface{}{"type": "window", "x": s.path[0].X, "y": s.path[0].Y, "qx": s.qx, "qy": s.qy}
	}
	raw, _, err := e.post("/v1/session", body)
	if err != nil {
		return nil, err
	}
	var resp struct {
		ID      string `json:"id"`
		Payload []byte `json:"payload"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, err
	}
	c := &client{id: resp.ID}
	if s.window {
		c.win, err = lbsq.DecodeWindow(resp.Payload, e.db.Universe())
	} else {
		c.nn, err = lbsq.DecodeNN(resp.Payload)
	}
	return c, err
}

// close stops the server, waits for it, and closes the DB.
func (e *env) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	if serr := <-e.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	e.hc.CloseIdleConnections()
	if cerr := e.db.Close(); err == nil {
		err = cerr
	}
	return err
}

// ff formats a coordinate for a query string: the shortest form that
// parses back to the same float64, escaped (an exponent carries '+').
func ff(v float64) string { return url.QueryEscape(strconv.FormatFloat(v, 'g', -1, 64)) }

// get issues a GET and returns the body and its size.
func (e *env) get(path string) ([]byte, int, error) {
	resp, err := e.hc.Get(e.base + path)
	if err != nil {
		return nil, 0, err
	}
	return readResp(resp)
}

// post issues a JSON POST and returns the body and its size.
func (e *env) post(path string, body interface{}) ([]byte, int, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return nil, 0, err
	}
	resp, err := e.hc.Post(e.base+path, "application/json", bytes.NewReader(payload))
	if err != nil {
		return nil, 0, err
	}
	return readResp(resp)
}

func readResp(resp *http.Response) ([]byte, int, error) {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, len(b), err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, len(b), fmt.Errorf("status %d: %.200s", resp.StatusCode, b)
	}
	return b, len(b), nil
}

// result is the outcome of one operation as the client saw it.
type result struct {
	err   error
	bytes int
	body  []byte // kept for the oracle when sampled
	// the answer a session client holds after a move
	nn  *lbsq.NNValidity
	win *lbsq.WindowValidity
}

// do sends one operation over HTTP.
func (e *env) do(o *op) result {
	switch o.kind {
	case kindNN:
		b, n, err := e.get("/v1/nn?x=" + ff(o.p.X) + "&y=" + ff(o.p.Y) + "&k=" + strconv.Itoa(o.k))
		return result{err: err, bytes: n, body: b}
	case kindWindow:
		b, n, err := e.get("/v1/window?x=" + ff(o.p.X) + "&y=" + ff(o.p.Y) + "&qx=" + ff(o.qx) + "&qy=" + ff(o.qy))
		return result{err: err, bytes: n, body: b}
	case kindMove:
		return e.move(o)
	case kindBatch:
		b, n, err := e.post("/v1/batch", batchBody(o.batch))
		return result{err: err, bytes: n, body: b}
	default:
		return e.write(o)
	}
}

type wireBatchReq struct {
	Op     string      `json:"op"`
	X      float64     `json:"x,omitempty"`
	Y      float64     `json:"y,omitempty"`
	K      int         `json:"k,omitempty"`
	Window *[4]float64 `json:"window,omitempty"`
}

func batchBody(reqs []lbsq.BatchRequest) interface{} {
	wire := make([]wireBatchReq, len(reqs))
	for i, r := range reqs {
		if r.Op == lbsq.BatchNN {
			wire[i] = wireBatchReq{Op: "nn", X: r.Q.X, Y: r.Q.Y, K: r.K}
		} else {
			wire[i] = wireBatchReq{Op: "window", Window: &[4]float64{r.W.MinX, r.W.MinY, r.W.MaxX, r.W.MaxY}}
		}
	}
	return map[string]interface{}{"requests": wire}
}

// wireBatchResp is one answer of a POST /v1/batch response.
type wireBatchResp struct {
	NN     []byte `json:"nn"`
	Window []byte `json:"window"`
	Error  string `json:"error"`
}

func batchResponses(body []byte) ([]wireBatchResp, error) {
	var out struct {
		Responses []wireBatchResp `json:"responses"`
	}
	err := json.Unmarshal(body, &out)
	return out.Responses, err
}

// move posts a client's position and updates the answer it holds.
func (e *env) move(o *op) result {
	c := e.clients[o.client]
	c.mu.Lock()
	defer c.mu.Unlock()
	b, n, err := e.post("/v1/session/"+c.id+"/move", map[string]float64{"x": o.p.X, "y": o.p.Y})
	if err != nil {
		return result{err: err, bytes: n}
	}
	var resp struct {
		Hit     bool   `json:"hit"`
		Payload []byte `json:"payload"`
	}
	if err := json.Unmarshal(b, &resp); err != nil {
		return result{err: err, bytes: n}
	}
	if len(resp.Payload) > 0 {
		if c.win != nil {
			c.win, err = lbsq.DecodeWindow(resp.Payload, e.db.Universe())
		} else {
			c.nn, err = lbsq.DecodeNN(resp.Payload)
		}
	} else if !resp.Hit {
		err = fmt.Errorf("move %s: no payload on a miss", c.id)
	}
	return result{err: err, bytes: n, nn: c.nn, win: c.win}
}

// write sends an insert or delete through the shard RPC, the DB's HTTP
// write surface; it returns once the write is acknowledged (fsynced on
// a durable DB).
func (e *env) write(o *op) result {
	name := "insert"
	if o.kind == kindDelete {
		name = "delete"
	}
	item := o.item
	body := map[string]interface{}{
		"universe": e.db.Universe(),
		"ops":      []map[string]interface{}{{"op": name, "item": &item}},
	}
	b, n, err := e.post("/v1/shard", body)
	if err != nil {
		return result{err: err, bytes: n}
	}
	var resp struct {
		Results []struct {
			Err string `json:"err"`
			OK  bool   `json:"ok"`
		} `json:"results"`
	}
	if err := json.Unmarshal(b, &resp); err != nil {
		return result{err: err, bytes: n}
	}
	switch {
	case len(resp.Results) != 1:
		err = fmt.Errorf("%s: %d results", name, len(resp.Results))
	case resp.Results[0].Err != "":
		err = fmt.Errorf("%s: %s", name, resp.Results[0].Err)
	case o.kind == kindDelete && !resp.Results[0].OK:
		err = fmt.Errorf("delete of item %d: not found", o.item.ID)
	}
	return result{err: err, bytes: n}
}
