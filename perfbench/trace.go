package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"lbsq"
	"lbsq/internal/core"
	"lbsq/internal/geom"
	"lbsq/internal/nn"
	"lbsq/internal/qexec"
	"lbsq/internal/rtree"
	"lbsq/internal/session"
	"lbsq/internal/shard"
	"lbsq/internal/storage"
)

// The traced run replays the open-loop inputs, in schedule order, once
// per layer: through HTTP, the DB facade, the layer below it (qexec,
// session.Manager or shard.Cluster), core.Server, and the leaf calls
// (nn.KNearestInto, core.InfluenceSetKNN, core.EncodeNN/EncodeWindow);
// churn also replays its writes into a private storage.Store. Every
// pass builds a fresh stack from the same items and replays the same
// warm-up first, so all passes start from the same cache and session
// state. Each call is one span, timed from the benchmark's side of the
// layer's public API; nothing inside the program is instrumented. A
// layer's self time is its span minus its child spans on the same
// request.

// span is one timed call into a layer.
type span struct {
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and the per-request durations derived
// from them.
type tracer struct {
	t0    time.Time
	spans []span
	dur   map[string][]time.Duration // by request; -1 where absent
	// counts measured beside the spans
	cost map[string][]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), dur: map[string][]time.Duration{}, cost: map[string][]float64{}}
}

// do runs f as the span `name` of request req.
func (t *tracer) do(req int, name, parent string, f func()) time.Duration {
	s := time.Since(t.t0)
	f()
	e := time.Since(t.t0)
	t.spans = append(t.spans, span{Req: req, Name: name, Parent: parent, Start: int64(s), End: int64(e)})
	d := t.dur[name]
	for len(d) <= req {
		d = append(d, -1)
	}
	d[req] = e - s
	t.dur[name] = d
	return e - s
}

func (t *tracer) count(name string, v float64) { t.cost[name] = append(t.cost[name], v) }

// durations returns a span's durations in µs.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, d := range t.dur[name] {
		if d >= 0 {
			out = append(out, us(d))
		}
	}
	return out
}

// self returns the per-request self times (µs) of span `name`: its
// duration minus its children's on the same request, over the requests
// that have every child span.
func (t *tracer) self(name string, children ...string) []float64 {
	var out []float64
next:
	for req, d := range t.dur[name] {
		if d < 0 {
			continue
		}
		for _, c := range children {
			cd := t.dur[c]
			if req >= len(cd) || cd[req] < 0 {
				continue next
			}
			d -= cd[req]
		}
		out = append(out, us(d))
	}
	return out
}

// replayResult is what the layer passes measured.
type replayResult struct {
	t      *tracer
	ops    int
	spanNS float64
	// overheadUS is the traced HTTP replay's time per request minus the
	// untraced replay's, over the same requests from the same state.
	overheadUS float64
}

type passFunc func(t *tracer, warm, ops []op) error

// replay runs every layer pass over the first ops of the open-loop
// schedule that the HTTP pass gets through in its share of the budget.
func replay(w *workload, in *inputs, o *outcome, dataDir string) (*replayResult, error) {
	warm := in.warm
	if len(warm) > 500 {
		warm = warm[len(warm)-500:]
	}
	rr := &replayResult{t: newTracer()}
	rr.spanNS = spanCost()

	// The first HTTP pass, untraced, sets how many operations every
	// pass replays: as many as fit its share of half the run. Durable
	// workloads pay fsyncs in three passes, the others in none.
	share := time.Duration(o.seconds) * time.Second / 2 / 4
	if w.Durable {
		share /= 2
	}
	n := len(in.open)
	deadline := time.Now().Add(share)
	untraced, err := httpPass(w, in, dataDir, nil, warm, in.open, func(i int) bool {
		if time.Now().After(deadline) {
			n = i
			return false
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	ops := in.open[:n]
	rr.ops = n
	traced, err := httpPass(w, in, dataDir, rr.t, warm, ops, func(int) bool { return true })
	if err != nil {
		return nil, err
	}
	rr.overheadUS = us(traced-untraced) / float64(max(n, 1))
	passes := []passFunc{
		func(t *tracer, warm, ops []op) error { return dbPass(w, in, dataDir+"-db", t, warm, ops) },
	}
	if w.Shards > 1 {
		passes = append(passes,
			func(t *tracer, warm, ops []op) error { return qexecPass(w, in, t, warm, ops) },
			func(t *tracer, warm, ops []op) error { return shardPass(w, in, t, warm, ops) })
	} else {
		passes = append(passes,
			func(t *tracer, warm, ops []op) error { return midPass(in, t, warm, ops) },
			func(t *tracer, warm, ops []op) error { return corePass(in, t, warm, ops) },
			func(t *tracer, warm, ops []op) error { return leafPass(in, t, warm, ops) })
	}
	if w.Durable {
		passes = append(passes, func(t *tracer, warm, ops []op) error {
			return storagePass(in, dataDir+"-store", t, warm, ops)
		})
	}
	for _, p := range passes {
		runtime.GC()
		if err := p(rr.t, warm, ops); err != nil {
			return nil, err
		}
	}
	if err := writeSpans(rr.t, w.Name, o.seed); err != nil {
		return nil, err
	}
	return rr, nil
}

// httpPass replays ops over HTTP on a freshly set-up system, with one
// span per request when t is non-nil, while more(i) allows. It returns
// how long the replay of ops took.
func httpPass(w *workload, in *inputs, dataDir string, t *tracer, warm, ops []op, more func(int) bool) (time.Duration, error) {
	dir := dataDir + "-http"
	defer os.RemoveAll(dir)
	e, _, err := setup(w, in, dir, runtime.NumCPU())
	if err != nil {
		return 0, err
	}
	defer e.close()
	r := &runner{e: e, sampleEvery: 1 << 62}
	for i := range warm {
		r.exec(&warm[i])
	}
	runtime.GC()
	start := time.Now()
	for i := range ops {
		if !more(i) {
			break
		}
		var res result
		if t == nil {
			res = r.exec(&ops[i])
		} else {
			t.do(i, "http."+class(ops[i].kind), "", func() { res = r.exec(&ops[i]) })
			t.count("http.bytes."+class(ops[i].kind), float64(res.bytes))
		}
		if res.err != nil {
			return 0, fmt.Errorf("http %s: %w", ops[i].kind, res.err)
		}
	}
	return time.Since(start), nil
}

// class names the request class of an operation for span names.
func class(k opKind) string {
	if k.isWrite() {
		return "write"
	}
	return k.String()
}

// spanCost measures what recording one span costs.
func spanCost() float64 {
	t := newTracer()
	const n = 20000
	start := time.Now()
	for i := 0; i < n; i++ {
		t.do(i, "noop", "", func() {})
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

func writeSpans(t *tracer, name string, seed int64) error {
	dir := filepath.Join(benchDir(), "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed)))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// replayOps runs call over the warm-up, into a scratch tracer, and
// then over ops, timed into t.
func replayOps(t *tracer, warm, ops []op, call func(t *tracer, i int, o *op, timed bool) error) error {
	scratch := newTracer()
	for i := range warm {
		if err := call(scratch, i, &warm[i], false); err != nil {
			return fmt.Errorf("warm-up %s: %w", warm[i].kind, err)
		}
	}
	for i := range ops {
		if err := call(t, i, &ops[i], true); err != nil {
			return fmt.Errorf("%s: %w", ops[i].kind, err)
		}
	}
	return nil
}

// dbPass replays through the DB facade on a fresh DB.
func dbPass(w *workload, in *inputs, dir string, t *tracer, warm, ops []op) error {
	defer os.RemoveAll(dir)
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	opts := w.options(dir)
	db, err := lbsq.Open(in.items, in.universe, &opts)
	if err != nil {
		return err
	}
	defer db.Close()
	ctx := context.Background()
	ids := make([]string, len(in.sessions))
	for i, s := range in.sessions {
		var sess *lbsq.Session
		if s.window {
			sess, _, err = db.OpenWindowSession(ctx, s.path[0], s.qx, s.qy)
		} else {
			sess, _, err = db.OpenSession(ctx, s.path[0], s.k)
		}
		if err != nil {
			return err
		}
		ids[i] = sess.ID()
	}
	call := func(t *tracer, i int, o *op, _ bool) error {
		var err error
		c := class(o.kind)
		t.do(i, "db."+c, "http."+c, func() {
			switch o.kind {
			case kindNN:
				_, _, err = db.NN(ctx, o.p, o.k)
			case kindWindow:
				_, _, err = db.WindowAt(ctx, o.p, o.qx, o.qy)
			case kindMove:
				_, err = db.MoveSession(ctx, ids[o.client], o.p)
			case kindBatch:
				_, err = db.Batch(ctx, o.batch)
			case kindInsert:
				err = db.Insert(o.item)
			case kindDelete:
				_, err = db.Delete(o.item)
			}
		})
		return err
	}
	return replayOps(t, warm, ops, call)
}

// stack is a private single-server stack below the facade, built the
// way lbsq.Open builds it.
type stack struct {
	mu   sync.RWMutex
	srv  *core.Server
	exec *qexec.Executor
	mgr  *session.Manager
}

func newStack(in *inputs) *stack {
	s := &stack{srv: core.NewServer(rtree.BulkLoad(in.items, rtree.Options{}, 0), in.universe)}
	s.srv.AttachBuffer(0.10)
	s.exec = qexec.New(s.srv, &s.mu, nil, qexec.Config{CacheSize: 4096})
	s.mgr = session.NewManager(s.exec, in.universe, session.Options{Strategy: session.StrategyTPKNN})
	return s
}

// write applies a mutation the way DB.Insert/Delete do around the
// index, without the durable log: epoch bumps, the tree change under
// the write lock, and session push invalidation.
func (s *stack) write(t *tracer, req int, o *op) {
	s.mgr.MutationBegin()
	s.exec.Invalidate()
	s.mu.Lock()
	ok := true
	if o.kind == kindInsert {
		s.srv.Tree.Insert(o.item)
	} else {
		ok = s.srv.Tree.Delete(o.item)
	}
	s.mu.Unlock()
	s.exec.Invalidate()
	t.do(req, "session.invalidate", "session.write", func() {
		if o.kind == kindInsert {
			s.mgr.OnInsert(o.item)
		} else if ok {
			s.mgr.OnDelete(o.item)
		}
	})
}

// midPass replays through qexec.Executor (one-shot reads) and
// session.Manager (moves, and the invalidation work of writes).
func midPass(in *inputs, t *tracer, warm, ops []op) error {
	s := newStack(in)
	ctx := context.Background()
	ids := make([]uint64, len(in.sessions))
	for i, sp := range in.sessions {
		var sess *session.Session
		var err error
		if sp.window {
			sess, _, err = s.mgr.OpenWindow(ctx, sp.path[0], sp.qx, sp.qy)
		} else {
			sess, _, err = s.mgr.OpenNN(ctx, sp.path[0], sp.k)
		}
		if err != nil {
			return err
		}
		ids[i] = sess.ID()
	}
	call := func(t *tracer, req int, o *op, _ bool) error {
		var err error
		switch o.kind {
		case kindNN:
			var hit bool
			d := t.do(req, "qexec.nn", "db.nn", func() { _, _, hit, _, err = s.exec.NNCached(ctx, o.p, o.k) })
			if hit {
				t.count("qexec.hit_us", us(d))
			}
		case kindWindow:
			t.do(req, "qexec.window", "db.window", func() {
				_, _, _, _, err = s.exec.WindowCached(ctx, geom.RectCenteredAt(o.p, o.qx, o.qy))
			})
		case kindMove:
			var res *session.MoveResult
			d := t.do(req, "session.move", "db.move", func() { res, err = s.mgr.Move(ctx, ids[o.client], o.p) })
			if err == nil {
				if res.Hit {
					t.count("session.move_hit_us", us(d))
				} else {
					t.count("session.move_miss_us", us(d))
				}
				if res.Requeried {
					t.count("session.requery_at", float64(req))
				}
			}
		case kindInsert, kindDelete:
			t.do(req, "session.write", "db.write", func() { s.write(t, req, o) })
		}
		return err
	}
	return replayOps(t, warm, ops, call)
}

// qexecPass replays a sharded workload through qexec.Executor over a
// fresh shard cluster.
func qexecPass(w *workload, in *inputs, t *tracer, warm, ops []op) error {
	c, err := newCluster(w, in)
	if err != nil {
		return err
	}
	exec := qexec.New(nil, nil, c, qexec.Config{CacheSize: 4096})
	ctx := context.Background()
	call := func(t *tracer, req int, o *op, _ bool) error {
		var err error
		switch o.kind {
		case kindNN:
			var hit bool
			d := t.do(req, "qexec.nn", "db.nn", func() { _, _, hit, _, err = exec.NNCached(ctx, o.p, o.k) })
			if hit {
				t.count("qexec.hit_us", us(d))
			}
		case kindWindow:
			t.do(req, "qexec.window", "db.window", func() {
				_, _, _, _, err = exec.WindowCached(ctx, geom.RectCenteredAt(o.p, o.qx, o.qy))
			})
		case kindBatch:
			var resps []qexec.Response
			t.do(req, "qexec.batch", "db.batch", func() { resps, err = exec.Batch(ctx, o.batch) })
			co := 0
			for _, r := range resps {
				if r.Coalesced {
					co++
				}
			}
			t.count("qexec.batch_coalesced", float64(co))
		}
		return err
	}
	return replayOps(t, warm, ops, call)
}

func newCluster(w *workload, in *inputs) (*shard.Cluster, error) {
	return shard.NewCluster(in.items, in.universe, shard.Options{
		Shards: w.Shards, Strategy: shard.KDMedian, BufferFraction: 0.10,
	})
}

// shardPass replays a sharded workload straight into shard.Cluster.
func shardPass(w *workload, in *inputs, t *tracer, warm, ops []op) error {
	c, err := newCluster(w, in)
	if err != nil {
		return err
	}
	ctx := context.Background()
	call := func(t *tracer, req int, o *op, _ bool) error {
		var err error
		switch o.kind {
		case kindNN:
			t.do(req, "shard.nn", "qexec.nn", func() { _, _, err = c.NNQueryCtx(ctx, o.p, o.k) })
		case kindWindow:
			t.do(req, "shard.window", "qexec.window", func() {
				_, _, err = c.WindowQueryCtx(ctx, geom.RectCenteredAt(o.p, o.qx, o.qy))
			})
		case kindBatch:
			reqs := make([]shard.BatchReq, len(o.batch))
			for i, r := range o.batch {
				reqs[i] = shard.BatchReq{Op: shard.BatchNN, Q: r.Q, K: r.K}
				if r.Op == lbsq.BatchWindow {
					reqs[i] = shard.BatchReq{Op: shard.BatchWindow, Q: r.W.Center(), W: r.W}
				}
			}
			t.do(req, "shard.batch", "qexec.batch", func() { _, err = c.BatchCtx(ctx, reqs) })
		}
		return err
	}
	return replayOps(t, warm, ops, call)
}

// coreTarget returns what core.Server computes for an operation: the
// one-shot query itself, or for a move that re-queried in the session
// pass, the query at the new position.
func coreTarget(in *inputs, o *op) (nnQ bool, p lbsq.Point, k int, w lbsq.Rect, ok bool) {
	switch o.kind {
	case kindNN:
		return true, o.p, o.k, lbsq.Rect{}, true
	case kindWindow:
		return false, o.p, 0, geom.RectCenteredAt(o.p, o.qx, o.qy), true
	case kindMove:
		s := in.sessions[o.client]
		if s.window {
			return false, o.p, 0, geom.RectCenteredAt(o.p, s.qx, s.qy), true
		}
		return true, o.p, s.k, lbsq.Rect{}, true
	}
	return false, lbsq.Point{}, 0, lbsq.Rect{}, false
}

// requeried returns the requests whose session move re-queried.
func requeried(t *tracer) map[int]bool {
	m := map[int]bool{}
	for _, r := range t.cost["session.requery_at"] {
		m[int(r)] = true
	}
	return m
}

// corePass replays the reads that reach core.Server on a fresh
// buffered server, keeping each query's node and page accesses. Writes
// apply to its private tree, timed as the rtree layer.
func corePass(in *inputs, t *tracer, warm, ops []op) error {
	srv := core.NewServer(rtree.BulkLoad(in.items, rtree.Options{}, 0), in.universe)
	srv.AttachBuffer(0.10)
	req := requeried(t)
	call := func(t *tracer, i int, o *op, timed bool) error {
		if o.kind.isWrite() {
			name := "rtree.insert"
			f := func() { srv.Tree.Insert(o.item) }
			if o.kind == kindDelete {
				name = "rtree.delete"
				f = func() { srv.Tree.Delete(o.item) }
			}
			t.do(i, name, "session.write", f)
			return nil
		}
		nnQ, p, k, w, ok := coreTarget(in, o)
		if !ok || (timed && o.kind == kindMove && !req[i]) || (!timed && o.kind == kindMove) {
			return nil
		}
		parent := "qexec." + class(o.kind)
		if o.kind == kindMove {
			parent = "session.move"
		}
		var cost core.QueryCost
		var err error
		if nnQ {
			t.do(i, "core.nn", parent, func() { _, cost, err = srv.NNQuery(p, k) })
			t.count("core.nn_na", float64(cost.Total()))
		} else {
			t.do(i, "core.window", parent, func() { _, cost = srv.WindowQuery(w) })
			t.count("rtree.window_na", float64(cost.ResultNA))
		}
		t.count("buffer.pa", float64(cost.TotalPA()))
		return err
	}
	return replayOps(t, warm, ops, call)
}

// leafPass replays the NN reads as their three leaf calls — best-first
// kNN, the TP influence phase, wire encoding — and encodes window
// answers, on a fresh buffered server.
func leafPass(in *inputs, t *tracer, warm, ops []op) error {
	srv := core.NewServer(rtree.BulkLoad(in.items, rtree.Options{}, 0), in.universe)
	srv.AttachBuffer(0.10)
	req := requeried(t)
	var dst []nn.Neighbor
	call := func(t *tracer, i int, o *op, timed bool) error {
		if o.kind.isWrite() {
			if o.kind == kindInsert {
				srv.Tree.Insert(o.item)
			} else {
				srv.Tree.Delete(o.item)
			}
			return nil
		}
		nnQ, p, k, w, ok := coreTarget(in, o)
		if !ok || (timed && o.kind == kindMove && !req[i]) || (!timed && o.kind == kindMove) {
			return nil
		}
		if !nnQ {
			wv, _ := srv.WindowQuery(w)
			var b []byte
			t.do(i, "core.encode_window", "core.window", func() { b = core.EncodeWindow(wv) })
			t.count("core.payload_bytes", float64(len(b)))
			return nil
		}
		na0 := srv.Index.NodeAccesses()
		t.do(i, "nn.knn", "core.nn", func() { dst = nn.KNearestInto(srv.Index, p, k, dst[:0]) })
		na1 := srv.Index.NodeAccesses()
		members := make([]rtree.Item, len(dst))
		for j, nb := range dst {
			members[j] = nb.Item
		}
		var v *core.NNValidity
		var err error
		t.do(i, "core.influence", "core.nn", func() { v, err = core.InfluenceSetKNN(srv.Index, p, members, in.universe) })
		if err != nil {
			return err
		}
		na2 := srv.Index.NodeAccesses()
		var b []byte
		t.do(i, "core.encode_nn", "core.nn", func() { b = core.EncodeNN(v) })
		t.count("nn.result_na", float64(na1-na0))
		t.count("tp.inf_na", float64(na2-na1))
		t.count("tp.probes", float64(v.TPQueries))
		t.count("core.payload_bytes", float64(len(b)))
		return nil
	}
	return replayOps(t, warm, ops, call)
}

// storagePass logs and commits every write into a private store seeded
// with the same items (SyncAlways, as the workload's DB).
func storagePass(in *inputs, dir string, t *tracer, warm, ops []op) error {
	defer os.RemoveAll(dir)
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	st, err := storage.CreateStore(dir, rtree.BulkLoad(in.items, rtree.Options{}, 0), in.universe,
		storage.StoreOptions{SyncMode: lbsq.SyncAlways})
	if err != nil {
		return err
	}
	call := func(t *tracer, i int, o *op, _ bool) error {
		if !o.kind.isWrite() {
			return nil
		}
		var tok storage.CommitToken
		var err error
		t.do(i, "storage.append", "db.write", func() {
			if o.kind == kindInsert {
				tok, err = st.LogInsert(o.item)
			} else {
				tok, err = st.LogDelete(o.item)
			}
		})
		if err != nil {
			return err
		}
		t.do(i, "storage.commit", "db.write", func() { err = st.Commit(tok) })
		return err
	}
	if err := replayOps(t, warm, ops, call); err != nil {
		st.Close()
		return err
	}
	return st.Close()
}
