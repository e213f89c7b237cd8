package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"lbsq"
	"lbsq/internal/geom"
	"lbsq/internal/trajectory"
)

// opKind is the class of one benchmark operation.
type opKind uint8

const (
	kindNN opKind = iota
	kindWindow
	kindMove
	kindBatch
	kindInsert
	kindDelete
	numKinds
)

var kindNames = [numKinds]string{"nn", "window", "move", "batch", "insert", "delete"}

func (k opKind) String() string { return kindNames[k] }

// isWrite reports whether the operation mutates the dataset.
func (k opKind) isWrite() bool { return k == kindInsert || k == kindDelete }

// op is one generated request. The program under test sees only these
// fields (points, extents, items), never the seed they came from.
type op struct {
	kind   opKind
	due    time.Duration // open-loop send time, from the phase start
	p      lbsq.Point
	k      int
	qx, qy float64
	client int // session index of a move
	batch  []lbsq.BatchRequest
	item   lbsq.Item // insert/delete target
}

// sessionSpec is one moving client: its session type and the path it
// follows. pos advances one step per move, reversing at either end of
// the path so the client never teleports.
type sessionSpec struct {
	window bool
	k      int
	qx, qy float64
	path   []lbsq.Point
	step   int
	dir    int
}

func (s *sessionSpec) advance() lbsq.Point {
	if s.step+s.dir < 0 || s.step+s.dir >= len(s.path) {
		s.dir = -s.dir
	}
	s.step += s.dir
	return s.path[s.step]
}

// workload describes one traffic mix: its dataset, the DB options that
// differ from the lbsq-server defaults, its open-loop offered rate and
// the generator of its operations.
type workload struct {
	Name    string
	Dataset string // uniform | gr | na
	N       int
	// Rate is the open-loop offered rate in operations per second.
	Rate float64
	// Sessions is the number of moving clients opened during set-up.
	Sessions int
	// WindowSessions is the share of those clients holding window
	// (rather than k-NN) sessions.
	WindowSessions float64
	// Step is a moving client's mean step as a share of the universe
	// width.
	Step float64
	// Shards > 1 serves the data from a shard cluster.
	Shards int
	// Durable workloads keep the DB in a data directory with fsynced
	// writes and automatic checkpoints.
	Durable bool
	// CheckpointEvery is the automatic checkpoint period of a durable DB.
	CheckpointEvery int
	// Mix gives the probability of each operation class.
	Mix [numKinds]float64
	// Hot is the share of one-shot query points drawn from the hotspot
	// Zipf rather than fresh from the data distribution.
	Hot float64
	// BatchSize is the request count of one batch.
	BatchSize int
}

// Window areas of the paper's Sec. 6, as shares of the universe area.
var windowAreas = []float64{0.0001, 0.001, 0.01}

const (
	// datasetSeed fixes each workload's dataset at the lbsq-server
	// default, as the paper fixes its real datasets; the run seed draws
	// the traffic: query points, hotspots, paths, schedules and writes.
	datasetSeed   = 2003
	hotspots      = 256
	nnSessionK    = 4
	windowSession = 0.001 // window-session area share of the universe
	writeLimit    = 20 * time.Millisecond
	readLimit     = 5 * time.Millisecond
)

var workloads = []*workload{
	{
		Name:    "lookup",
		Dataset: "gr",
		N:       100_000,
		Rate:    1200,
		Mix:     mix(kindNN, 0.7, kindWindow, 0.3),
	},
	{
		Name:           "commute",
		Dataset:        "uniform",
		N:              100_000,
		Rate:           2500,
		Sessions:       1000,
		WindowSessions: 0.2,
		Step:           0.0001,
		Mix:            mix(kindMove, 1.0),
	},
	{
		Name:            "churn",
		Dataset:         "uniform",
		N:               100_000,
		Rate:            800,
		Sessions:        200,
		WindowSessions:  0.2,
		Step:            0.0001,
		Durable:         true,
		CheckpointEvery: 1000,
		Mix:             mix(kindMove, 0.5, kindNN, 0.25, kindInsert, 0.125, kindDelete, 0.125),
		Hot:             1,
	},
	{
		Name:      "scatter",
		Dataset:   "na",
		N:         100_000,
		Rate:      340,
		Shards:    4,
		Mix:       mix(kindNN, 0.5, kindWindow, 0.4, kindBatch, 0.1),
		Hot:       2.0 / 3,
		BatchSize: 32,
	},
}

func mix(kv ...interface{}) [numKinds]float64 {
	var m [numKinds]float64
	for i := 0; i < len(kv); i += 2 {
		m[kv[i].(opKind)] = kv[i+1].(float64)
	}
	return m
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// options returns the DB options of the workload: the lbsq-server
// defaults plus the paper's 10% LRU buffer, a 4,096-entry validity
// cache, the pointer layout and the tpknn session strategy.
func (w *workload) options(dataDir string) lbsq.Options {
	o := lbsq.Options{
		BufferFraction:  0.10,
		CacheSize:       4096,
		Layout:          lbsq.LayoutPointer,
		SessionStrategy: lbsq.SessionStrategyTPKNN,
	}
	if w.Durable {
		o.DataDir = dataDir
		o.SyncMode = lbsq.SyncAlways
		o.CheckpointEvery = w.CheckpointEvery
	}
	if w.Shards > 1 {
		o.Shards = w.Shards
		o.ShardStrategy = lbsq.ShardKDMedian
	}
	return o
}

// inputs is everything generated from one seed.
type inputs struct {
	items    []lbsq.Item
	universe lbsq.Rect
	sessions []*sessionSpec
	warm     []op // warm-up schedule (not measured)
	open     []op // open-loop schedule
	gen      *generator
}

// generator draws operations from the workload's mix. It is not safe
// for concurrent use; the closed loop serializes calls.
type generator struct {
	w        *workload
	rng      *rand.Rand
	items    []lbsq.Item
	universe lbsq.Rect
	sessions []*sessionSpec
	hot      []lbsq.Point
	zipf     *rand.Zipf
	cum      [numKinds]float64

	delOrder []int // original items, in the order they are deleted
	delNext  int
	nextID   int64
}

func dataset(kind string, n int, seed int64) ([]lbsq.Item, lbsq.Rect) {
	switch kind {
	case "gr":
		return lbsq.GRLikeDataset(n, seed)
	case "na":
		return lbsq.NALikeDataset(n, seed)
	default:
		return lbsq.UniformDataset(n, seed)
	}
}

// generate builds the inputs of one run: the dataset, the moving
// clients, and the warm-up and open-loop schedules (seeded Poisson
// arrivals at the workload's rate).
func generate(w *workload, seed int64, warm, open time.Duration) *inputs {
	items, universe := dataset(w.Dataset, w.N, datasetSeed)
	g := &generator{
		w: w, rng: rand.New(rand.NewSource(seed ^ 0x5eed)),
		items: items, universe: universe,
		nextID: 1 << 40,
	}
	acc := 0.0
	for k := range w.Mix {
		acc += w.Mix[k]
		g.cum[k] = acc
	}
	for i := 0; i < hotspots; i++ {
		g.hot = append(g.hot, g.fresh())
	}
	g.zipf = rand.NewZipf(g.rng, 1.1, 1, hotspots-1)
	for i := 0; i < w.Sessions; i++ {
		s := &sessionSpec{k: nnSessionK, dir: 1}
		if float64(i) < w.WindowSessions*float64(w.Sessions) {
			side := math.Sqrt(windowSession * universe.Area())
			s.window, s.qx, s.qy = true, side, side
		}
		s.path = trajectory.Waypoints(universe, trajectory.Config{
			Step: w.Step * universe.Width(), Jitter: 0.2, Steps: 1024, Seed: seed*7919 + int64(i),
		})
		g.sessions = append(g.sessions, s)
	}
	if w.Mix[kindDelete] > 0 {
		g.delOrder = g.rng.Perm(len(items))
	}
	in := &inputs{items: items, universe: universe, sessions: g.sessions, gen: g}
	in.warm = g.schedule(warm)
	in.open = g.schedule(open)
	return in
}

// schedule draws Poisson arrivals at the workload's rate over d.
func (g *generator) schedule(d time.Duration) []op {
	var out []op
	t := 0.0
	for {
		t += g.rng.ExpFloat64() / g.w.Rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		o := g.next()
		o.due = due
		out = append(out, o)
	}
}

// fresh draws a query point from the data distribution: a random data
// point with a small Gaussian jitter (the paper's Sec. 6 workload).
func (g *generator) fresh() lbsq.Point {
	base := g.items[g.rng.Intn(len(g.items))].P
	j := g.universe.Width() / 1000
	return g.clamp(lbsq.Pt(base.X+g.rng.NormFloat64()*j, base.Y+g.rng.NormFloat64()*j))
}

func (g *generator) clamp(p lbsq.Point) lbsq.Point {
	u := g.universe
	p.X = math.Min(math.Max(p.X, u.MinX), u.MaxX)
	p.Y = math.Min(math.Max(p.Y, u.MinY), u.MaxY)
	return p
}

// point draws a one-shot query point and the window area that goes
// with it: with probability Hot a hotspot (Zipf-ranked) with the
// smallest window area, so hot windows share extents and can hit the
// validity cache; else a fresh point with a random area. Half the hot
// points repeat the hotspot exactly (identical requests coalesce), the
// other half land a small jitter away (inside its cached regions).
func (g *generator) point() (lbsq.Point, float64) {
	if g.w.Hot > 0 && g.rng.Float64() < g.w.Hot {
		p := g.hot[g.zipf.Uint64()]
		if g.rng.Intn(2) == 0 {
			j := g.universe.Width() * 1e-6
			p = g.clamp(lbsq.Pt(p.X+g.rng.NormFloat64()*j, p.Y+g.rng.NormFloat64()*j))
		}
		return p, windowAreas[0]
	}
	return g.fresh(), windowAreas[g.rng.Intn(len(windowAreas))]
}

func (g *generator) side(area float64) float64 { return math.Sqrt(area * g.universe.Area()) }

// nnK draws k ∈ {1, 4, 10} in the ratio 5:4:1.
func (g *generator) nnK() int {
	switch r := g.rng.Intn(10); {
	case r < 5:
		return 1
	case r < 9:
		return 4
	default:
		return 10
	}
}

// next draws one operation from the mix.
func (g *generator) next() op {
	u := g.rng.Float64() * g.cum[numKinds-1]
	kind := opKind(0)
	for kind < numKinds-1 && u >= g.cum[kind] {
		kind++
	}
	switch kind {
	case kindNN:
		p, _ := g.point()
		k := g.nnK()
		if g.w.Hot > 0 {
			k = nnSessionK
		}
		return op{kind: kindNN, p: p, k: k}
	case kindWindow:
		p, area := g.point()
		s := g.side(area)
		return op{kind: kindWindow, p: p, qx: s, qy: s}
	case kindMove:
		c := g.rng.Intn(len(g.sessions))
		return op{kind: kindMove, client: c, p: g.sessions[c].advance()}
	case kindBatch:
		reqs := make([]lbsq.BatchRequest, g.w.BatchSize)
		for i := range reqs {
			p, area := g.point()
			if g.rng.Float64() < 0.6 {
				reqs[i] = lbsq.BatchRequest{Op: lbsq.BatchNN, Q: p, K: nnSessionK}
			} else {
				s := g.side(area)
				reqs[i] = lbsq.BatchRequest{Op: lbsq.BatchWindow, W: geom.RectCenteredAt(p, s, s)}
			}
		}
		return op{kind: kindBatch, batch: reqs}
	case kindInsert:
		g.nextID++
		u := g.universe
		p := lbsq.Pt(u.MinX+g.rng.Float64()*u.Width(), u.MinY+g.rng.Float64()*u.Height())
		return op{kind: kindInsert, item: lbsq.Item{ID: g.nextID, P: p}}
	default:
		it := g.items[g.delOrder[g.delNext%len(g.delOrder)]]
		g.delNext++
		return op{kind: kindDelete, item: it}
	}
}

// digest hashes the inputs the program receives: the dataset, the
// session paths and both schedules. The self-test compares digests.
func (in *inputs) digest() string {
	h := sha256.New()
	var b []byte
	f := func(v float64) { b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v)) }
	for _, it := range in.items {
		b = binary.LittleEndian.AppendUint64(b[:0], uint64(it.ID))
		f(it.P.X)
		f(it.P.Y)
		h.Write(b)
	}
	for _, s := range in.sessions {
		for _, p := range s.path {
			b = b[:0]
			f(p.X)
			f(p.Y)
			h.Write(b)
		}
	}
	for _, ops := range [][]op{in.warm, in.open} {
		for _, o := range ops {
			b = append(b[:0], byte(o.kind))
			b = binary.LittleEndian.AppendUint64(b, uint64(o.due))
			f(o.p.X)
			f(o.p.Y)
			f(o.qx)
			b = binary.LittleEndian.AppendUint64(b, uint64(o.k)<<32|uint64(o.client))
			b = binary.LittleEndian.AppendUint64(b, uint64(o.item.ID))
			for _, r := range o.batch {
				f(r.Q.X)
				f(r.W.MinX)
			}
			h.Write(b)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// countKinds tallies a schedule by operation class.
func countKinds(ops []op) map[string]int {
	m := map[string]int{}
	for _, o := range ops {
		m[o.kind.String()]++
	}
	return m
}

// sortedKeys returns a map's keys in order (for stable output).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
