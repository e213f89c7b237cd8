package dist

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"lbsq/internal/core"
	"lbsq/internal/geom"
	"lbsq/internal/nn"
	"lbsq/internal/obs"
	"lbsq/internal/qexec"
	"lbsq/internal/rtree"
	"lbsq/internal/shard"
	"lbsq/internal/tp"
)

// Options configures a Coordinator.
type Options struct {
	// Nodes are the data node base URLs. Consecutive runs of Replicas
	// nodes form one replica group: with Replicas = 2, nodes[0:2] are
	// group 0, nodes[2:4] group 1, and so on. len(Nodes) must be a
	// multiple of Replicas.
	Nodes []string
	// Replicas is the replication factor per group (default 1). Every
	// replica of a group stores the same data.
	Replicas int
	// Partitions is the number of ring partitions placed onto the
	// groups (default: one per group). More partitions give finer
	// rebalancing granularity.
	Partitions int
	// Placement selects hash or spatial partition→group placement.
	Placement Placement
	// Universe is the cluster-wide data universe; every node must be
	// configured with exactly this universe.
	Universe geom.Rect
	// HedgeAfter is the delay before a read is hedged to the next
	// replica (0 disables time-based hedging; the next replica is then
	// only tried after a failure).
	HedgeAfter time.Duration
	// OpTimeout bounds each individual RPC attempt (0: only the
	// caller's ctx applies).
	OpTimeout time.Duration
	// Retries is the number of extra full-group rounds after one in
	// which every replica failed (default 0); Backoff is the initial
	// exponential backoff between rounds.
	Retries int
	Backoff time.Duration
	// BreakerThreshold consecutive failures open a node's circuit
	// breaker for BreakerCooldown (defaults 3, 5s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Workers bounds the coordinator's group fan-out pool (default
	// GOMAXPROCS).
	Workers int
	// Transport delivers shard RPCs (default HTTPTransport). Tests
	// inject FaultTransport here.
	Transport Transport
	// Registry receives the coordinator metrics (nil: private
	// registry, read it with Coordinator.Registry).
	Registry *obs.Registry
}

// replica is one data node: its backend plus persistent breaker and
// instruments. Replicas live in the coordinator's node pool for the
// coordinator's lifetime — rebalances change partition ownership, not
// node identity.
type replica struct {
	addr string
	b    shard.Backend
	brk  *breaker
	lat  *obs.Histogram
	okc  *obs.Counter
	errc *obs.Counter
}

// group is one replica set. The replica slice only grows (Join); it is
// guarded by mu.
type group struct {
	id int

	mu       sync.RWMutex
	replicas []*replica
}

// ordered returns the replicas with ready breakers first (preserving
// configured order within each class), open-breaker replicas last.
func (g *group) ordered() []*replica {
	g.mu.RLock()
	reps := make([]*replica, len(g.replicas))
	copy(reps, g.replicas)
	g.mu.RUnlock()
	out := make([]*replica, 0, len(reps))
	for _, r := range reps {
		if r.brk.Ready() {
			out = append(out, r)
		}
	}
	for _, r := range reps {
		if !r.brk.Ready() {
			out = append(out, r)
		}
	}
	return out
}

// Coordinator scatter-gathers the full location-based query surface
// across remote replica groups: it runs shard's scatter-gather Executor
// — the one shard.Cluster runs — with one groupReader part per replica
// group, and adds partial-failure degradation on top. It is safe for
// concurrent use.
type Coordinator struct {
	opts     Options
	universe geom.Rect
	tr       Transport
	reg      *obs.Registry
	met      *metrics
	groups   []*group
	sem      chan struct{}

	// ringMu guards the ring pointer swap; queries capture one ring.
	ringMu sync.RWMutex
	ring   *Ring

	// wmu serializes writes against rebalances: Insert/Delete/Seed
	// take it shared, Rebalance/Join exclusively.
	wmu sync.RWMutex
}

// New connects to the nodes, verifies they agree on the universe, and
// builds the initial ring. All nodes must be reachable at startup
// (bootstrap is strict; only steady-state operation tolerates
// failures).
func New(ctx context.Context, opts Options) (*Coordinator, error) {
	if len(opts.Nodes) == 0 {
		return nil, fmt.Errorf("dist: no nodes")
	}
	if opts.Universe.IsEmpty() || geom.ExactZero(opts.Universe.Area()) {
		return nil, fmt.Errorf("dist: universe must have positive area")
	}
	if opts.Replicas <= 0 {
		opts.Replicas = 1
	}
	if len(opts.Nodes)%opts.Replicas != 0 {
		return nil, fmt.Errorf("dist: %d nodes not divisible into groups of %d replicas", len(opts.Nodes), opts.Replicas)
	}
	groups := len(opts.Nodes) / opts.Replicas
	if opts.Partitions <= 0 {
		opts.Partitions = groups
	}
	if opts.Transport == nil {
		opts.Transport = &HTTPTransport{}
	}
	if opts.Registry == nil {
		opts.Registry = obs.NewRegistry()
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	ring, err := NewRing(opts.Universe, opts.Partitions, groups, opts.Placement)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		opts:     opts,
		universe: opts.Universe,
		tr:       opts.Transport,
		reg:      opts.Registry,
		met:      newMetrics(opts.Registry),
		ring:     ring,
		sem:      make(chan struct{}, opts.Workers),
	}
	for g := 0; g < groups; g++ {
		grp := &group{id: g}
		for _, addr := range opts.Nodes[g*opts.Replicas : (g+1)*opts.Replicas] {
			grp.replicas = append(grp.replicas, c.newReplica(addr))
		}
		c.groups = append(c.groups, grp)
	}
	c.reg.GaugeFunc("lbsq_dist_ring_version", "Current placement ring version.", nil,
		func() float64 { return float64(c.currentRing().Version) })
	c.reg.Gauge("lbsq_dist_groups", "Number of replica groups.", nil).Set(int64(groups))
	for _, grp := range c.groups {
		for _, r := range grp.replicas {
			if err := c.verifyNode(ctx, r); err != nil {
				return nil, err
			}
		}
	}
	return c, nil
}

// newReplica builds a pooled replica with its instruments.
func (c *Coordinator) newReplica(addr string) *replica {
	r := &replica{
		addr: addr,
		b:    NewRemoteBackend(addr, c.opts.Universe, c.tr),
		brk:  newBreaker(c.opts.BreakerThreshold, c.opts.BreakerCooldown),
	}
	c.met.nodeInstruments(r)
	return r
}

// verifyNode checks reachability and universe agreement.
func (c *Coordinator) verifyNode(ctx context.Context, r *replica) error {
	actx, cancel := c.attemptCtx(ctx)
	defer cancel()
	st, err := r.b.Stats(actx)
	if err != nil {
		return fmt.Errorf("dist: node %s unreachable: %w", r.addr, err)
	}
	if !geom.SameRect(st.Universe, c.universe) {
		return fmt.Errorf("dist: node %s universe %v, cluster universe %v", r.addr, st.Universe, c.universe)
	}
	return nil
}

func (c *Coordinator) attemptCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.opts.OpTimeout > 0 {
		return context.WithTimeout(ctx, c.opts.OpTimeout)
	}
	return context.WithCancel(ctx)
}

// Registry returns the registry holding the coordinator metrics.
func (c *Coordinator) Registry() *obs.Registry { return c.reg }

// UniverseRect returns the cluster universe.
func (c *Coordinator) UniverseRect() geom.Rect { return c.universe }

// NumGroups returns the number of replica groups.
func (c *Coordinator) NumGroups() int { return len(c.groups) }

// Ring returns the current placement ring (treat as immutable).
func (c *Coordinator) Ring() *Ring { return c.currentRing() }

func (c *Coordinator) currentRing() *Ring {
	c.ringMu.RLock()
	defer c.ringMu.RUnlock()
	return c.ring
}

func (c *Coordinator) swapRing(r *Ring) {
	c.ringMu.Lock()
	c.ring = r
	c.ringMu.Unlock()
}

// Close closes every backend.
func (c *Coordinator) Close() error {
	var first error
	for _, g := range c.groups {
		g.mu.RLock()
		for _, r := range g.replicas {
			if err := r.b.Close(); err != nil && first == nil {
				first = err
			}
		}
		g.mu.RUnlock()
	}
	return first
}

// Seed splits items by ring ownership and bulk-loads each group's
// slice into all of its replicas, all groups at once. It is the cluster
// bootstrap used by the -cluster server mode and the test harness. A
// failed group does not stop the others; the first error in group order
// is returned.
func (c *Coordinator) Seed(ctx context.Context, items []rtree.Item) error {
	c.wmu.RLock()
	defer c.wmu.RUnlock()
	split, err := c.currentRing().Split(items)
	if err != nil {
		return err
	}
	errs := make([]error, len(c.groups))
	var wg sync.WaitGroup
	for gi, g := range c.groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[gi] = c.eachReplicaBulk(ctx, g, func(actx context.Context, r *replica) error {
				return r.b.Load(actx, split[gi])
			})
		}()
	}
	//lbsq:allowblock — wmu exists to serialize bootstrap/writes against rebalances; holding it across the load is its purpose
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// eachReplica runs fn against every replica of the group (writes go to
// all replicas, not a hedged subset), collecting the first error but
// still attempting the rest. Each attempt is bounded by OpTimeout.
func (c *Coordinator) eachReplica(ctx context.Context, g *group, fn func(ctx context.Context, r *replica) error) error {
	return c.eachReplicaTimeout(ctx, g, true, fn)
}

// eachReplicaBulk is eachReplica without the per-attempt OpTimeout.
// Bulk transfers (Seed, Rebalance copies and cleanup, Join) scale
// with data volume, not with one query's work, so clamping them to
// the per-RPC budget makes any sufficiently large migration
// impossible; only the caller's own deadline bounds them.
func (c *Coordinator) eachReplicaBulk(ctx context.Context, g *group, fn func(ctx context.Context, r *replica) error) error {
	return c.eachReplicaTimeout(ctx, g, false, fn)
}

func (c *Coordinator) eachReplicaTimeout(ctx context.Context, g *group, opTimeout bool, fn func(ctx context.Context, r *replica) error) error {
	g.mu.RLock()
	reps := make([]*replica, len(g.replicas))
	copy(reps, g.replicas)
	g.mu.RUnlock()
	var first error
	for _, r := range reps {
		actx, cancel := ctx, func() {}
		if opTimeout {
			actx, cancel = c.attemptCtx(ctx)
		}
		err := fn(actx, r)
		cancel()
		c.observeWrite(r, err, ctx)
		if err != nil && first == nil {
			first = fmt.Errorf("dist: replica %s: %w", r.addr, err)
		}
	}
	return first
}

// observeWrite updates breaker/counters for an unhedged write attempt.
func (c *Coordinator) observeWrite(r *replica, err error, ctx context.Context) {
	if err == nil {
		r.brk.Success()
		r.okc.Inc()
	} else if ctx.Err() == nil {
		r.brk.Failure()
		r.errc.Inc()
	}
}

// executor returns the scatter-gather executor over the ring's replica
// groups: one part per group, reading through a groupReader, with the
// group's ring tiles as its territory.
func (c *Coordinator) executor(ring *Ring) *shard.Executor {
	parts := make([]shard.Part, len(c.groups))
	for gi, g := range c.groups {
		parts[gi] = shard.Part{Reader: groupReader{c: c, g: g, ring: ring}, Tiles: ring.Territory(gi)}
	}
	return &shard.Executor{Universe: c.universe, Parts: parts, Pool: c.sem}
}

// answer is one request's coordinator answer: the executor's response
// after degradation, with its status and the dead territory (the tiles
// of the groups it lost).
type answer struct {
	shard.BatchResp
	st   Status
	dead []geom.Rect
}

// run answers a batch with one executor call against one ring, then
// finishes every successful answer with degrade.
func (c *Coordinator) run(ctx context.Context, ring *Ring, reqs []shard.BatchReq) ([]answer, error) {
	resps, err := c.executor(ring).Run(ctx, reqs)
	if err != nil {
		return nil, err
	}
	out := make([]answer, len(resps))
	for i := range resps {
		out[i] = answer{BatchResp: resps[i], st: Status{RingVersion: ring.Version}}
		if out[i].Err == nil {
			c.degrade(ring, reqs[i], &out[i])
		}
	}
	return out, nil
}

// one answers a single request; a batch-level (context) error lands in
// the answer's Err.
func (c *Coordinator) one(ctx context.Context, req shard.BatchReq) answer {
	ring := c.currentRing()
	as, err := c.run(ctx, ring, []shard.BatchReq{req})
	if err != nil {
		return answer{BatchResp: shard.BatchResp{Err: err}, st: Status{RingVersion: ring.Version}}
	}
	return as[0]
}

// degrade is the step dist adds after the executor. When the executor
// lost groups in a phase that only bounds the validity region
// (BatchResp.Failed), it shrinks the region so no unknown object in
// their territory could invalidate it:
// bisector-margin clips for NN (shrinkNNRegion), Minkowski-inflated
// holes for windows (shrinkWindowRegion), and dead-territory distance
// guards for ranges (RangeValidity.Valid). The answer is then flagged
// degraded.
func (c *Coordinator) degrade(ring *Ring, req shard.BatchReq, a *answer) {
	if len(a.Failed) == 0 {
		return
	}
	for _, gi := range a.Failed {
		a.dead = append(a.dead, ring.Territory(gi)...)
	}
	a.st.degrade(a.dead)
	switch req.Op {
	case shard.BatchNN:
		members := make([]rtree.Item, len(a.NN.Neighbors))
		for i, nb := range a.NN.Neighbors {
			members[i] = nb.Item
		}
		for _, t := range a.dead {
			a.NN.Region = shrinkNNRegion(a.NN.Region, req.Q, members, t)
		}
		c.met.degraded["nn"].Inc()
	case shard.BatchWindow:
		shrinkWindowRegion(a.Window, a.dead)
		c.met.degraded["window"].Inc()
	case shard.BatchRange:
		c.met.degraded["range"].Inc()
	}
}

// NN answers a location-based k-NN query. The result phase (candidate
// gathering) fails hard when a needed group is unreachable; influence-
// phase failures degrade the answer instead (the region is shrunk by
// shrinkNNRegion per dead territory rectangle, and the wrapper's Valid
// accounts for the unknown objects).
func (c *Coordinator) NN(ctx context.Context, q geom.Point, k int) (*NNValidity, core.QueryCost, Status, error) {
	a := c.one(ctx, shard.BatchReq{Op: shard.BatchNN, Q: q, K: k})
	if a.Err != nil {
		return nil, a.Cost, a.st, a.Err
	}
	return &NNValidity{NNValidity: a.NN, Dead: a.dead}, a.Cost, a.st, nil
}

// KNearest is the plain k-NN result phase (no validity region). Any
// unreachable needed group fails the query.
func (c *Coordinator) KNearest(ctx context.Context, q geom.Point, k int) ([]nn.Neighbor, error) {
	a := c.one(ctx, shard.BatchReq{Op: shard.BatchKNN, Q: q, K: k})
	return a.Neighbors, a.Err
}

// Window answers a location-based window query. A failed group whose
// territory intersects the window fails the query (its result points
// are unknown); a failed group outside the window degrades the answer
// — the merged region loses the Minkowski inflation of the dead
// territory, excluding every focus whose window could reach it.
func (c *Coordinator) Window(ctx context.Context, w geom.Rect) (*core.WindowValidity, core.QueryCost, Status, error) {
	a := c.one(ctx, shard.BatchReq{Op: shard.BatchWindow, W: w})
	if a.Err != nil {
		return nil, a.Cost, a.st, a.Err
	}
	return a.Window, a.Cost, a.st, nil
}

// Range answers a location-based range query. The result phase and the
// empty-result nearest-point fallback fail hard on unreachable groups;
// outer-influence scan failures degrade (the wrapper's Valid rejects
// foci within Radius of dead territory).
func (c *Coordinator) Range(ctx context.Context, center geom.Point, radius float64) (*RangeValidity, core.QueryCost, Status, error) {
	a := c.one(ctx, shard.BatchReq{Op: shard.BatchRange, Q: center, Radius: radius})
	if a.Err != nil {
		return nil, a.Cost, a.st, a.Err
	}
	return &RangeValidity{RangeValidity: a.Range, Dead: a.dead}, a.Cost, a.st, nil
}

// RouteNN answers a continuous-NN route query. A route answer cannot be
// conservatively shrunk — an unreachable group fails the query.
func (c *Coordinator) RouteNN(ctx context.Context, a, b geom.Point) ([]tp.CNNInterval, Status, error) {
	ans := c.one(ctx, shard.BatchReq{Op: shard.BatchRoute, Q: a, To: b})
	return ans.Route, ans.st, ans.Err
}

// Count sums the window count over the overlapping groups; unreachable
// groups fail the query (a count cannot be shrunk).
func (c *Coordinator) Count(ctx context.Context, w geom.Rect) (int, error) {
	a := c.one(ctx, shard.BatchReq{Op: shard.BatchCount, W: w})
	return a.Count, a.Err
}

// SearchItems gathers the items inside w from the overlapping groups
// (group order, tree order within each group).
func (c *Coordinator) SearchItems(ctx context.Context, w geom.Rect) ([]rtree.Item, error) {
	a := c.one(ctx, shard.BatchReq{Op: shard.BatchSearch, W: w})
	return a.Items, a.Err
}

// Insert routes the point to its ring owner group and writes it to
// every replica. A partial replica failure is returned as an error
// after all replicas were attempted (retry to converge).
func (c *Coordinator) Insert(ctx context.Context, it rtree.Item) error {
	c.wmu.RLock()
	defer c.wmu.RUnlock()
	ring := c.currentRing()
	g := ring.OwnerGroup(it.P)
	if g < 0 {
		return fmt.Errorf("dist: point %v outside universe %v", it.P, c.universe)
	}
	return c.eachReplica(ctx, c.groups[g], func(actx context.Context, r *replica) error {
		return r.b.Insert(actx, it)
	})
}

// Delete removes the point from every replica of its owner group,
// reporting whether any replica had it.
func (c *Coordinator) Delete(ctx context.Context, it rtree.Item) (bool, error) {
	c.wmu.RLock()
	defer c.wmu.RUnlock()
	ring := c.currentRing()
	g := ring.OwnerGroup(it.P)
	if g < 0 {
		return false, nil
	}
	var mu sync.Mutex
	present := false
	err := c.eachReplica(ctx, c.groups[g], func(actx context.Context, r *replica) error {
		ok, err := r.b.Delete(actx, it)
		mu.Lock()
		present = present || ok
		mu.Unlock()
		return err
	})
	return present, err
}

// Batch answers the requests with one executor call — grouped rounds,
// one task per group per round — mapping per-request failures into
// Response.Err like the local batch executor does. Every answer and
// status equals the one the request gets on its own.
func (c *Coordinator) Batch(ctx context.Context, reqs []qexec.Request) ([]qexec.Response, []Status, error) {
	breqs := make([]shard.BatchReq, len(reqs))
	for i, r := range reqs {
		breqs[i] = shard.BatchReq{Op: shard.BatchOp(r.Op), Q: r.Q, K: r.K, W: r.W, Radius: r.Radius}
	}
	as, err := c.run(ctx, c.currentRing(), breqs)
	if err != nil {
		return nil, nil, err
	}
	out := make([]qexec.Response, len(as))
	sts := make([]Status, len(as))
	for i, a := range as {
		out[i] = qexec.Response{
			NN: a.NN, Neighbors: a.Neighbors, Window: a.Window,
			Range: a.Range, Count: a.Count, Items: a.Items,
			Cost: a.Cost, Err: a.Err,
		}
		sts[i] = a.st
	}
	return out, sts, nil
}

// NodeInfo describes one data node for /v1/cluster/info.
type NodeInfo struct {
	Addr    string             `json:"addr"`
	Group   int                `json:"group"`
	Breaker int                `json:"breaker"`
	Stats   shard.BackendStats `json:"stats"`
	Err     string             `json:"err,omitempty"`
}

// ClusterInfo is the coordinator's monitoring snapshot.
type ClusterInfo struct {
	Universe geom.Rect  `json:"universe"`
	Replicas int        `json:"replicas"`
	Ring     *Ring      `json:"ring"`
	Nodes    []NodeInfo `json:"nodes"`
}

// Info polls every node's stats (unhedged, best effort: unreachable
// nodes carry their error instead of stats).
func (c *Coordinator) Info(ctx context.Context) ClusterInfo {
	info := ClusterInfo{Universe: c.universe, Replicas: c.opts.Replicas, Ring: c.currentRing()}
	for gi, g := range c.groups {
		g.mu.RLock()
		reps := make([]*replica, len(g.replicas))
		copy(reps, g.replicas)
		g.mu.RUnlock()
		for _, r := range reps {
			ni := NodeInfo{Addr: r.addr, Group: gi, Breaker: r.brk.State()}
			actx, cancel := c.attemptCtx(ctx)
			st, err := r.b.Stats(actx)
			cancel()
			if err != nil {
				ni.Err = err.Error()
			} else {
				ni.Stats = st
			}
			info.Nodes = append(info.Nodes, ni)
		}
	}
	return info
}

// Rebalance replaces the placement with a fresh ring (optionally
// changing the placement strategy and partition count) and migrates
// the data live: moved items are copied to their new groups first, the
// ring is swapped, and only then are the old copies deleted — a query
// racing the rebalance sees every item at least once and the
// transient-duplication filters keep merges exact. Writes are held off
// for the duration. Returns the number of items moved.
func (c *Coordinator) Rebalance(ctx context.Context, placement Placement, partitions int) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	old := c.currentRing()
	if partitions <= 0 {
		partitions = len(old.Parts)
	}
	next, err := NewRing(c.universe, partitions, len(c.groups), placement)
	if err != nil {
		return 0, err
	}
	next.Version = old.Version + 1

	// Plan: dump each group (hedged read from one healthy replica) and
	// find the items whose owner changes under the new ring.
	moves := make([][]rtree.Item, len(c.groups)) // destination group → items
	deletes := make([][]rtree.Item, len(c.groups))
	for gi := range c.groups {
		//lbsq:allowblock — rebalance holds wmu exclusively to freeze writers while dumping; that stall is the rebalance contract
		items, err := c.dump(ctx, c.groups[gi])
		if err != nil {
			return 0, fmt.Errorf("dist: rebalance dump, group %d: %w", gi, err)
		}
		for _, it := range ownedItems(old, gi, items) {
			if dst := next.OwnerGroup(it.P); dst != gi {
				moves[dst] = append(moves[dst], it)
				deletes[gi] = append(deletes[gi], it)
			}
		}
	}
	moved := 0
	for _, ms := range moves {
		moved += len(ms)
	}

	// Copy first: every destination replica gets its new items while
	// the old ring still routes reads to the old copies. On failure,
	// unload whatever was already copied (best effort — the old ring
	// stays installed either way, and reads filter by ring ownership,
	// so leftover copies would be invisible but would inflate counts
	// and survive into the next attempt's dump).
	for dst, ms := range moves {
		if len(ms) == 0 {
			continue
		}
		if err := c.eachReplicaBulk(ctx, c.groups[dst], func(actx context.Context, r *replica) error {
			return r.b.Load(actx, ms)
		}); err != nil {
			for rb := 0; rb <= dst; rb++ {
				if len(moves[rb]) == 0 {
					continue
				}
				_ = c.eachReplicaBulk(ctx, c.groups[rb], func(actx context.Context, r *replica) error {
					return r.b.Unload(actx, moves[rb])
				})
			}
			return 0, fmt.Errorf("dist: rebalance copy to group %d: %w", dst, err)
		}
	}

	// Swap: new queries route with the new ring.
	c.swapRing(next)

	// Delete the old copies last. A failure here leaves a harmless
	// duplicate (filtered by ring ownership on reads) — report it but
	// keep the new ring.
	var delErr error
	for src, ms := range deletes {
		if len(ms) == 0 {
			continue
		}
		err := c.eachReplicaBulk(ctx, c.groups[src], func(actx context.Context, r *replica) error {
			return r.b.Unload(actx, ms)
		})
		if err != nil && delErr == nil {
			delErr = fmt.Errorf("dist: rebalance cleanup, group %d: %w", src, err)
		}
	}
	c.met.moved.Add(int64(moved))
	return moved, delErr
}

// dump reads every item a group stores (hedged, from one replica),
// ring-owned or not.
func (c *Coordinator) dump(ctx context.Context, g *group) ([]rtree.Item, error) {
	return call(ctx, c, g, func(ctx context.Context, b shard.Backend) ([]rtree.Item, error) {
		items, _, err := b.Scan(ctx, c.universe, geom.EmptyRect())
		return items, err
	})
}

// Join adds a node as a new replica of the least-replicated group: the
// group's data is copied onto it from an existing replica, then it
// starts serving hedged reads and receiving writes. Returns the group
// it joined.
func (c *Coordinator) Join(ctx context.Context, addr string) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	best := 0
	for gi, g := range c.groups {
		g.mu.RLock()
		n := len(g.replicas)
		g.mu.RUnlock()
		c.groups[best].mu.RLock()
		bn := len(c.groups[best].replicas)
		c.groups[best].mu.RUnlock()
		if n < bn {
			best = gi
		}
	}
	r := c.newReplica(addr)
	if err := c.verifyNode(ctx, r); err != nil {
		return 0, err
	}
	//lbsq:allowblock — join holds wmu exclusively so the copied group image cannot drift while the new replica loads
	items, err := c.dump(ctx, c.groups[best])
	if err != nil {
		return 0, fmt.Errorf("dist: join copy from group %d: %w", best, err)
	}
	actx, cancel := context.WithCancel(ctx) // bulk copy: no per-op timeout
	err = r.b.Load(actx, items)
	cancel()
	if err != nil {
		return 0, fmt.Errorf("dist: join load onto %s: %w", addr, err)
	}
	g := c.groups[best]
	g.mu.Lock()
	g.replicas = append(g.replicas, r)
	g.mu.Unlock()
	return best, nil
}
