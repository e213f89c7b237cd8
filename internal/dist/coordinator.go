package dist

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
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
// across remote replica groups, running exactly the merge algorithms
// of shard.Cluster (the same exported helpers) with partial-failure
// degradation on top. It is safe for concurrent use.
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
// slice into all of its replicas. It is the cluster bootstrap used by
// the -cluster server mode and the test harness.
func (c *Coordinator) Seed(ctx context.Context, items []rtree.Item) error {
	c.wmu.RLock()
	defer c.wmu.RUnlock()
	ring := c.currentRing()
	split, err := ring.Split(items)
	if err != nil {
		return err
	}
	//lbsq:allowblock — wmu exists to serialize bootstrap/writes against rebalances; holding it across the scatter is its purpose
	errs, scErr := c.scatterGroups(ctx, c.allGroups(), func(gi int) error {
		return c.eachReplicaBulk(ctx, c.groups[gi], func(actx context.Context, r *replica) error {
			return r.b.Load(actx, split[gi])
		})
	})
	if scErr != nil {
		return scErr
	}
	return firstError(errs)
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

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// allGroups returns every group index.
func (c *Coordinator) allGroups() []int {
	out := make([]int, len(c.groups))
	for i := range out {
		out[i] = i
	}
	return out
}

// scatterGroups runs fn once per group index in idxs in parallel on
// the bounded pool, collecting per-group errors. Cancelling ctx stops
// scheduling further groups and is returned as the second value.
func (c *Coordinator) scatterGroups(ctx context.Context, idxs []int, fn func(gi int) error) ([]error, error) {
	errs := make([]error, len(c.groups))
	if len(idxs) == 0 {
		return errs, ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		return errs, err
	}
	if len(idxs) == 1 {
		errs[idxs[0]] = fn(idxs[0])
		return errs, ctx.Err()
	}
	var wg sync.WaitGroup
	var ctxErr error
	for _, gi := range idxs {
		select {
		case c.sem <- struct{}{}:
		case <-ctx.Done():
			ctxErr = ctx.Err()
		}
		if ctxErr != nil {
			break
		}
		gi := gi
		wg.Add(1)
		go func() {
			defer func() { <-c.sem; wg.Done() }()
			errs[gi] = fn(gi)
		}()
	}
	wg.Wait()
	if ctxErr == nil {
		ctxErr = ctx.Err()
	}
	return errs, ctxErr
}

// groupsByMinDist orders the groups owning territory by ascending
// minimum distance from q (exact comparator, ties by index) — the
// group analogue of Cluster.byMinDist.
func groupsByMinDist(ring *Ring, q geom.Point) []int {
	type entry struct {
		idx int
		d   float64
	}
	var es []entry
	for g := 0; g < ring.Groups; g++ {
		if d, ok := ring.MinDist(g, q); ok {
			es = append(es, entry{g, d})
		}
	}
	sort.Slice(es, func(i, j int) bool {
		// Exact comparator: tolerant comparison breaks strict weak order.
		if !geom.ExactEq(es[i].d, es[j].d) {
			return es[i].d < es[j].d
		}
		return es[i].idx < es[j].idx
	})
	out := make([]int, len(es))
	for i, e := range es {
		out[i] = e.idx
	}
	return out
}

// ownedNeighbors drops neighbors whose ring owner is not g — the
// transient-duplication filter applied while a rebalance is copying
// items between groups (a no-op in steady state, where every group
// stores exactly its ring-owned items).
func ownedNeighbors(ring *Ring, g int, nbs []nn.Neighbor) []nn.Neighbor {
	out := nbs[:0:0]
	for _, nb := range nbs {
		if ring.OwnerGroup(nb.Item.P) == g {
			out = append(out, nb)
		}
	}
	return out
}

// ownedItems is ownedNeighbors for bare items.
func ownedItems(ring *Ring, g int, items []rtree.Item) []rtree.Item {
	out := items[:0:0]
	for _, it := range items {
		if ring.OwnerGroup(it.P) == g {
			out = append(out, it)
		}
	}
	return out
}

// dedupItems drops repeated ids, keeping first occurrences in order.
func dedupItems(items []rtree.Item) []rtree.Item {
	seen := make(map[int64]bool, len(items))
	out := items[:0:0]
	for _, it := range items {
		if !seen[it.ID] {
			seen[it.ID] = true
			out = append(out, it)
		}
	}
	return out
}

// NN answers a location-based k-NN query: the scatter-gather of
// Cluster.NNQueryCtx over replica groups. The result phase (candidate
// gathering) fails hard when a needed group is unreachable; influence-
// phase failures degrade the answer instead (the region is shrunk by
// shrinkNNRegion per dead territory rectangle, and the wrapper's Valid
// accounts for the unknown objects).
func (c *Coordinator) NN(ctx context.Context, q geom.Point, k int) (*NNValidity, core.QueryCost, Status, error) {
	var cost core.QueryCost
	ring := c.currentRing()
	st := Status{RingVersion: ring.Version}
	if k < 1 {
		return nil, cost, st, fmt.Errorf("shard: k must be ≥ 1")
	}
	order := groupsByMinDist(ring, q)
	if len(order) == 0 {
		return nil, cost, st, fmt.Errorf("dist: no group owns territory")
	}

	// Result phase: owner group inline, then fan out to groups within
	// the owner's k-th distance.
	found := make([][]nn.Neighbor, len(c.groups))
	costs := make([]shard.Cost, len(c.groups))
	knn := func(gi int) error {
		nbs, cc, err := callKNN(ctx, c, c.groups[gi], q, k)
		if err != nil {
			return err
		}
		found[gi] = ownedNeighbors(ring, gi, nbs)
		costs[gi] = cc
		return nil
	}
	ownerG := order[0]
	if err := knn(ownerG); err != nil {
		return nil, cost, st, fmt.Errorf("dist: nn result phase, group %d: %w", ownerG, err)
	}
	cost.ResultNA += costs[ownerG].NA
	cost.ResultPA += costs[ownerG].PA
	du := math.Inf(1)
	if first := found[ownerG]; len(first) >= k {
		du = first[k-1].Dist
	}
	var rest []int
	for _, gi := range order[1:] {
		if d, ok := ring.MinDist(gi, q); ok && d <= du+geom.Eps*(1+du) {
			rest = append(rest, gi)
		}
	}
	errs, scErr := c.scatterGroups(ctx, rest, knn)
	for _, gi := range rest {
		cost.ResultNA += costs[gi].NA
		cost.ResultPA += costs[gi].PA
	}
	if scErr != nil {
		return nil, cost, st, scErr
	}
	for _, gi := range rest {
		if errs[gi] != nil {
			return nil, cost, st, fmt.Errorf("dist: nn result phase, group %d: %w", gi, errs[gi])
		}
	}
	nbs := shard.MergeNeighborParts(found)
	if len(nbs) < k {
		return nil, cost, st, fmt.Errorf("core: dataset has fewer than %d points", k)
	}
	nbs = nbs[:k]
	members := make([]rtree.Item, k)
	for i, nb := range nbs {
		members[i] = nb.Item
	}
	dk := nbs[k-1].Dist

	// Influence phase: owner group inline first to shrink the region,
	// then the groups within reach. Failures here degrade.
	m := shard.NewNNMerger(c.universe, q, k, nbs)
	var dead []int
	part, ic, err := callInfluence(ctx, c, c.groups[ownerG], q, members)
	cost.InfNA += ic.NA
	cost.InfPA += ic.PA
	if err != nil {
		if ctx.Err() != nil {
			return nil, cost, st, ctx.Err()
		}
		dead = append(dead, ownerG)
	} else {
		m.Add(part)
	}
	if reach, ok := m.Reach(q, dk); ok {
		var irest []int
		for _, gi := range order[1:] {
			if d, dok := ring.MinDist(gi, q); dok && d <= reach+geom.Eps*(1+reach) {
				irest = append(irest, gi)
			}
		}
		parts := make([]*core.NNValidity, len(c.groups))
		ierrs, scErr := c.scatterGroups(ctx, irest, func(gi int) error {
			p, cc, err := callInfluence(ctx, c, c.groups[gi], q, members)
			parts[gi], costs[gi] = p, cc
			return err
		})
		for _, gi := range irest {
			cost.InfNA += costs[gi].NA
			cost.InfPA += costs[gi].PA
		}
		if scErr != nil {
			return nil, cost, st, scErr
		}
		for _, gi := range irest {
			if ierrs[gi] != nil {
				dead = append(dead, gi)
				continue
			}
			m.Add(parts[gi])
		}
	}
	v := m.Finish()
	out := &NNValidity{NNValidity: v}
	for _, gi := range dead {
		terr := ring.Territory(gi)
		st.degrade(terr)
		out.Dead = append(out.Dead, terr...)
		for _, t := range terr {
			v.Region = shrinkNNRegion(v.Region, q, members, t)
		}
	}
	if st.Degraded {
		c.met.degraded["nn"].Inc()
	}
	return out, cost, st, nil
}

func callKNN(ctx context.Context, c *Coordinator, g *group, q geom.Point, k int) ([]nn.Neighbor, shard.Cost, error) {
	type res struct {
		nbs []nn.Neighbor
		c   shard.Cost
	}
	r, err := call(ctx, c, g, func(ctx context.Context, b shard.Backend) (res, error) {
		nbs, cc, err := b.KNNCandidates(ctx, q, k)
		return res{nbs, cc}, err
	})
	return r.nbs, r.c, err
}

func callInfluence(ctx context.Context, c *Coordinator, g *group, q geom.Point, members []rtree.Item) (*core.NNValidity, shard.Cost, error) {
	type res struct {
		part *core.NNValidity
		c    shard.Cost
	}
	r, err := call(ctx, c, g, func(ctx context.Context, b shard.Backend) (res, error) {
		part, cc, err := b.Influence(ctx, q, members)
		return res{part, cc}, err
	})
	return r.part, r.c, err
}

// KNearest is the plain k-NN result phase (no validity region). Any
// unreachable needed group fails the query.
func (c *Coordinator) KNearest(ctx context.Context, q geom.Point, k int) ([]nn.Neighbor, error) {
	if k < 1 {
		return nil, nil
	}
	ring := c.currentRing()
	order := groupsByMinDist(ring, q)
	if len(order) == 0 {
		return nil, fmt.Errorf("dist: no group owns territory")
	}
	found := make([][]nn.Neighbor, len(c.groups))
	knn := func(gi int) error {
		nbs, _, err := callKNN(ctx, c, c.groups[gi], q, k)
		if err != nil {
			return err
		}
		found[gi] = ownedNeighbors(ring, gi, nbs)
		return nil
	}
	ownerG := order[0]
	if err := knn(ownerG); err != nil {
		return nil, fmt.Errorf("dist: knn, group %d: %w", ownerG, err)
	}
	du := math.Inf(1)
	if first := found[ownerG]; len(first) >= k {
		du = first[k-1].Dist
	}
	var rest []int
	for _, gi := range order[1:] {
		if d, ok := ring.MinDist(gi, q); ok && d <= du+geom.Eps*(1+du) {
			rest = append(rest, gi)
		}
	}
	errs, scErr := c.scatterGroups(ctx, rest, knn)
	if scErr != nil {
		return nil, scErr
	}
	for _, gi := range rest {
		if errs[gi] != nil {
			return nil, fmt.Errorf("dist: knn, group %d: %w", gi, errs[gi])
		}
	}
	nbs := shard.MergeNeighborParts(found)
	if len(nbs) > k {
		nbs = nbs[:k]
	}
	return nbs, nil
}

// Window answers a location-based window query: the scatter-gather of
// Cluster.WindowQueryCtx over replica groups. A failed group whose
// territory intersects the window fails the query (its result points
// are unknown); a failed group outside the window degrades the answer
// — the merged region loses the Minkowski inflation of the dead
// territory, excluding every focus whose window could reach it.
func (c *Coordinator) Window(ctx context.Context, w geom.Rect) (*core.WindowValidity, core.QueryCost, Status, error) {
	var cost core.QueryCost
	ring := c.currentRing()
	st := Status{RingVersion: ring.Version}
	qx, qy := w.Width(), w.Height()
	idxs := ring.Overlapping(w.Inflate(qx, qy))
	if len(idxs) == 0 {
		idxs = c.allGroups()
	}
	wvs := make([]*core.WindowValidity, len(c.groups))
	costs := make([]core.QueryCost, len(c.groups))
	var dead []int
	runRound := func(round []int) error {
		// Each group writes only its own slot; the costs are summed
		// after the scatter has waited for every group.
		errs, scErr := c.scatterGroups(ctx, round, func(gi int) error {
			wv, qc, err := callWindow(ctx, c, c.groups[gi], w)
			if err != nil {
				return err
			}
			wvs[gi], costs[gi] = wv, qc
			return nil
		})
		for _, gi := range round {
			addCost(&cost, costs[gi])
		}
		if scErr != nil {
			return scErr
		}
		for _, gi := range round {
			if errs[gi] == nil {
				continue
			}
			if territoryIntersects(ring, gi, w) {
				return fmt.Errorf("dist: window result phase, group %d: %w", gi, errs[gi])
			}
			dead = append(dead, gi)
		}
		return nil
	}
	if err := runRound(idxs); err != nil {
		return nil, cost, st, err
	}
	if windowResultCount(wvs) == 0 && len(idxs) < len(c.groups) {
		// Empty result: the untouched groups bound the validity region
		// via their nearest points — fan out to the complement.
		queried := make(map[int]bool, len(idxs))
		for _, gi := range idxs {
			queried[gi] = true
		}
		var restIdx []int
		for gi := range c.groups {
			if !queried[gi] {
				restIdx = append(restIdx, gi)
			}
		}
		if err := runRound(restIdx); err != nil {
			return nil, cost, st, err
		}
	}
	merged := shard.MergeWindowParts(c.universe, w, wvs)
	merged.Result = dedupItems(merged.Result)
	if len(dead) > 0 {
		var terr []geom.Rect
		for _, gi := range dead {
			terr = append(terr, ring.Territory(gi)...)
		}
		st.degrade(terr)
		shrinkWindowRegion(merged, terr)
		c.met.degraded["window"].Inc()
	}
	return merged, cost, st, nil
}

func callWindow(ctx context.Context, c *Coordinator, g *group, w geom.Rect) (*core.WindowValidity, core.QueryCost, error) {
	type res struct {
		wv *core.WindowValidity
		qc core.QueryCost
	}
	r, err := call(ctx, c, g, func(ctx context.Context, b shard.Backend) (res, error) {
		wv, qc, err := b.Window(ctx, w)
		return res{wv, qc}, err
	})
	return r.wv, r.qc, err
}

func addCost(dst *core.QueryCost, src core.QueryCost) {
	dst.ResultNA += src.ResultNA
	dst.ResultPA += src.ResultPA
	dst.InfNA += src.InfNA
	dst.InfPA += src.InfPA
}

func territoryIntersects(ring *Ring, g int, w geom.Rect) bool {
	for _, t := range ring.Territory(g) {
		if t.Intersects(w) {
			return true
		}
	}
	return false
}

func windowResultCount(wvs []*core.WindowValidity) int {
	n := 0
	for _, wv := range wvs {
		if wv != nil {
			n += len(wv.Result)
		}
	}
	return n
}

// Range answers a location-based range query: the scatter-gather of
// Cluster.RangeQueryCtx over replica groups. The result phase and the
// empty-result nearest-point fallback fail hard on unreachable groups;
// outer-influence scan failures degrade (the wrapper's Valid rejects
// foci within Radius of dead territory).
func (c *Coordinator) Range(ctx context.Context, center geom.Point, radius float64) (*RangeValidity, core.QueryCost, Status, error) {
	var cost core.QueryCost
	ring := c.currentRing()
	st := Status{RingVersion: ring.Version}
	rv := &core.RangeValidity{Center: center, Radius: radius}
	out := &RangeValidity{RangeValidity: rv}
	if radius <= 0 {
		return out, cost, st, nil
	}

	// Phase 1: the result.
	bb := geom.RectCenteredAt(center, 2*radius, 2*radius)
	idxs := ring.Overlapping(bb)
	found := make([][]rtree.Item, len(c.groups))
	costs := make([]shard.Cost, len(c.groups))
	errs, scErr := c.scatterGroups(ctx, idxs, func(gi int) error {
		items, cc, err := callRangeScan(ctx, c, c.groups[gi], center, radius)
		if err != nil {
			return err
		}
		found[gi] = ownedItems(ring, gi, items)
		costs[gi] = cc
		return nil
	})
	for _, gi := range idxs {
		rv.Result = append(rv.Result, found[gi]...)
		cost.ResultNA += costs[gi].NA
		cost.ResultPA += costs[gi].PA
	}
	if scErr != nil {
		return nil, cost, st, scErr
	}
	for _, gi := range idxs {
		if errs[gi] != nil {
			return nil, cost, st, fmt.Errorf("dist: range result phase, group %d: %w", gi, errs[gi])
		}
	}

	if len(rv.Result) == 0 {
		// Conservative disk bounded by the globally nearest point.
		dists := make([]float64, len(c.groups))
		errs, scErr := c.scatterGroups(ctx, c.allGroups(), func(gi int) error {
			nb, ok, cc, err := callNearest(ctx, c, c.groups[gi], center)
			if err != nil {
				return err
			}
			costs[gi] = cc
			if ok {
				dists[gi] = nb.Dist
			} else {
				dists[gi] = math.Inf(1)
			}
			return nil
		})
		d := math.Inf(1)
		for gi := range c.groups {
			cost.ResultNA += costs[gi].NA
			cost.ResultPA += costs[gi].PA
			if errs[gi] == nil && dists[gi] < d {
				d = dists[gi]
			}
		}
		if scErr != nil {
			return nil, cost, st, scErr
		}
		if err := firstError(errs); err != nil {
			return nil, cost, st, fmt.Errorf("dist: range fallback: %w", err)
		}
		if math.IsInf(d, 1) {
			return out, cost, st, nil // empty cluster: valid everywhere
		}
		rv.Inner.Add(geom.Disk{C: center, R: math.Max(0, d-radius)})
		return out, cost, st, nil
	}

	// Inner region from the merged global result, then phase 2. The
	// result-membership set crosses the wire as an id list so remote
	// shards can run the same outer scan the single server does.
	shard.RangeInnerRegion(rv)
	exclude := make([]int64, 0, len(rv.Result))
	for _, it := range rv.Result {
		exclude = append(exclude, it.ID)
	}
	search := shard.RangeOuterSearchRect(rv.Inner.Disks, rv.Radius)
	idxs = ring.Overlapping(search)
	outerParts := make([][]rtree.Item, len(c.groups))
	cands := make([]int, len(c.groups))
	errs, scErr = c.scatterGroups(ctx, idxs, func(gi int) error {
		items, n, cc, err := callRangeOuter(ctx, c, c.groups[gi], search, rv.Inner.Disks, rv.Radius, exclude)
		if err != nil {
			return err
		}
		outerParts[gi], cands[gi], costs[gi] = items, n, cc
		return nil
	})
	var dead []int
	for _, gi := range idxs {
		rv.OuterInfluence = append(rv.OuterInfluence, outerParts[gi]...)
		rv.CandidateOuter += cands[gi]
		cost.ResultNA += costs[gi].NA
		cost.ResultPA += costs[gi].PA
	}
	if scErr != nil {
		return nil, cost, st, scErr
	}
	for _, gi := range idxs {
		if errs[gi] != nil {
			dead = append(dead, gi)
		}
	}
	rv.OuterInfluence = dedupItems(rv.OuterInfluence)
	sort.Slice(rv.OuterInfluence, func(a, b int) bool {
		return rv.OuterInfluence[a].ID < rv.OuterInfluence[b].ID
	})
	for _, gi := range dead {
		terr := ring.Territory(gi)
		st.degrade(terr)
		out.Dead = append(out.Dead, terr...)
	}
	if st.Degraded {
		c.met.degraded["range"].Inc()
	}
	return out, cost, st, nil
}

func callRangeScan(ctx context.Context, c *Coordinator, g *group, center geom.Point, radius float64) ([]rtree.Item, shard.Cost, error) {
	type res struct {
		items []rtree.Item
		c     shard.Cost
	}
	r, err := call(ctx, c, g, func(ctx context.Context, b shard.Backend) (res, error) {
		items, cc, err := b.RangeScan(ctx, center, radius)
		return res{items, cc}, err
	})
	return r.items, r.c, err
}

func callNearest(ctx context.Context, c *Coordinator, g *group, q geom.Point) (nn.Neighbor, bool, shard.Cost, error) {
	type res struct {
		nb net
		c  shard.Cost
	}
	r, err := call(ctx, c, g, func(ctx context.Context, b shard.Backend) (res, error) {
		nb, ok, cc, err := b.Nearest(ctx, q)
		return res{net{nb, ok}, cc}, err
	})
	return r.nb.nb, r.nb.ok, r.c, err
}

// net pairs a neighbor with its found flag for generic transport.
type net struct {
	nb nn.Neighbor
	ok bool
}

func callRangeOuter(ctx context.Context, c *Coordinator, g *group, search geom.Rect, inner []geom.Disk, radius float64, exclude []int64) ([]rtree.Item, int, shard.Cost, error) {
	type res struct {
		items []rtree.Item
		n     int
		c     shard.Cost
	}
	r, err := call(ctx, c, g, func(ctx context.Context, b shard.Backend) (res, error) {
		items, n, cc, err := b.RangeOuter(ctx, search, inner, radius, exclude)
		return res{items, n, cc}, err
	})
	return r.items, r.n, r.c, err
}

// RouteNN answers a continuous-NN route query: every group computes
// its local CNN partition and the coordinator folds them with
// shard.MergeCNN. A route answer cannot be conservatively shrunk — an
// unreachable group fails the query.
func (c *Coordinator) RouteNN(ctx context.Context, a, b geom.Point) ([]tp.CNNInterval, Status, error) {
	ring := c.currentRing()
	st := Status{RingVersion: ring.Version}
	parts := make([][]tp.CNNInterval, len(c.groups))
	errs, scErr := c.scatterGroups(ctx, c.allGroups(), func(gi int) error {
		ivs, _, err := callRoute(ctx, c, c.groups[gi], a, b)
		parts[gi] = ivs
		return err
	})
	if scErr != nil {
		return nil, st, scErr
	}
	if err := firstError(errs); err != nil {
		return nil, st, fmt.Errorf("dist: route: %w", err)
	}
	var merged []tp.CNNInterval
	for _, p := range parts {
		merged = shard.MergeCNN(merged, p, a, b)
	}
	return merged, st, nil
}

func callRoute(ctx context.Context, c *Coordinator, g *group, a, b geom.Point) ([]tp.CNNInterval, shard.Cost, error) {
	type res struct {
		ivs []tp.CNNInterval
		c   shard.Cost
	}
	r, err := call(ctx, c, g, func(ctx context.Context, bk shard.Backend) (res, error) {
		ivs, cc, err := bk.Route(ctx, a, b)
		return res{ivs, cc}, err
	})
	return r.ivs, r.c, err
}

// Count sums the window count over the overlapping groups. During a
// rebalance the count can transiently include moving items twice;
// unreachable groups fail the query (a count cannot be shrunk).
func (c *Coordinator) Count(ctx context.Context, w geom.Rect) (int, error) {
	ring := c.currentRing()
	idxs := ring.Overlapping(w)
	counts := make([]int, len(c.groups))
	errs, scErr := c.scatterGroups(ctx, idxs, func(gi int) error {
		n, err := call(ctx, c, c.groups[gi], func(ctx context.Context, b shard.Backend) (int, error) {
			return b.CountWindow(ctx, w)
		})
		counts[gi] = n
		return err
	})
	if scErr != nil {
		return 0, scErr
	}
	if err := firstError(errs); err != nil {
		return 0, fmt.Errorf("dist: count: %w", err)
	}
	total := 0
	for _, gi := range idxs {
		total += counts[gi]
	}
	return total, nil
}

// SearchItems gathers the items inside w from the overlapping groups
// (group order, tree order within each group).
func (c *Coordinator) SearchItems(ctx context.Context, w geom.Rect) ([]rtree.Item, error) {
	ring := c.currentRing()
	idxs := ring.Overlapping(w)
	found := make([][]rtree.Item, len(c.groups))
	errs, scErr := c.scatterGroups(ctx, idxs, func(gi int) error {
		items, err := call(ctx, c, c.groups[gi], func(ctx context.Context, b shard.Backend) ([]rtree.Item, error) {
			return b.SearchItems(ctx, w)
		})
		if err != nil {
			return err
		}
		found[gi] = ownedItems(ring, gi, items)
		return nil
	})
	if scErr != nil {
		return nil, scErr
	}
	if err := firstError(errs); err != nil {
		return nil, fmt.Errorf("dist: search: %w", err)
	}
	var out []rtree.Item
	for _, gi := range idxs {
		out = append(out, found[gi]...)
	}
	return out, nil
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

// Batch answers the requests sequentially through the coordinator's
// query surface, mapping per-request failures into Response.Err like
// the local batch executor does.
func (c *Coordinator) Batch(ctx context.Context, reqs []qexec.Request) ([]qexec.Response, []Status, error) {
	out := make([]qexec.Response, len(reqs))
	sts := make([]Status, len(reqs))
	for i, rq := range reqs {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		switch rq.Op {
		case qexec.OpNN:
			v, cost, st, err := c.NN(ctx, rq.Q, rq.K)
			out[i].Cost, sts[i], out[i].Err = cost, st, err
			if v != nil {
				out[i].NN = v.NNValidity
			}
		case qexec.OpKNN:
			nbs, err := c.KNearest(ctx, rq.Q, rq.K)
			out[i].Neighbors, out[i].Err = nbs, err
		case qexec.OpWindow:
			wv, cost, st, err := c.Window(ctx, rq.W)
			out[i].Window, out[i].Cost, sts[i], out[i].Err = wv, cost, st, err
		case qexec.OpRange:
			v, cost, st, err := c.Range(ctx, rq.Q, rq.Radius)
			out[i].Cost, sts[i], out[i].Err = cost, st, err
			if v != nil {
				out[i].Range = v.RangeValidity
			}
		case qexec.OpCount:
			n, err := c.Count(ctx, rq.W)
			out[i].Count, out[i].Err = n, err
		case qexec.OpSearch:
			items, err := c.SearchItems(ctx, rq.W)
			out[i].Items, out[i].Err = items, err
		default:
			out[i].Err = fmt.Errorf("dist: unknown batch op %d", rq.Op)
		}
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
		items, err := call(ctx, c, c.groups[gi], func(ctx context.Context, b shard.Backend) ([]rtree.Item, error) {
			return b.SearchItems(ctx, c.universe)
		})
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
	items, err := call(ctx, c, c.groups[best], func(ctx context.Context, b shard.Backend) ([]rtree.Item, error) {
		return b.SearchItems(ctx, c.universe)
	})
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
