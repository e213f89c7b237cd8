package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"lbsq/internal/core"
	"lbsq/internal/geom"
	"lbsq/internal/nn"
	"lbsq/internal/rtree"
	"lbsq/internal/tp"
)

// The scatter-gather executor. Every sharded answer — Cluster's
// per-query calls and batches, and dist.Coordinator's queries over
// remote replica groups — is computed here, by one algorithm per query
// kind over a list of Parts. A whole batch of heterogeneous queries
// runs with one scatter per round: every part receives ONE task per
// round carrying all the work the batch has for it. Rounds:
//
//	round 1: NN/kNN owner-part candidates, window and range result
//	         scans, count/search/route partials
//	round 2: NN/kNN pruned candidate fan-out, window and range outer
//	         scans or their empty-result NN probes
//	round 3: NN influence on the owner part (bounds the region), the
//	         window outer scan after an empty result
//	round 4: NN influence on the remaining parts within reach
//
// Rounds with no work are skipped, so a batch costs at most four
// scatters regardless of its size, and a one-request batch runs exactly
// the scatters of a per-query fan-out. Part jobs run concurrently
// across parts, so they write only to their own per-part slot; all
// merging (and hence all ordering-sensitive work, like bisector
// clipping) is done between rounds, in part order.
//
// Failures. A part error in a phase that determines the result set
// (k-NN candidates, window and range result scans, range empty-result
// probes, window probes and outer scans on parts whose territory meets
// the window, count, search, route) fails the request: BatchResp then
// carries only Err and the cost paid. An error in a phase that only
// bounds the validity region (NN influence, window probes and outer
// scans on parts away from the window, range outer scans) drops the
// part from the merge and lists it in BatchResp.Failed; the answer is exact
// over the other parts, and the caller must shrink its region before
// serving it (internal/dist does). A cancelled context aborts the whole
// batch between rounds.

// BatchOp discriminates the request union of a batch.
type BatchOp uint8

// Batch operations.
const (
	BatchNN     BatchOp = iota + 1 // k-NN with validity region
	BatchKNN                       // plain k-NN (no validity)
	BatchWindow                    // location-based window query
	BatchRange                     // location-based range query
	BatchCount                     // aggregate window count
	BatchSearch                    // plain window enumeration
	BatchRoute                     // continuous NN along the segment Q→To
)

// BatchReq is one request of a batch.
type BatchReq struct {
	Op     BatchOp
	Q      geom.Point // NN/kNN query point, range center, window focus, route start
	K      int        // NN/kNN neighbor count
	W      geom.Rect  // window / count / search rectangle
	Radius float64    // range radius
	To     geom.Point // route end
}

// BatchResp is one request's answer. Exactly one result field is set
// according to the request's Op; per-request failures land in Err
// rather than failing the batch.
type BatchResp struct {
	NN        *core.NNValidity
	Neighbors []nn.Neighbor
	Window    *core.WindowValidity
	Range     *core.RangeValidity
	Count     int
	Items     []rtree.Item
	Route     []tp.CNNInterval
	Cost      core.QueryCost
	Err       error
	// Failed lists the parts whose loss only bounds the validity
	// region (see the package comment above), in the order they were
	// dropped. Empty unless a part failed.
	Failed []int
}

// Part is one backend of a scatter-gather: its read primitives and the
// territory tiles holding its points. A Cluster shard is one part with
// one tile; a dist replica group is one part with the ring tiles it
// owns.
type Part struct {
	Reader Reader
	Tiles  []geom.Rect
}

// minDist2 returns the squared distance from q to the part's nearest
// tile; ok is false for a part without territory.
func (p *Part) minDist2(q geom.Point) (d2 float64, ok bool) {
	for i, t := range p.Tiles {
		if d := t.MinDist2(q); i == 0 || d < d2 {
			d2 = d
		}
	}
	return d2, len(p.Tiles) > 0
}

// within reports whether some tile lies within reach of q (with the
// usual tolerance).
func (p *Part) within(q geom.Point, reach float64) bool {
	for _, t := range p.Tiles {
		if t.MinDist(q) <= reach+geom.Eps*(1+reach) {
			return true
		}
	}
	return false
}

// meets reports whether some tile intersects r.
func (p *Part) meets(r geom.Rect) bool {
	for _, t := range p.Tiles {
		if t.Intersects(r) {
			return true
		}
	}
	return false
}

// Executor runs batches over a fixed list of parts. The caller supplies
// the parts, the data universe every part shares, and a worker pool:
// Pool's capacity bounds the part tasks running at once across every
// batch that shares it.
type Executor struct {
	Universe geom.Rect
	Parts    []Part
	Pool     chan struct{}

	met *clusterMetrics // Cluster's task and fan-out instruments; nil otherwise
}

// partJob is one unit of per-part work, run inside that part's (single)
// task of the round.
type partJob func(ctx context.Context, r Reader)

// Run executes a batch (see the package comment above). The returned
// slice parallels reqs; per-request errors are carried in
// BatchResp.Err. The only batch-level error is context cancellation,
// which aborts between rounds and discards the partial gather.
func (e *Executor) Run(ctx context.Context, reqs []BatchReq) ([]BatchResp, error) {
	resps := make([]BatchResp, len(reqs))
	states := make([]*batchState, len(reqs))
	for r := range reqs {
		states[r] = &batchState{req: reqs[r], resp: &resps[r]}
	}
	if e.met != nil {
		defer func() {
			for _, st := range states {
				e.met.observeFanout(batchOpName(st.req.Op), len(st.touched), len(e.Parts))
			}
		}()
	}

	jobs := make([][]partJob, len(e.Parts))
	for round := 1; round <= 4; round++ {
		for i := range jobs {
			jobs[i] = jobs[i][:0]
		}
		for _, st := range states {
			if !st.done {
				st.ran = st.ran[:0]
				e.plan(st, round, jobs)
			}
		}
		if err := e.runGrouped(ctx, jobs); err != nil {
			return nil, err
		}
		for _, st := range states {
			if !st.done {
				e.after(st, round)
			}
		}
	}
	return resps, nil
}

// runGrouped executes one round: every part with queued jobs gets one
// task running them back to back.
func (e *Executor) runGrouped(ctx context.Context, jobs [][]partJob) error {
	var idxs []int
	for i, js := range jobs {
		if len(js) > 0 {
			idxs = append(idxs, i)
		}
	}
	return e.scatter(ctx, idxs, func(i int) {
		for _, job := range jobs[i] {
			job(ctx, e.Parts[i].Reader)
		}
	})
}

// scatter runs task once per part index in idxs, in parallel on the
// bounded pool. A single task runs inline on the caller's goroutine —
// most routed queries touch one part and skip the fan-out machinery.
//
// Cancelling ctx stops scheduling further tasks (already-running tasks
// finish: part-local work is not preemptible) and scatter returns the
// context error; callers must then discard their partial gather. A nil
// error means every task ran under a live context.
func (e *Executor) scatter(ctx context.Context, idxs []int, task func(i int)) error {
	if err := ctx.Err(); err != nil || len(idxs) == 0 {
		return err
	}
	if len(idxs) == 1 {
		e.runTask(idxs[0], task)
		return ctx.Err()
	}
	var wg sync.WaitGroup
	var err error
	for _, i := range idxs {
		select {
		case e.Pool <- struct{}{}:
		case <-ctx.Done():
			err = ctx.Err()
		}
		if err != nil {
			break
		}
		wg.Add(1)
		go func() {
			defer func() { <-e.Pool; wg.Done() }()
			e.runTask(i, task)
		}()
	}
	wg.Wait()
	if err == nil {
		err = ctx.Err()
	}
	return err
}

// runTask executes one part task, recording its latency when the
// executor is instrumented.
func (e *Executor) runTask(i int, task func(i int)) {
	if e.met == nil {
		task(i)
		return
	}
	start := time.Now()
	task(i)
	e.met.observeTask(time.Since(start))
}

// byMinDist returns the indexes of the parts owning territory, ordered
// by ascending minimum distance from q (the owner part first).
func (e *Executor) byMinDist(q geom.Point) []int {
	type entry struct {
		idx int
		d2  float64
	}
	es := make([]entry, 0, len(e.Parts))
	for i := range e.Parts {
		if d2, ok := e.Parts[i].minDist2(q); ok {
			es = append(es, entry{i, d2})
		}
	}
	sort.Slice(es, func(i, j int) bool {
		// Exact comparator: tolerant comparison breaks strict weak order.
		if !geom.ExactEq(es[i].d2, es[j].d2) {
			return es[i].d2 < es[j].d2
		}
		return es[i].idx < es[j].idx
	})
	out := make([]int, len(es))
	for i, en := range es {
		out[i] = en.idx
	}
	return out
}

// overlapping returns the indexes of the parts whose territory meets r.
func (e *Executor) overlapping(r geom.Rect) []int {
	var out []int
	for i := range e.Parts {
		if e.Parts[i].meets(r) {
			out = append(out, i)
		}
	}
	return out
}

// batchState tracks one in-flight request across rounds. Part jobs of
// the same request run concurrently within a round, so every field a
// job writes is a per-part slot; scalars are only touched between
// rounds.
type batchState struct {
	req     BatchReq
	resp    *BatchResp
	done    bool
	touched map[int]bool // distinct parts touched (fan-out metric)
	ran     []int        // parts queued this round, in queue order
	errs    []error      // per-part error of this round's job

	// Per-part phase costs, accumulated by jobs into their own slot
	// and summed when the request finishes.
	resCosts []Cost // result phases
	infCosts []Cost // influence phases: NN influence, window outer scans

	// NN/kNN state.
	order   []int
	found   [][]nn.Neighbor
	merger  *nnMerger
	members []rtree.Item
	dk      float64
	parts   []*core.NNValidity

	// Window, range, count, search and route state. A window keeps
	// its global result in members and its inner rectangle in inner;
	// search is the range's outer search rectangle.
	items   [][]rtree.Item
	counts  []int
	dists   []float64
	inner   geom.Rect
	search  geom.Rect
	exclude []int64
	routes  [][]tp.CNNInterval
}

// slots allocates the per-part error and result-cost slots.
func (st *batchState) slots(n int) {
	st.errs = make([]error, n)
	st.resCosts = make([]Cost, n)
}

// queue adds one job of the request for part i to this round.
func (st *batchState) queue(jobs [][]partJob, i int, job partJob) {
	if st.touched == nil {
		st.touched = make(map[int]bool)
	}
	st.touched[i] = true
	st.ran = append(st.ran, i)
	jobs[i] = append(jobs[i], job)
}

// addCost accumulates one part's access delta into its result-phase
// slot (rounds are barriers, so += per slot is race-free).
func (st *batchState) addCost(i int, c Cost) {
	st.resCosts[i].NA += c.NA
	st.resCosts[i].PA += c.PA
}

// settle inspects the errors of this round's jobs. A part for which
// lossy reports true only bounds the validity region: it is listed in
// Failed (its slots are zero, so the merge skips it). Any other error
// fails the request. settle reports whether the request is still live.
func (st *batchState) settle(phase string, lossy func(i int) bool) bool {
	for _, i := range st.ran {
		err := st.errs[i]
		if err == nil {
			continue
		}
		if lossy != nil && lossy(i) {
			st.resp.Failed = append(st.resp.Failed, i)
			continue
		}
		st.sumCosts()
		st.fail(fmt.Errorf("shard: %s, part %d: %w", phase, i, err))
		return false
	}
	return true
}

// fail finishes the request with a per-request error: the response
// keeps only the error and the cost already summed.
func (st *batchState) fail(err error) {
	*st.resp = BatchResp{Cost: st.resp.Cost, Err: err}
	st.done = true
}

// finish sums the costs and completes the request.
func (st *batchState) finish() {
	st.sumCosts()
	st.done = true
}

// sumCosts folds the per-part phase costs into the response's cost.
// Called exactly once, when the request finishes.
func (st *batchState) sumCosts() {
	for _, c := range st.resCosts {
		st.resp.Cost.ResultNA += c.NA
		st.resp.Cost.ResultPA += c.PA
	}
	for _, c := range st.infCosts {
		st.resp.Cost.InfNA += c.NA
		st.resp.Cost.InfPA += c.PA
	}
}

// batchOpName maps a BatchOp to its metrics label and error phase name.
func batchOpName(op BatchOp) string {
	switch op {
	case BatchNN:
		return opNN
	case BatchKNN:
		return opKNN
	case BatchWindow:
		return opWindow
	case BatchRange:
		return opRange
	case BatchCount:
		return opCount
	case BatchRoute:
		return opRoute
	default:
		return opSearch
	}
}

// plan queues one request's per-part jobs for the given round.
func (e *Executor) plan(st *batchState, round int, jobs [][]partJob) {
	switch st.req.Op {
	case BatchNN, BatchKNN:
		e.planNN(st, round, jobs)
	case BatchWindow:
		e.planWindow(st, round, jobs)
	case BatchRange:
		e.planRange(st, round, jobs)
	case BatchCount, BatchSearch, BatchRoute:
		if round == 1 {
			e.planEnumeration(st, jobs)
		}
	default:
		st.fail(fmt.Errorf("shard: unknown batch op %d", st.req.Op))
	}
}

// after merges one request's gathered partials after the round.
func (e *Executor) after(st *batchState, round int) {
	switch st.req.Op {
	case BatchNN, BatchKNN:
		e.afterNN(st, round)
	case BatchWindow:
		e.afterWindow(st, round)
	case BatchRange:
		e.afterRange(st, round)
	case BatchCount, BatchSearch, BatchRoute:
		e.afterEnumeration(st)
	}
}

// --- NN / kNN -------------------------------------------------------------

// planNN schedules the location-based k-NN query:
//
//  1. Result phase: the owner part (nearest territory) answers a local
//     k-NN, whose k-th distance du prunes the fan-out — only parts
//     within du of q can contribute; their candidates are merged by
//     distance into the global result R.
//  2. Influence phase: each relevant part computes the influence set
//     of the *global* members R against its own tree (valid because
//     every part-local outsider is farther than every global member).
//     The merged validity region is the universe clipped by every
//     influence pair's bisector, which equals the order-k Voronoi cell
//     of R over the union of all parts. Parts beyond 2·R_v + d_k of q
//     (R_v = furthest region vertex after the owner's clip) cannot cut
//     the region and are skipped: a bisector crossing at x requires
//     dist(o,x) ≤ dist(m,x) ≤ d_k + R_v and dist(q,o) ≤ dist(q,x) +
//     dist(o,x) ≤ 2·R_v + d_k.
func (e *Executor) planNN(st *batchState, round int, jobs [][]partJob) {
	q, k := st.req.Q, st.req.K
	switch round {
	case 1:
		if k < 1 {
			if st.req.Op == BatchNN {
				st.fail(errors.New("shard: k must be ≥ 1"))
			} else {
				st.done = true // a plain k-NN of k < 1 is empty
			}
			return
		}
		st.order = e.byMinDist(q)
		if len(st.order) == 0 {
			st.fail(errors.New("shard: no part owns territory"))
			return
		}
		st.slots(len(e.Parts))
		st.found = make([][]nn.Neighbor, len(e.Parts))
		st.candidateJob(jobs, st.order[0])
	case 2:
		du := math.Inf(1)
		if first := st.found[st.order[0]]; len(first) >= k {
			du = first[k-1].Dist
		}
		for _, i := range st.order[1:] {
			if e.Parts[i].within(q, du) {
				st.candidateJob(jobs, i)
			}
		}
	case 3:
		st.infCosts = make([]Cost, len(e.Parts))
		st.parts = make([]*core.NNValidity, len(e.Parts))
		st.influenceJob(jobs, st.order[0])
	case 4:
		if reach, ok := st.merger.reach(q, st.dk); ok {
			for _, i := range st.order[1:] {
				if e.Parts[i].within(q, reach) {
					st.influenceJob(jobs, i)
				}
			}
		}
	}
}

// candidateJob queues a local k-NN candidate scan on part i.
func (st *batchState) candidateJob(jobs [][]partJob, i int) {
	st.queue(jobs, i, func(ctx context.Context, r Reader) {
		st.found[i], st.resCosts[i], st.errs[i] = r.KNNCandidates(ctx, st.req.Q, st.req.K)
	})
}

// influenceJob queues the influence-set computation of the global
// members against part i. members need not be stored in that part:
// the TP probes exclude them by id, and the precondition of
// InfluenceSetKNN — every local outsider farther from q than every
// member — holds because members are the global k nearest.
func (st *batchState) influenceJob(jobs [][]partJob, i int) {
	st.queue(jobs, i, func(ctx context.Context, r Reader) {
		st.parts[i], st.infCosts[i], st.errs[i] = r.Influence(ctx, st.req.Q, st.members)
	})
}

func (e *Executor) afterNN(st *batchState, round int) {
	q, k := st.req.Q, st.req.K
	switch round {
	case 1, 2:
		if !st.settle(batchOpName(st.req.Op)+" result phase", nil) || round == 1 {
			return
		}
		all := mergeNeighborParts(st.found)
		if st.req.Op == BatchKNN {
			if len(all) > k {
				all = all[:k]
			}
			st.resp.Neighbors = all
			st.finish()
			return
		}
		if len(all) < k {
			st.sumCosts()
			st.fail(fmt.Errorf("core: dataset has fewer than %d points", k))
			return
		}
		all = all[:k]
		st.members = make([]rtree.Item, k)
		for i, nb := range all {
			st.members[i] = nb.Item
		}
		st.dk = all[k-1].Dist
		st.merger = newNNMerger(e.Universe, q, k, all)
	case 3, 4:
		for _, i := range st.ran {
			if st.errs[i] != nil {
				st.resp.Failed = append(st.resp.Failed, i)
				continue
			}
			st.merger.add(st.parts[i])
		}
		if round == 4 {
			st.resp.NN = st.merger.finish()
			st.finish()
		}
	}
}

// --- window ---------------------------------------------------------------

// planWindow mirrors the single-server window algorithm (Sec. 4) phase
// by phase, so the answer is the single server's:
//
//  1. Result phase: parts meeting w scan it; core.WindowInner builds
//     the global inner rectangle from the union.
//  2. Influence phase: parts meeting q′ = inner ⊕ (qx/2, qy/2) return
//     their items in q′ outside w, and core.WindowRegion builds the
//     region from these outer candidates once.
//
// An empty result first probes every part's nearest point (round 2),
// which bounds the empty-result base; the outer scan then runs in round
// 3 and skips the parts the probe lost. Scans and probes are charged to
// the phase they serve.
func (e *Executor) planWindow(st *batchState, round int, jobs [][]partJob) {
	w := st.req.W
	switch {
	case round == 1:
		st.slots(len(e.Parts))
		st.infCosts = make([]Cost, len(e.Parts))
		st.items = make([][]rtree.Item, len(e.Parts))
		for _, i := range e.overlapping(w) {
			st.scanJob(jobs, i, w, geom.EmptyRect(), st.resCosts)
		}
	case round == 2 && len(st.members) == 0:
		st.dists = make([]float64, len(e.Parts))
		for i := range e.Parts {
			st.nearestJob(jobs, i, w.Center())
		}
	case round == 2 || round == 3:
		q := st.inner.Inflate(w.Width()/2, w.Height()/2)
		for _, i := range e.overlapping(q) {
			if !slices.Contains(st.resp.Failed, i) {
				st.scanJob(jobs, i, q, w, st.infCosts)
			}
		}
	}
}

// scanJob queues a scan of r skipping skip on part i, charging the
// cost to the given per-part phase slots.
func (st *batchState) scanJob(jobs [][]partJob, i int, r, skip geom.Rect, costs []Cost) {
	st.queue(jobs, i, func(ctx context.Context, rd Reader) {
		var c Cost
		st.items[i], c, st.errs[i] = rd.Scan(ctx, r, skip)
		costs[i].NA += c.NA
		costs[i].PA += c.PA
	})
}

// nearestJob queues a probe for part i's nearest point to q; a part
// without points reports +Inf.
func (st *batchState) nearestJob(jobs [][]partJob, i int, q geom.Point) {
	st.queue(jobs, i, func(ctx context.Context, r Reader) {
		nb, ok, c, err := r.Nearest(ctx, q)
		st.dists[i] = math.Inf(1)
		if ok {
			st.dists[i] = nb.Dist
		}
		st.errs[i] = err
		st.addCost(i, c)
	})
}

// nearest returns the least probed distance (+Inf when every part is
// empty).
func (st *batchState) nearest() float64 {
	d := math.Inf(1)
	for _, di := range st.dists {
		if di < d {
			d = di
		}
	}
	return d
}

func (e *Executor) afterWindow(st *batchState, round int) {
	w := st.req.W
	switch {
	case round == 1:
		if !st.settle("window result phase", nil) {
			return
		}
		for _, i := range st.ran {
			st.members = append(st.members, st.items[i]...)
		}
		if len(st.members) > 0 {
			st.inner = core.WindowInner(w, st.members, 0, e.Universe)
		}
	case round == 2 && len(st.members) == 0:
		// The empty result is exact (round 1 settled every part meeting
		// w). A part lost away from w has its nearest point no closer
		// than its territory, so the base stays inside the healthy one.
		if !st.settle("window empty-result probe", func(i int) bool { return !e.Parts[i].meets(w) }) {
			return
		}
		for _, i := range st.resp.Failed {
			if d2, ok := e.Parts[i].minDist2(w.Center()); ok {
				st.dists[i] = math.Sqrt(d2)
			}
		}
		st.inner = core.WindowInner(w, nil, st.nearest(), e.Universe)
	default:
		// Shrinking by the territory of a part meeting w would cut out
		// the focus itself, so only parts away from w may be lost.
		if !st.settle("window influence phase", func(i int) bool { return !e.Parts[i].meets(w) }) {
			return
		}
		var cands []rtree.Item
		for _, i := range st.ran {
			if st.errs[i] == nil {
				cands = append(cands, st.items[i]...)
			}
		}
		st.resp.Window = core.WindowRegion(w, st.members, st.inner, e.Universe, cands)
		st.finish()
	}
}

// --- range ----------------------------------------------------------------

// planRange mirrors the single-server range algorithm phase by phase,
// so the merged validity region is identical:
//
//  1. Result phase: parts overlapping the query disk's bounding box
//     gather their local members; the union is the global result. The
//     inner region (disks of the global result's convex-hull vertices)
//     is computed from the merged result.
//  2. Influence phase: parts overlapping the inner region's bounding
//     box inflated by the radius scan for outer candidates, filtering
//     with the same global lower bound the single server uses, so the
//     outer influence set matches exactly.
//
// An empty result falls back to an NN probe of every part for the
// globally nearest point, which bounds the conservative safe disk.
// Range accounting uses the result phase only, as the single server's.
func (e *Executor) planRange(st *batchState, round int, jobs [][]partJob) {
	center, radius := st.req.Q, st.req.Radius
	switch round {
	case 1:
		st.resp.Range = &core.RangeValidity{Center: center, Radius: radius}
		if radius <= 0 {
			st.done = true
			return
		}
		st.slots(len(e.Parts))
		st.items = make([][]rtree.Item, len(e.Parts))
		for _, i := range e.overlapping(geom.RectCenteredAt(center, 2*radius, 2*radius)) {
			st.queue(jobs, i, func(ctx context.Context, r Reader) {
				var c Cost
				st.items[i], c, st.errs[i] = r.RangeScan(ctx, center, radius)
				st.addCost(i, c)
			})
		}
	case 2:
		if len(st.resp.Range.Result) == 0 {
			st.dists = make([]float64, len(e.Parts))
			for i := range e.Parts {
				st.nearestJob(jobs, i, center)
			}
			return
		}
		rv := st.resp.Range
		st.counts = make([]int, len(e.Parts))
		for _, i := range e.overlapping(st.search) {
			st.queue(jobs, i, func(ctx context.Context, r Reader) {
				var c Cost
				st.items[i], st.counts[i], c, st.errs[i] = r.RangeOuter(ctx, st.search, rv.Inner.Disks, rv.Radius, st.exclude)
				st.addCost(i, c)
			})
		}
	}
}

func (e *Executor) afterRange(st *batchState, round int) {
	rv := st.resp.Range
	switch {
	case round == 1:
		if !st.settle("range result phase", nil) {
			return
		}
		for _, i := range st.ran {
			rv.Result = append(rv.Result, st.items[i]...)
		}
		if len(rv.Result) == 0 {
			return
		}
		rangeInnerRegion(rv)
		st.search = rangeOuterSearchRect(rv.Inner.Disks, rv.Radius)
		st.exclude = make([]int64, len(rv.Result))
		for i, it := range rv.Result {
			st.exclude[i] = it.ID
		}
	case round == 2 && len(rv.Result) == 0:
		if !st.settle("range fallback", nil) {
			return
		}
		if d := st.nearest(); !math.IsInf(d, 1) { // an empty dataset is valid everywhere
			rv.Inner.Add(geom.Disk{C: st.req.Q, R: math.Max(0, d-rv.Radius)})
		}
		st.finish()
	case round == 2:
		for _, i := range st.ran {
			if st.errs[i] != nil {
				st.resp.Failed = append(st.resp.Failed, i)
				continue
			}
			rv.OuterInfluence = append(rv.OuterInfluence, st.items[i]...)
			rv.CandidateOuter += st.counts[i]
		}
		sort.Slice(rv.OuterInfluence, func(a, b int) bool {
			return rv.OuterInfluence[a].ID < rv.OuterInfluence[b].ID
		})
		st.finish()
	}
}

// --- count / search / route -----------------------------------------------

// planEnumeration queues the one-round requests: count and search on
// the parts overlapping the window, and the route's local CNN partition
// on every part.
func (e *Executor) planEnumeration(st *batchState, jobs [][]partJob) {
	req := st.req
	n := len(e.Parts)
	st.slots(n)
	switch req.Op {
	case BatchCount:
		st.counts = make([]int, n)
		for _, i := range e.overlapping(req.W) {
			st.queue(jobs, i, func(ctx context.Context, r Reader) {
				st.counts[i], st.errs[i] = r.CountWindow(ctx, req.W)
			})
		}
	case BatchSearch:
		st.items = make([][]rtree.Item, n)
		for _, i := range e.overlapping(req.W) {
			st.queue(jobs, i, func(ctx context.Context, r Reader) {
				st.items[i], _, st.errs[i] = r.Scan(ctx, req.W, geom.EmptyRect())
			})
		}
	case BatchRoute:
		st.routes = make([][]tp.CNNInterval, n)
		for i := range e.Parts {
			st.queue(jobs, i, func(ctx context.Context, r Reader) {
				st.routes[i], st.resCosts[i], st.errs[i] = r.Route(ctx, req.Q, req.To)
			})
		}
	}
}

// afterEnumeration gathers the one-round requests in part order; a
// route folds the local partitions by mergeCNN.
func (e *Executor) afterEnumeration(st *batchState) {
	if !st.settle(batchOpName(st.req.Op), nil) {
		return
	}
	for _, i := range st.ran {
		switch st.req.Op {
		case BatchCount:
			st.resp.Count += st.counts[i]
		case BatchSearch:
			st.resp.Items = append(st.resp.Items, st.items[i]...)
		case BatchRoute:
			st.resp.Route = mergeCNN(st.resp.Route, st.routes[i], st.req.Q, st.req.To)
		}
	}
	st.finish()
}
