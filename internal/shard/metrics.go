package shard

import (
	"sync/atomic"
	"time"

	"lbsq/internal/obs"
)

// Query-surface operation names used as the op label of cluster
// metrics and in the executor's error messages.
const (
	opNN     = "nn"
	opKNN    = "knn"
	opWindow = "window"
	opRange  = "range"
	opRoute  = "route"
	opCount  = "count"
	opSearch = "search"
)

var clusterOps = []string{opNN, opKNN, opWindow, opRange, opRoute, opCount, opSearch}

// clusterMetrics holds the cluster's always-on instruments: scatter
// width and prune effectiveness per operation, per-task latency, and
// worker-pool pressure. Buffer hit/miss counters are registered as
// collection-time callbacks over the shard buffers.
type clusterMetrics struct {
	fanout     map[string]*obs.Histogram
	pruned     map[string]*obs.Counter
	tasksTotal *obs.Counter
	taskDur    *obs.Histogram
	tasks      atomic.Int64 // shard tasks executed, ever (trace attribution)
}

// newClusterMetrics registers the cluster instruments on reg.
func newClusterMetrics(reg *obs.Registry, c *Cluster) *clusterMetrics {
	m := &clusterMetrics{
		fanout: make(map[string]*obs.Histogram, len(clusterOps)),
		pruned: make(map[string]*obs.Counter, len(clusterOps)),
	}
	for _, op := range clusterOps {
		m.fanout[op] = reg.Histogram("lbsq_shard_fanout",
			"Shards touched per query, by operation.",
			obs.Labels{"op": op}, obs.FanoutBuckets)
		m.pruned[op] = reg.Counter("lbsq_shard_pruned_total",
			"Shards skipped by distance/overlap pruning, by operation.",
			obs.Labels{"op": op})
	}
	m.tasksTotal = reg.Counter("lbsq_shard_tasks_total",
		"Shard-local tasks executed by scatter-gather.", nil)
	m.taskDur = reg.Histogram("lbsq_shard_task_duration_us",
		"Per-shard task latency in microseconds.", nil, obs.LatencyBucketsUS)
	pool := c.exec.Pool
	reg.Gauge("lbsq_shards", "Number of spatial shards.", nil).Set(int64(len(c.shards)))
	reg.Gauge("lbsq_shard_workers", "Scatter-gather worker pool size.", nil).Set(int64(cap(pool)))
	reg.GaugeFunc("lbsq_shard_queue_depth",
		"Scatter tasks currently holding a worker slot.", nil,
		func() float64 { return float64(len(pool)) })
	if _, _, ok := c.shards[0].bufferStats(); ok {
		reg.CounterFunc("lbsq_buffer_hits_total",
			"Page-buffer hits summed over shards.", nil,
			func() float64 { h, _ := c.BufferStats(); return float64(h) })
		reg.CounterFunc("lbsq_buffer_misses_total",
			"Page-buffer misses (faults) summed over shards.", nil,
			func() float64 { _, f := c.BufferStats(); return float64(f) })
	}
	return m
}

// observeTask records one shard task's latency and the task count.
func (m *clusterMetrics) observeTask(d time.Duration) {
	m.tasks.Add(1)
	m.tasksTotal.Inc()
	m.taskDur.Observe(float64(d.Microseconds()))
}

// observeFanout records one query's scatter width: touched distinct
// shards out of the cluster total; the rest were pruned.
func (m *clusterMetrics) observeFanout(op string, touched, shards int) {
	m.fanout[op].Observe(float64(touched))
	if skipped := shards - touched; skipped > 0 {
		m.pruned[op].Add(int64(skipped))
	}
}

// BufferStats sums buffer hits and misses over all shards (zeros when
// unbuffered).
func (c *Cluster) BufferStats() (hits, misses int64) {
	for _, b := range c.shards {
		h, f, _ := b.bufferStats()
		hits += h
		misses += f
	}
	return hits, misses
}
