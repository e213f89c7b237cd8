package main

import "math"

// perLayer returns the traced run's per-layer metrics. Latencies come
// from the replay's spans; counts and ratios from DB.Metrics()
// snapshots taken around the untraced open-loop phase of the same run
// (m0, m1), where the traffic ran at its offered rate. A layer the
// workload bypasses reports 0.
func (o *outcome) perLayer() map[string]metricValue {
	m := map[string]metricValue{}
	t := o.replay.t
	put := func(name, unit string, v float64, n int) {
		if math.IsNaN(v) { // no samples
			v = 0
		}
		m[name] = metricValue{v, unit, n}
	}
	p50 := func(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }
	p99 := func(xs []float64) float64 { return quantile(sortedCopy(xs), 0.99) }
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return ratio(s, float64(len(xs)))
	}
	spanP := func(name, unit string, span string, f func([]float64) float64) {
		d := t.durations(span)
		put(name, unit, f(d), len(d))
	}
	d := func(name, suffix string, match ...string) float64 { return delta(o.m0, o.m1, name, suffix, match...) }

	// http: round trip minus the facade call on the same input.
	for _, c := range []string{"nn", "window", "move", "batch"} {
		s := t.self("http."+c, "db."+c)
		put("http."+c+"_self_us", "us", p50(s), len(s))
	}
	put("http.nn_resp_bytes", "B", mean(t.cost["http.bytes.nn"]), len(t.cost["http.bytes.nn"]))
	put("http.move_resp_bytes", "B", mean(t.cost["http.bytes.move"]), len(t.cost["http.bytes.move"]))

	// db facade.
	spanP("db.nn_p50_us", "us", "db.nn", p50)
	spanP("db.nn_p99_us", "us", "db.nn", p99)
	spanP("db.window_p50_us", "us", "db.window", p50)
	spanP("db.move_p50_us", "us", "db.move", p50)
	spanP("db.move_p99_us", "us", "db.move", p99)
	spanP("db.write_p50_us", "us", "db.write", p50)
	spanP("db.write_p99_us", "us", "db.write", p99)
	spanP("db.batch_p50_us", "us", "db.batch", p50)
	s := t.self("db.nn", "qexec.nn")
	put("db.nn_self_us", "us", p50(s), len(s))

	// qexec.
	hits, misses := d("lbsq_cache_hits_total", ""), d("lbsq_cache_misses_total", "")
	put("qexec.hit_ratio", "ratio", ratio(hits, hits+misses), int(hits+misses))
	put("qexec.hit_p50_us", "us", p50(t.cost["qexec.hit_us"]), len(t.cost["qexec.hit_us"]))
	co := t.cost["qexec.batch_coalesced"]
	put("qexec.coalesced_per_batch", "count", mean(co), len(co))

	// session: every index query the manager issues per move — the
	// foreground requeries and the background prefetches.
	hit, pref := d("lbsq_session_moves_total", "", "result=hit"), d("lbsq_session_moves_total", "", "result=prefetch")
	req := d("lbsq_session_moves_total", "", "result=requery")
	moves := hit + pref + req + d("lbsq_session_moves_total", "", "result=repair")
	issued := d("lbsq_session_prefetch_total", "", "event=issued")
	pfHit := d("lbsq_session_prefetch_total", "", "event=hit")
	waste := d("lbsq_session_prefetch_total", "", "event=waste")
	dropped := d("lbsq_session_prefetch_total", "", "event=dropped")
	n := int(moves)
	put("session.hit_ratio", "ratio", ratio(hit, moves), n)
	put("session.prefetched_ratio", "ratio", ratio(pref, moves), n)
	put("session.requery_ratio", "ratio", ratio(req, moves), n)
	put("session.prefetch_issued_per_move", "count", ratio(issued, moves), n)
	put("session.prefetch_hit_per_move", "count", ratio(pfHit, moves), n)
	put("session.prefetch_waste_per_move", "count", ratio(waste, moves), n)
	put("session.prefetch_dropped_per_move", "count", ratio(dropped, moves), n)
	put("session.index_queries_per_move", "count", ratio(req+issued, moves), n)
	put("session.prefetch_waste_ratio", "ratio", ratio(waste+dropped, issued), int(issued))
	put("session.move_hit_p50_us", "us", p50(t.cost["session.move_hit_us"]), len(t.cost["session.move_hit_us"]))
	put("session.move_miss_p50_us", "us", p50(t.cost["session.move_miss_us"]), len(t.cost["session.move_miss_us"]))
	writes := 0
	for _, s := range o.open {
		if s.kind.isWrite() && s.ok {
			writes++
		}
	}
	put("session.invalidations_per_write", "count", ratio(d("lbsq_session_invalidations_total", ""), float64(writes)), writes)

	// core, nn, tp.
	spanP("core.nn_p50_us", "us", "core.nn", p50)
	spanP("core.nn_p99_us", "us", "core.nn", p99)
	spanP("core.window_p50_us", "us", "core.window", p50)
	spanP("core.influence_p50_us", "us", "core.influence", p50)
	enc := t.durations("core.encode_nn")
	put("core.encode_nn_ns", "ns", p50(enc)*1000, len(enc))
	put("core.payload_bytes", "B", mean(t.cost["core.payload_bytes"]), len(t.cost["core.payload_bytes"]))
	spanP("nn.knn_p50_us", "us", "nn.knn", p50)
	put("nn.result_na", "count", mean(t.cost["nn.result_na"]), len(t.cost["nn.result_na"]))
	put("tp.probes_per_nn", "count", mean(t.cost["tp.probes"]), len(t.cost["tp.probes"]))
	put("tp.inf_na", "count", mean(t.cost["tp.inf_na"]), len(t.cost["tp.inf_na"]))

	// rtree (window traversal; writes timed on the core pass's private tree).
	put("rtree.window_na", "count", mean(t.cost["rtree.window_na"]), len(t.cost["rtree.window_na"]))
	spanP("rtree.insert_p50_us", "us", "rtree.insert", p50)
	spanP("rtree.delete_p50_us", "us", "rtree.delete", p50)

	// buffer.
	bh, bm := d("lbsq_buffer_hits_total", ""), d("lbsq_buffer_misses_total", "")
	put("buffer.hit_ratio", "ratio", ratio(bh, bh+bm), int(bh+bm))
	put("buffer.pa_per_query", "count", mean(t.cost["buffer.pa"]), len(t.cost["buffer.pa"]))

	// storage (private store for append/commit; counts from the DB).
	spanP("storage.append_p50_us", "us", "storage.append", p50)
	spanP("storage.commit_p50_us", "us", "storage.commit", p50)
	spanP("storage.commit_p99_us", "us", "storage.commit", p99)
	put("storage.fsyncs_per_write", "count", ratio(d("lbsq_storage_wal_fsyncs_total", ""), float64(writes)), writes)
	put("storage.wal_bytes_per_write", "B", ratio(d("lbsq_storage_wal_bytes_total", ""), float64(writes)), writes)
	cps := d("lbsq_storage_checkpoint_duration_us", "#count")
	put("storage.checkpoints", "count", cps, int(cps))
	put("storage.checkpoint_ms", "ms", ratio(d("lbsq_storage_checkpoint_duration_us", "#sum"), cps)/1000, int(cps))

	// shard.
	spanP("shard.nn_p50_us", "us", "shard.nn", p50)
	spanP("shard.nn_p99_us", "us", "shard.nn", p99)
	spanP("shard.batch_p50_us", "us", "shard.batch", p50)
	fc := d("lbsq_shard_fanout", "#count")
	put("shard.fanout", "count", ratio(d("lbsq_shard_fanout", "#sum"), fc), int(fc))
	put("shard.pruned_ratio", "ratio", ratio(d("lbsq_shard_pruned_total", ""), fc*float64(max(o.w.Shards, 1))), int(fc))
	tc := d("lbsq_shard_task_duration_us", "#count")
	put("shard.task_mean_us", "us", ratio(d("lbsq_shard_task_duration_us", "#sum"), tc), int(tc))

	// go runtime over the untraced open loop (the whole process: the
	// server and the load generator).
	ops := float64(len(o.open))
	put("go.alloc_bytes_per_op", "B", ratio(float64(o.mem1.TotalAlloc-o.mem0.TotalAlloc), ops), len(o.open))
	put("go.gc_per_1k_ops", "count", ratio(float64(o.mem1.NumGC-o.mem0.NumGC)*1000, ops), len(o.open))
	put("go.gc_pause_total_ms", "ms", float64(o.mem1.PauseTotalNs-o.mem0.PauseTotalNs)/1e6, len(o.open))

	// tracing overhead: the traced HTTP replay against an untraced one
	// of the same requests from the same state, per request, and the
	// cost of recording one span.
	put("trace.overhead_us", "us", o.replay.overheadUS, o.replay.ops)
	put("trace.span_ns", "ns", o.replay.spanNS, 1)
	put("trace.spans", "count", float64(len(t.spans)), o.replay.ops)
	return m
}
