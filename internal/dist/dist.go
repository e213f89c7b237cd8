// Package dist turns the sharded scatter-gather layer into a networked
// multi-node cluster: a Coordinator runs internal/shard's scatter-gather
// executor with one part per replica group, whose reads are hedged calls
// to remote lbsq-server processes reached through the shard.Backend
// interface over the v1 HTTP wire protocol.
//
// Placement is a versioned ring mapping a fixed grid of universe
// partitions to replica groups, either by consistent hashing (64
// virtual nodes per group, FNV-64a) or by boundary-aware contiguous
// spatial runs. Every replica of a group stores the same data (the
// union of the group's partitions), so reads are hedged: the first
// replica is asked immediately, a backup is launched after HedgeAfter,
// and the first success cancels the losers via context. Per-replica
// circuit breakers push persistently failing nodes to the back of the
// candidate order, and full-group failures retry with backoff.
//
// Partial failures never produce an overclaiming answer. A query phase
// that determines the result set (k-NN candidates, window/range result
// gathering, routes, counts) fails hard when a needed group is
// unreachable. A failure confined to a phase that only bounds the
// validity region (the executor's BatchResp.Failed) degrades instead:
// the merged validity region is shrunk so that no unknown object in the
// unreachable group's territory could invalidate it — bisector-margin
// clips for NN regions, Minkowski-inflated holes for window regions,
// dead-territory distance guards for range regions — and the response
// is flagged degraded, never served as fully valid.
package dist

import (
	"lbsq/internal/geom"
)

// Status reports the health of one coordinator answer.
type Status struct {
	// Degraded is true when at least one group failed in a phase whose
	// loss could be compensated by shrinking the validity region. The
	// result set itself is exact over the reachable data.
	Degraded bool
	// Unreachable lists the territory rectangles of the failed groups;
	// the returned validity region excludes every position from which
	// an unknown object inside them could change the answer.
	Unreachable []geom.Rect
	// RingVersion is the placement ring version the answer was computed
	// against.
	RingVersion uint64
}

// degrade folds one failed group's territory into the status.
func (st *Status) degrade(territory []geom.Rect) {
	st.Degraded = true
	st.Unreachable = append(st.Unreachable, territory...)
}
