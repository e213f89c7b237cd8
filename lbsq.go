// Package lbsq implements location-based spatial queries (Zhang, Zhu,
// Papadias, Tao, Lee — SIGMOD 2003): nearest-neighbor and window queries
// that return, along with the result, a validity region within which the
// result is guaranteed to remain correct as the client moves. Mobile
// clients cache the answer and contact the server again only after
// leaving the region, cutting query traffic by orders of magnitude
// compared to re-querying on every position update.
//
// # Quick start
//
//	items, universe := lbsq.UniformDataset(100_000, 42)
//	db, _ := lbsq.Open(items, universe, nil)
//	ctx := context.Background()
//	v, _, _ := db.NN(ctx, lbsq.Pt(0.4, 0.6), 1)  // nearest neighbor...
//	fmt.Println(v.Neighbors[0].Item, v.Region)   // ...and its validity region
//	ok := v.Valid(lbsq.Pt(0.41, 0.61))           // still valid after moving?
//
// The package wraps the full reproduction: an R*-tree with page-level
// access accounting, best-first and depth-first NN search, time-
// parameterized (TP) queries, validity-region computation for 1NN / kNN
// (the on-the-fly order-k Voronoi cell of Sec. 3) and window queries
// (the inner/outer influence construction of Sec. 4), the Minskew
// histogram and the analytical models of Sec. 5, plus the SR01 / TP02 /
// ZL01 baselines and mobile-client simulators used in the experiments.
package lbsq

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"lbsq/internal/core"
	"lbsq/internal/dataset"
	"lbsq/internal/geom"
	"lbsq/internal/nn"
	"lbsq/internal/obs"
	"lbsq/internal/qexec"
	"lbsq/internal/rtree"
	sess "lbsq/internal/session"
	"lbsq/internal/shard"
	"lbsq/internal/storage"
	"lbsq/internal/tp"
	"lbsq/internal/wal"
)

// ErrShardedUnsupported is returned by operations that require a single
// server when the DB runs as a shard cluster (Options.Shards > 1): the
// baseline clients replay the paper's single-server experiments, and
// durability (DataDir, OpenDir), the arena layout and the INSQ session
// strategy are built on one tree.
var ErrShardedUnsupported = errors.New("operation requires an unsharded DB (Options.Shards ≤ 1)")

// ErrNotDurable is returned by persistence operations (Checkpoint,
// StorageStats-backed endpoints) on a DB opened without a data
// directory: there is nothing to flush or report. Open the DB with
// Options.DataDir, or recover one with OpenDir.
var ErrNotDurable = errors.New("DB has no data directory (set Options.DataDir or open with lbsq.OpenDir)")

// ErrUnknownLayout is returned by Open (and friends) when
// Options.Layout names a layout this build does not know. Valid values
// are LayoutPointer, LayoutArena, and the empty string (default).
var ErrUnknownLayout = errors.New(`unknown Options.Layout (want "", "pointer" or "arena")`)

// ErrUnknownSessionStrategy is returned by Open (and friends) when
// Options.SessionStrategy names a strategy this build does not know.
// Valid values are SessionStrategyTPKNN, SessionStrategyINSQ, and the
// empty string (default).
var ErrUnknownSessionStrategy = errors.New(`unknown Options.SessionStrategy (want "", "tpknn" or "insq")`)

// Session strategies selectable with Options.SessionStrategy.
const (
	// SessionStrategyTPKNN maintains NN sessions with the paper's
	// machinery: each rebuild runs a kNN query plus time-parameterized
	// probes assembling the exact order-k validity region. The default.
	SessionStrategyTPKNN = sess.StrategyTPKNN
	// SessionStrategyINSQ maintains NN sessions with an INSQ-style
	// influential neighbor set [Li+16]: one slightly larger kNN query
	// per rebuild, a guard distance instead of TP probes, in-region
	// moves answered by pure distance arithmetic, and churn repaired by
	// re-ranking the set (SessionMove.Repaired) instead of re-querying.
	// Incompatible with Shards > 1. Window sessions are unaffected.
	SessionStrategyINSQ = sess.StrategyINSQ
)

// Index layouts selectable with Options.Layout.
const (
	// LayoutPointer is the classic mutable R*-tree of linked nodes:
	// writes apply in place and reads chase child pointers. The default
	// for Open and OpenDir.
	LayoutPointer = "pointer"
	// LayoutArena freezes the tree into a flat, index-addressed arena —
	// node slabs in one slice, leaf points in struct-of-arrays form —
	// after every mutation. Reads are allocation-free and touch
	// contiguous memory; writes pay a full re-freeze, so the layout
	// suits read-mostly workloads. Results, node-access and page-access
	// costs are identical to the pointer layout by construction.
	// Incompatible with Shards > 1.
	LayoutArena = "arena"
)

// SyncMode selects when a durable DB fsyncs acknowledged writes
// (Options.SyncMode).
type SyncMode = wal.SyncMode

// Sync modes.
const (
	// SyncAlways fsyncs before every Insert/Delete returns (group
	// commit: one fsync covers every write logged since the previous
	// one). An acknowledged write survives a crash. The default.
	SyncAlways = wal.SyncAlways
	// SyncOS leaves write-back to the operating system: writes are on
	// disk only after a checkpoint or Close. Faster; a crash can lose
	// the acknowledged tail.
	SyncOS = wal.SyncOS
)

// ParseSyncMode parses a sync-mode name ("always" or "os"; the empty
// string selects SyncAlways).
func ParseSyncMode(s string) (SyncMode, error) { return wal.ParseSyncMode(s) }

// StorageStats reports a durable DB's persistence counters (WAL size
// and traffic, checkpoint generation and timings, recovery replay).
type StorageStats = storage.StoreStats

// StoreExists reports whether dir holds a durable store written by a
// previous Open with Options.DataDir (recover it with OpenDir).
func StoreExists(dir string) bool { return storage.Exists(dir) }

// Re-exported geometry and storage types: the public API speaks in these.
type (
	// Point is a 2-D location.
	Point = geom.Point
	// Rect is an axis-aligned rectangle.
	Rect = geom.Rect
	// Polygon is a convex polygon (NN validity regions).
	Polygon = geom.Polygon
	// Item is an identified data point.
	Item = rtree.Item
	// Neighbor is a nearest-neighbor result with its distance.
	Neighbor = nn.Neighbor

	// NNValidity is the full answer to a location-based (k-)NN query.
	NNValidity = core.NNValidity
	// WindowValidity is the full answer to a location-based window query.
	WindowValidity = core.WindowValidity
	// InfluencePair is one validity-region edge: (outsider, result member).
	InfluencePair = core.InfluencePair
	// QueryCost reports per-phase node and page accesses.
	QueryCost = core.QueryCost
	// ClientStats accumulates client-side traffic metrics.
	ClientStats = core.ClientStats

	// NNClient is a mobile client caching NN validity regions.
	NNClient = core.NNClient
	// WindowClient is a mobile client caching window validity regions.
	WindowClient = core.WindowClient
	// SR01Client is the m-NN buffering baseline client [SR01].
	SR01Client = core.SR01Client
	// TP02Client is the time-parameterized baseline client [TP02].
	TP02Client = core.TP02Client
	// ZL01Client is the precomputed-Voronoi baseline client [ZL01].
	ZL01Client = core.ZL01Client
	// NaiveClient re-queries on every position update.
	NaiveClient = core.NaiveClient

	// RangeValidity is the answer to a location-based range query —
	// the paper's future-work extension, implemented here: validity
	// regions bounded by circular arcs, checked with pure distance
	// comparisons.
	RangeValidity = core.RangeValidity
	// RangeClient is a mobile client caching range validity regions.
	RangeClient = core.RangeClient

	// ShardStrategy selects how a sharded DB partitions space.
	ShardStrategy = shard.Strategy
	// ShardStats describes one shard of a sharded DB.
	ShardStats = shard.Stats

	// BatchRequest is one query of a DB.Batch call: a tagged union
	// whose meaningful fields depend on Op.
	BatchRequest = qexec.Request
	// BatchResponse is one answer of a DB.Batch call; per-request
	// failures are carried in its Err field.
	BatchResponse = qexec.Response
	// BatchOp discriminates the BatchRequest union.
	BatchOp = qexec.Op
)

// Batch operations.
const (
	// BatchNN is a location-based k-NN query (validity region).
	BatchNN = qexec.OpNN
	// BatchKNN is a plain k-NN query (no validity).
	BatchKNN = qexec.OpKNN
	// BatchWindow is a location-based window query.
	BatchWindow = qexec.OpWindow
	// BatchRange is a location-based range query.
	BatchRange = qexec.OpRange
	// BatchCount is an aggregate window count.
	BatchCount = qexec.OpCount
	// BatchSearch is a plain window enumeration.
	BatchSearch = qexec.OpSearch
)

// Partitioning strategies for sharded DBs.
const (
	// ShardGrid tiles the universe with a near-square grid of
	// responsibility rectangles.
	ShardGrid = shard.Grid
	// ShardKDMedian splits recursively at coordinate medians, balancing
	// the number of points per shard under skew.
	ShardKDMedian = shard.KDMedian
)

// ParseShardStrategy parses a strategy name ("grid" or "kdmedian").
func ParseShardStrategy(s string) (ShardStrategy, error) { return shard.ParseStrategy(s) }

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// R is shorthand for Rect{minX, minY, maxX, maxY}.
func R(minX, minY, maxX, maxY float64) Rect { return geom.R(minX, minY, maxX, maxY) }

// Options configures a DB.
type Options struct {
	// PageSize of R-tree nodes in bytes; the paper uses 4096, giving a
	// fanout of 204. Zero selects the default.
	PageSize int
	// BufferFraction sizes an LRU page buffer relative to the tree
	// (paper experiments use 0.10). Zero disables buffering.
	BufferFraction float64
	// BulkLoadFill is the STR bulk-load fill factor in (0, 1];
	// zero selects 0.7.
	BulkLoadFill float64
	// Shards > 1 partitions the dataset into that many spatial shards,
	// each with its own R*-tree, and answers queries by parallel
	// scatter-gather with merged validity regions. Results are
	// identical to the single-server answers. Zero or one keeps the
	// single-server layout.
	Shards int
	// ShardStrategy selects the partitioning strategy when Shards > 1
	// (default ShardGrid; ShardKDMedian balances skewed data).
	ShardStrategy ShardStrategy
	// ShardWorkers bounds the scatter-gather worker pool when
	// Shards > 1; zero selects GOMAXPROCS.
	ShardWorkers int
	// CacheSize enables the server-side validity-region cache with
	// that many entries: an NN (or window) query answered by a cached
	// region costs zero node accesses, and identical in-flight misses
	// coalesce onto one computation. Zero disables the cache (the
	// default — cached answers are shared, read-only objects).
	CacheSize int
	// BatchWorkers bounds the worker pool executing Batch requests on
	// an unsharded DB; zero selects a small default. Sharded batches
	// are bounded by the cluster's scatter-gather pool instead.
	BatchWorkers int
	// SessionTTL expires continuous-query sessions idle for longer
	// than this (no Move or Events activity). Zero keeps sessions
	// until closed.
	SessionTTL time.Duration
	// SessionPrefetchWorkers bounds the background pool computing
	// trajectory-predicted next regions for sessions. Zero selects a
	// small default; negative disables prefetch.
	SessionPrefetchWorkers int
	// MaxSessions caps concurrently open continuous-query sessions
	// (OpenSession returns ErrSessionLimit beyond it). Zero selects a
	// generous default.
	MaxSessions int
	// SessionStrategy selects how NN sessions maintain their validity
	// state between full queries: SessionStrategyTPKNN (the paper's
	// scheme; also selected by "") or SessionStrategyINSQ (influential
	// neighbor sets with repair instead of requery). Unknown values are
	// rejected with ErrUnknownSessionStrategy; SessionStrategyINSQ is
	// incompatible with Shards > 1.
	SessionStrategy string
	// DataDir, if non-empty, makes the DB durable: Open seeds the
	// directory with a checkpoint of the dataset, every Insert/Delete is
	// write-ahead logged there before it is acknowledged, and OpenDir
	// recovers the exact acknowledged state after a crash or restart.
	// Empty keeps the DB purely in-memory. Incompatible with Shards > 1
	// (persist the items and re-shard on open instead).
	DataDir string
	// SyncMode selects the WAL fsync policy of a durable DB: SyncAlways
	// (the default — acknowledged writes survive a crash) or SyncOS
	// (faster, crash may lose the tail). Ignored without DataDir.
	SyncMode SyncMode
	// CheckpointEvery, if positive, checkpoints the durable store
	// automatically once that many mutations have been logged since the
	// last checkpoint, bounding WAL size and recovery time. Zero leaves
	// checkpointing to explicit DB.Checkpoint calls. Ignored without
	// DataDir.
	CheckpointEvery int
	// Layout selects the in-memory index layout serving reads:
	// LayoutPointer (linked R*-tree nodes; the default) or LayoutArena
	// (flat index-addressed slabs, allocation-free queries, re-frozen on
	// every write — best for read-mostly data). Unknown values are
	// rejected with ErrUnknownLayout; LayoutArena is incompatible with
	// Shards > 1.
	Layout string
}

// validate rejects out-of-range option values with a descriptive error.
// Zero values always mean "use the default" and are valid.
func (o *Options) validate() error {
	if o.PageSize < 0 {
		return fmt.Errorf("lbsq: PageSize %d, want ≥ 0 (0 selects the default)", o.PageSize)
	}
	if o.BufferFraction < 0 || o.BufferFraction > 1 {
		return fmt.Errorf("lbsq: BufferFraction %g, want in [0, 1] (0 disables buffering)", o.BufferFraction)
	}
	if o.BulkLoadFill < 0 || o.BulkLoadFill > 1 {
		return fmt.Errorf("lbsq: BulkLoadFill %g, want in (0, 1] (0 selects the default)", o.BulkLoadFill)
	}
	if o.Shards < 0 {
		return fmt.Errorf("lbsq: Shards %d, want ≥ 0 (0 or 1 keeps a single server)", o.Shards)
	}
	if o.ShardWorkers < 0 {
		return fmt.Errorf("lbsq: ShardWorkers %d, want ≥ 0 (0 selects GOMAXPROCS)", o.ShardWorkers)
	}
	if o.CacheSize < 0 {
		return fmt.Errorf("lbsq: CacheSize %d, want ≥ 0 (0 disables the validity cache)", o.CacheSize)
	}
	if o.BatchWorkers < 0 {
		return fmt.Errorf("lbsq: BatchWorkers %d, want ≥ 0 (0 selects the default)", o.BatchWorkers)
	}
	if o.SessionTTL < 0 {
		return fmt.Errorf("lbsq: SessionTTL %v, want ≥ 0 (0 disables expiry)", o.SessionTTL)
	}
	if o.MaxSessions < 0 {
		return fmt.Errorf("lbsq: MaxSessions %d, want ≥ 0 (0 selects the default)", o.MaxSessions)
	}
	if _, err := wal.ParseSyncMode(string(o.SyncMode)); err != nil {
		return fmt.Errorf("lbsq: %w", err)
	}
	if o.CheckpointEvery < 0 {
		return fmt.Errorf("lbsq: CheckpointEvery %d, want ≥ 0 (0 disables automatic checkpoints)", o.CheckpointEvery)
	}
	if o.DataDir != "" && o.Shards > 1 {
		return fmt.Errorf("lbsq: DataDir is incompatible with Shards > 1: %w", ErrShardedUnsupported)
	}
	switch o.Layout {
	case "", LayoutPointer, LayoutArena:
	default:
		return fmt.Errorf("lbsq: Layout %q: %w", o.Layout, ErrUnknownLayout)
	}
	if o.Layout == LayoutArena && o.Shards > 1 {
		return fmt.Errorf("lbsq: Layout %q is incompatible with Shards > 1: %w", o.Layout, ErrShardedUnsupported)
	}
	if _, err := sess.ParseStrategy(o.SessionStrategy); err != nil {
		return fmt.Errorf("lbsq: SessionStrategy %q: %w", o.SessionStrategy, ErrUnknownSessionStrategy)
	}
	if o.SessionStrategy == SessionStrategyINSQ && o.Shards > 1 {
		return fmt.Errorf("lbsq: SessionStrategy %q is incompatible with Shards > 1: %w", o.SessionStrategy, ErrShardedUnsupported)
	}
	return nil
}

// DB is an in-memory location-based query processor over a point
// dataset: the "server" of the paper's client/server architecture.
//
// DB is safe for concurrent use: queries proceed in parallel (access
// counters are atomic and the page buffer locks internally), while
// Insert/Delete take the tree exclusively. Per-query QueryCost deltas
// are attributed approximately when queries overlap — the counters are
// shared, exactly as a shared disk and buffer pool would be.
//
// When opened with Options.Shards > 1 (or OpenSharded), the DB runs as
// a cluster of spatial shards and answers the same query surface by
// scatter-gather; Insert/Delete then lock only the owning shard.
type DB struct {
	mu      sync.RWMutex
	server  *core.Server
	cluster *shard.Cluster
	exec    *qexec.Executor
	sess    *sess.Manager

	// store is the durable half of a DB opened with Options.DataDir
	// (nil for an in-memory DB): mutations are write-ahead logged under
	// db.mu's write lock, so log order matches apply order, and
	// checkpoints run under the read lock, which excludes writers while
	// queries proceed.
	store           *storage.Store
	checkpointEvery int64
	checkpointing   atomic.Bool
	closeOnce       sync.Once
	closeErr        error

	reg  *obs.Registry
	met  *dbMetrics
	hook atomic.Value // TraceHook
}

// instrument wires the DB's metrics registry (shared with the shard
// cluster, which has already registered its own instruments on it) and
// the batch/cache executor.
func (db *DB) instrument(o *Options) *DB {
	if db.cluster != nil {
		db.reg = db.cluster.Registry()
	} else {
		db.reg = obs.NewRegistry()
	}
	db.met = newDBMetrics(db.reg, db)
	db.exec = qexec.New(db.server, &db.mu, db.cluster, qexec.Config{
		Workers:   o.BatchWorkers,
		CacheSize: o.CacheSize,
		Registry:  db.reg,
	})
	db.sess = sess.NewManager(db.exec, db.engine().UniverseRect(), sess.Options{
		TTL:             o.SessionTTL,
		MaxSessions:     o.MaxSessions,
		PrefetchWorkers: o.SessionPrefetchWorkers,
		Strategy:        o.SessionStrategy,
		Registry:        db.reg,
	})
	return db
}

// Open bulk-loads the items into an R*-tree over the given universe and
// returns the query processor.
func Open(items []Item, universe Rect, opts *Options) (*DB, error) {
	if universe.IsEmpty() || geom.ExactZero(universe.Area()) {
		return nil, fmt.Errorf("lbsq: universe must have positive area")
	}
	var o Options
	if opts != nil {
		o = *opts
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	for _, it := range items {
		if !universe.Contains(it.P) {
			return nil, fmt.Errorf("lbsq: item %d at %v outside universe %v", it.ID, it.P, universe)
		}
	}
	if o.Shards > 1 {
		c, err := shard.NewCluster(items, universe, shard.Options{
			Shards:         o.Shards,
			Strategy:       o.ShardStrategy,
			Workers:        o.ShardWorkers,
			PageSize:       o.PageSize,
			BufferFraction: o.BufferFraction,
			BulkLoadFill:   o.BulkLoadFill,
		})
		if err != nil {
			return nil, err
		}
		return (&DB{cluster: c}).instrument(&o), nil
	}
	tree := rtree.BulkLoad(items, rtree.Options{PageSize: o.PageSize}, o.BulkLoadFill)
	srv := core.NewServer(tree, universe)
	if o.BufferFraction > 0 {
		srv.AttachBuffer(o.BufferFraction)
	}
	if o.Layout == LayoutArena {
		srv.UseArena()
	}
	db := &DB{server: srv, checkpointEvery: int64(o.CheckpointEvery)}
	if o.DataDir != "" {
		st, err := storage.CreateStore(o.DataDir, tree, universe, storage.StoreOptions{
			SyncMode:     o.SyncMode,
			TreePageSize: o.PageSize,
		})
		if err != nil {
			return nil, fmt.Errorf("lbsq: creating store: %w", err)
		}
		db.store = st
	}
	return db.instrument(&o), nil
}

// OpenDir recovers a durable DB from a data directory written by a
// previous Open with Options.DataDir: it loads the latest checkpoint,
// replays the write-ahead log over it (dropping any torn tail record
// whole, never half-applied), and returns a DB holding exactly the
// acknowledged state. The returned DB keeps logging to the same
// directory. opts configures the runtime exactly as in Open; DataDir
// is implied by dir, the universe comes from the store, and a non-zero
// PageSize must match the stored tree's.
func OpenDir(dir string, opts *Options) (*DB, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	if o.Shards > 1 {
		return nil, fmt.Errorf("lbsq: OpenDir: %w", ErrShardedUnsupported)
	}
	st, tree, universe, err := storage.OpenStore(dir, storage.StoreOptions{
		SyncMode:     o.SyncMode,
		TreePageSize: o.PageSize,
	})
	if err != nil {
		return nil, fmt.Errorf("lbsq: opening store: %w", err)
	}
	srv := core.NewServer(tree, universe)
	if o.BufferFraction > 0 {
		srv.AttachBuffer(o.BufferFraction)
	}
	if o.Layout == LayoutArena {
		srv.UseArena()
	}
	db := &DB{server: srv, store: st, checkpointEvery: int64(o.CheckpointEvery)}
	return db.instrument(&o), nil
}

// OpenSharded is shorthand for Open with Options.Shards = shards: it
// partitions the dataset into spatial shards queried by scatter-gather.
func OpenSharded(items []Item, universe Rect, shards int, opts *Options) (*DB, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	if shards < 1 {
		return nil, fmt.Errorf("lbsq: shard count %d, want ≥ 1", shards)
	}
	o.Shards = shards
	return Open(items, universe, &o)
}

// Sharded reports whether the DB runs as a shard cluster.
func (db *DB) Sharded() bool { return db.cluster != nil }

// NumShards returns the number of shards (1 for an unsharded DB).
func (db *DB) NumShards() int {
	if db.cluster != nil {
		return db.cluster.NumShards()
	}
	return 1
}

// ShardStatsList reports per-shard statistics, or nil for an unsharded
// DB.
func (db *DB) ShardStatsList() []ShardStats {
	if db.cluster == nil {
		return nil
	}
	return db.cluster.ShardStats()
}

// engine returns the query engine answering location-based queries:
// the single server or the shard cluster.
func (db *DB) engine() core.QueryEngine {
	if db.cluster != nil {
		return db.cluster
	}
	return db.server
}

// Len returns the number of stored points.
func (db *DB) Len() int {
	if db.cluster != nil {
		return db.cluster.Len()
	}
	return db.server.Index.Len()
}

// Universe returns the data universe.
func (db *DB) Universe() Rect { return db.engine().UniverseRect() }

// Insert adds a point (the index is dynamic even though the paper's
// workloads are static). Every insert expires the validity cache.
//
// The epoch is bumped on both sides of the mutation: the leading bump
// refuses cache stores of regions computed against the old tree while
// the write is in flight, and the trailing bump (which runs last, after
// the mutation is visible) guarantees that once Insert returns, no
// region computed before it can be served.
// The session manager follows the same protocol around its own epoch
// (MutationBegin / OnInsert), and additionally push-invalidates every
// open session whose armed validity region the new point punctures.
// On a durable DB the insert is write-ahead logged before this method
// returns: under SyncAlways the acknowledgment implies the record is
// fsynced (group commit) and the write survives a crash.
func (db *DB) Insert(it Item) error {
	db.sess.MutationBegin()
	db.exec.Invalidate()
	tok, logged, err := db.insertItem(it)
	db.exec.Invalidate()
	if err != nil {
		return err
	}
	db.sess.OnInsert(it)
	if logged {
		if err := db.store.Commit(tok); err != nil {
			return fmt.Errorf("lbsq: insert applied and logged but not fsynced: %w", err)
		}
		return db.maybeCheckpoint()
	}
	return nil
}

// insertItem performs the raw index mutation of Insert, logging it to
// the durable store (if any) under the same write lock so log order
// matches apply order. The returned token commits the record.
func (db *DB) insertItem(it Item) (storage.CommitToken, bool, error) {
	if db.cluster != nil {
		return storage.CommitToken{}, false, db.cluster.Insert(it)
	}
	if !db.server.Universe.Contains(it.P) {
		return storage.CommitToken{}, false, fmt.Errorf("lbsq: point %v outside universe", it.P)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.server.Tree.Insert(it)
	if db.store == nil {
		db.server.RefreshArena()
		return storage.CommitToken{}, false, nil
	}
	//lbsq:allowblock — WAL-append order under db.mu is the recovery invariant (PR 7); the fsync itself happens in store.Commit, outside this lock
	tok, err := db.store.LogInsert(it)
	if err != nil {
		// Unlogged writes must not survive: roll the tree back so the
		// in-memory state never diverges from what recovery can rebuild.
		// The rollback restores the tree the arena was frozen from, so no
		// re-freeze is needed on this path.
		db.server.Tree.Delete(it)
		return storage.CommitToken{}, false, fmt.Errorf("lbsq: logging insert: %w", err)
	}
	db.server.RefreshArena()
	return tok, true, nil
}

// Delete removes a point, reporting whether it was present. Every
// delete expires the validity cache (see Insert for the epoch
// discipline).
// Sessions whose cached result contains the removed item are
// push-invalidated (see Insert). On a durable DB the delete is
// write-ahead logged before this method returns (see Insert).
func (db *DB) Delete(it Item) (bool, error) {
	db.sess.MutationBegin()
	db.exec.Invalidate()
	ok, tok, logged, err := db.deleteItem(it)
	db.exec.Invalidate()
	if err != nil {
		return false, err
	}
	if ok {
		db.sess.OnDelete(it)
	}
	if logged {
		if err := db.store.Commit(tok); err != nil {
			return true, fmt.Errorf("lbsq: delete applied and logged but not fsynced: %w", err)
		}
		return true, db.maybeCheckpoint()
	}
	return ok, nil
}

// deleteItem performs the raw index mutation of Delete (see insertItem
// for the logging discipline).
func (db *DB) deleteItem(it Item) (bool, storage.CommitToken, bool, error) {
	if db.cluster != nil {
		return db.cluster.Delete(it), storage.CommitToken{}, false, nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.server.Tree.Delete(it) {
		return false, storage.CommitToken{}, false, nil
	}
	if db.store == nil {
		db.server.RefreshArena()
		return true, storage.CommitToken{}, false, nil
	}
	//lbsq:allowblock — WAL-append order under db.mu is the recovery invariant (PR 7); the fsync itself happens in store.Commit, outside this lock
	tok, err := db.store.LogDelete(it)
	if err != nil {
		// Roll back: an unlogged delete would vanish on recovery (the
		// restored tree is what the arena was frozen from — no re-freeze).
		db.server.Tree.Insert(it)
		return false, storage.CommitToken{}, false, fmt.Errorf("lbsq: logging delete: %w", err)
	}
	db.server.RefreshArena()
	return true, tok, true, nil
}

// maybeCheckpoint runs an automatic checkpoint once CheckpointEvery
// mutations have been logged; concurrent writers skip past an
// in-flight one rather than queueing behind it.
func (db *DB) maybeCheckpoint() error {
	if db.checkpointEvery <= 0 || db.store.SinceCheckpoint() < db.checkpointEvery {
		return nil
	}
	if !db.checkpointing.CompareAndSwap(false, true) {
		return nil
	}
	defer db.checkpointing.Store(false)
	if err := db.checkpoint(); err != nil {
		// The triggering write is applied, logged, and fsynced — only
		// WAL compaction failed. Surface that distinctly.
		return fmt.Errorf("lbsq: write is durable, but automatic checkpoint failed: %w", err)
	}
	return nil
}

// checkpoint writes the next checkpoint generation and truncates the
// WAL, excluding writers (but not queries) for the duration.
func (db *DB) checkpoint() error {
	start := time.Now()
	db.mu.RLock()
	//lbsq:allowblock — the read lock excludes tree mutations for the whole snapshot write; queries proceed, and stalling writers here is the documented checkpoint cost
	err := db.store.Checkpoint(db.server.Tree)
	db.mu.RUnlock()
	if err == nil && db.met != nil {
		db.met.observeCheckpoint(time.Since(start))
	}
	return err
}

// Checkpoint flushes the durable store: the current tree becomes the
// next checkpoint generation (written atomically alongside the old
// one, then swapped in) and the write-ahead log is truncated, bounding
// recovery time. Writers block for the duration; queries proceed.
// In-memory DBs return ErrNotDurable.
func (db *DB) Checkpoint(ctx context.Context) error {
	if db.store == nil {
		return fmt.Errorf("lbsq: Checkpoint: %w", ErrNotDurable)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return db.checkpoint()
}

// StorageStats reports the durable store's counters; ok is false for
// an in-memory DB.
func (db *DB) StorageStats() (stats StorageStats, ok bool) {
	if db.store == nil {
		return StorageStats{}, false
	}
	return db.store.Stats(), true
}

// Close releases the DB's durable resources: the write-ahead log is
// sealed with a final fsync and closed. Queries and mutations must not
// be in flight. Closing an in-memory DB (or closing twice) is a no-op
// returning nil.
func (db *DB) Close() error {
	db.closeOnce.Do(func() {
		if db.store != nil {
			db.closeErr = db.store.Close()
		}
	})
	return db.closeErr
}

// NN answers a location-based k-nearest-neighbor query: the k nearest
// neighbors of q plus the validity region within which that answer
// stays exact. On a sharded DB a cancelled context aborts the scatter
// between shard tasks; on a single server it is checked once before
// the (non-preemptible) query runs. With Options.CacheSize > 0 the
// query is served through the validity cache: a hit returns a shared,
// read-only region at zero node accesses.
//
//lbsq:hotpath
func (db *DB) NN(ctx context.Context, q Point, k int) (*NNValidity, QueryCost, error) {
	start, tasks0 := db.begin()
	var (
		v    *NNValidity
		cost QueryCost
		err  error
		hit  bool
	)
	if db.exec.Cache() != nil {
		v, cost, hit, _, err = db.exec.NNCached(ctx, q, k)
	} else if db.cluster != nil {
		v, cost, err = db.cluster.NNQueryCtx(ctx, q, k) //lbsq:nocheck hotpath — cacheless cluster fan-out: the scatter dominates
	} else if err = ctx.Err(); err == nil {
		db.mu.RLock()
		v, cost, err = db.server.NNQuery(q, k) //lbsq:nocheck hotpath — cacheless single-server query: the tree descent dominates
		db.mu.RUnlock()
	}
	area := math.NaN()
	if v != nil {
		area = v.Region.Area()
	}
	db.finish(&QueryTrace{Op: OpNN, At: q, K: k, Cost: cost, RegionArea: area, CacheHit: hit, Err: err}, start, tasks0)
	return v, cost, err
}

// Batch executes a heterogeneous batch of queries in one pass:
// requests answered by the validity cache cost zero node accesses,
// identical misses coalesce onto one computation, and on a sharded DB
// the remainder runs with one grouped scatter per shard per phase
// instead of one fan-out per query (an unsharded DB uses a bounded
// worker pool). The returned slice parallels reqs; per-request
// failures are carried in BatchResponse.Err, and the only batch-level
// error is context cancellation. Batched queries update cluster and
// cache metrics but do not fire per-query DB traces.
func (db *DB) Batch(ctx context.Context, reqs []BatchRequest) ([]BatchResponse, error) {
	return db.exec.Batch(ctx, reqs)
}

// Window answers a location-based window query for the window w (see
// NN for context and cache semantics; a window cache hit requires
// identical extents and a center inside the cached conservative
// rectangle).
func (db *DB) Window(ctx context.Context, w Rect) (*WindowValidity, QueryCost, error) {
	start, tasks0 := db.begin()
	var (
		wv   *WindowValidity
		cost QueryCost
		err  error
		hit  bool
	)
	if db.exec.Cache() != nil {
		wv, cost, hit, _, err = db.exec.WindowCached(ctx, w)
	} else if db.cluster != nil {
		wv, cost, err = db.cluster.WindowQueryCtx(ctx, w)
	} else if err = ctx.Err(); err == nil {
		db.mu.RLock()
		wv, cost = db.server.WindowQuery(w)
		db.mu.RUnlock()
	}
	area := math.NaN()
	if wv != nil {
		area = wv.Region.Area()
	}
	db.finish(&QueryTrace{Op: OpWindow, At: w.Center(), Window: w, Cost: cost, RegionArea: area, CacheHit: hit, Err: err}, start, tasks0)
	return wv, cost, err
}

// WindowAt answers a location-based window query for a qx×qy window
// centered at the focus (see NN for context and cache semantics).
func (db *DB) WindowAt(ctx context.Context, focus Point, qx, qy float64) (*WindowValidity, QueryCost, error) {
	return db.Window(ctx, geom.RectCenteredAt(focus, qx, qy))
}

// Count returns the number of items inside w using aggregate
// subtree counts: large windows cost far fewer node accesses than
// enumeration (see NN for context semantics).
func (db *DB) Count(ctx context.Context, w Rect) (int, error) {
	start, tasks0 := db.begin()
	var (
		n   int
		err error
	)
	if db.cluster != nil {
		n, err = db.cluster.CountWindowCtx(ctx, w)
	} else if err = ctx.Err(); err == nil {
		db.mu.RLock()
		n = db.server.Index.CountWindow(w)
		db.mu.RUnlock()
	}
	db.finish(&QueryTrace{Op: OpCount, At: w.Center(), Window: w, RegionArea: math.NaN(), Err: err}, start, tasks0)
	return n, err
}

// RangeSearch returns the items inside w (a plain, non-location-based
// window query; see NN for context semantics).
func (db *DB) RangeSearch(ctx context.Context, w Rect) ([]Item, error) {
	start, tasks0 := db.begin()
	var (
		items []Item
		err   error
	)
	if db.cluster != nil {
		items, err = db.cluster.SearchItemsCtx(ctx, w)
	} else if err = ctx.Err(); err == nil {
		db.mu.RLock()
		items = db.server.Index.SearchItems(w)
		db.mu.RUnlock()
	}
	db.finish(&QueryTrace{Op: OpSearch, At: w.Center(), Window: w, RegionArea: math.NaN(), Err: err}, start, tasks0)
	return items, err
}

// Range answers a location-based range query: all points within radius
// of center, plus the arc-bounded validity region of that answer (the
// paper's Sec. 7 future-work extension; see NN for context semantics).
func (db *DB) Range(ctx context.Context, center Point, radius float64) (*RangeValidity, QueryCost, error) {
	start, tasks0 := db.begin()
	var (
		rv   *RangeValidity
		cost QueryCost
		err  error
	)
	if db.cluster != nil {
		rv, cost, err = db.cluster.RangeQueryCtx(ctx, center, radius)
	} else if err = ctx.Err(); err == nil {
		db.mu.RLock()
		rv, cost = db.server.RangeQuery(center, radius)
		db.mu.RUnlock()
	}
	db.finish(&QueryTrace{Op: OpRange, At: center, Radius: radius, Cost: cost, RegionArea: math.NaN(), Err: err}, start, tasks0)
	return rv, cost, err
}

// NewRangeClient returns a mobile client maintaining a fixed-radius
// range query around its position.
func (db *DB) NewRangeClient(radius float64) *RangeClient {
	return core.NewRangeClient(db.clientEngine(), radius)
}

// KNearest returns the k nearest neighbors of q (a plain NN query,
// without validity computation), using best-first search [HS99] (see
// NN for context semantics).
func (db *DB) KNearest(ctx context.Context, q Point, k int) ([]Neighbor, error) {
	start, tasks0 := db.begin()
	var (
		nbs []Neighbor
		err error
	)
	if db.cluster != nil {
		nbs, err = db.cluster.KNearestCtx(ctx, q, k)
	} else if err = ctx.Err(); err == nil {
		db.mu.RLock()
		nbs = nn.KNearest(db.server.Index, q, k)
		db.mu.RUnlock()
	}
	db.finish(&QueryTrace{Op: OpKNN, At: q, K: k, RegionArea: math.NaN(), Err: err}, start, tasks0)
	return nbs, err
}

// RouteNN returns the continuous nearest neighbors along the segment
// from a to b ([TPS02]-style): a partition of the route into intervals,
// each with its nearest neighbor. A client with a known straight route
// can fetch its entire sequence of answers in one interaction (see NN
// for context semantics).
func (db *DB) RouteNN(ctx context.Context, a, b Point) ([]RouteInterval, error) {
	start, tasks0 := db.begin()
	var (
		route []RouteInterval
		err   error
	)
	if db.cluster != nil {
		route, err = db.cluster.RouteNNCtx(ctx, a, b)
	} else if err = ctx.Err(); err == nil {
		db.mu.RLock()
		route = tp.CNN(db.server.Index, a, b)
		db.mu.RUnlock()
	}
	db.finish(&QueryTrace{Op: OpRoute, At: a, RegionArea: math.NaN(), Err: err}, start, tasks0)
	return route, err
}

// RouteInterval is one piece of a RouteNN answer.
type RouteInterval = tp.CNNInterval

// RouteNNAt returns the interval of a RouteNN partition covering the
// given distance from the route start.
func RouteNNAt(intervals []RouteInterval, t float64) (RouteInterval, bool) {
	return tp.NNAt(intervals, t)
}

// Server exposes the underlying query server for advanced use
// (buffer control, direct access accounting). It is nil for a sharded
// DB — use Cluster instead.
func (db *DB) Server() *core.Server { return db.server }

// Cluster exposes the underlying shard cluster of a sharded DB, or nil
// for an unsharded one.
func (db *DB) Cluster() *shard.Cluster { return db.cluster }

// NewNNClient returns a mobile client for k-NN queries against this DB.
func (db *DB) NewNNClient(k int) *NNClient { return core.NewNNClient(db.clientEngine(), k) }

// NewWindowClient returns a mobile client maintaining a qx×qy window.
func (db *DB) NewWindowClient(qx, qy float64) *WindowClient {
	return core.NewWindowClient(db.clientEngine(), qx, qy)
}

// clientEngine is the engine the mobile clients query: the shard
// cluster, which locks each shard itself, or the single server behind
// the DB's read lock — so a client moving while Insert or Delete runs
// never reads a tree mid-mutation.
func (db *DB) clientEngine() core.QueryEngine {
	if db.cluster != nil {
		return db.cluster
	}
	return lockedServer{db}
}

// lockedServer runs each query of the single server under db.mu's
// read lock.
type lockedServer struct{ db *DB }

func (l lockedServer) NNQuery(q Point, k int) (*NNValidity, QueryCost, error) {
	l.db.mu.RLock()
	defer l.db.mu.RUnlock()
	return l.db.server.NNQuery(q, k)
}

func (l lockedServer) WindowQuery(w Rect) (*WindowValidity, QueryCost) {
	l.db.mu.RLock()
	defer l.db.mu.RUnlock()
	return l.db.server.WindowQuery(w)
}

func (l lockedServer) WindowQueryAt(focus Point, qx, qy float64) (*WindowValidity, QueryCost) {
	l.db.mu.RLock()
	defer l.db.mu.RUnlock()
	return l.db.server.WindowQueryAt(focus, qx, qy)
}

func (l lockedServer) RangeQuery(center Point, radius float64) (*RangeValidity, QueryCost) {
	l.db.mu.RLock()
	defer l.db.mu.RUnlock()
	return l.db.server.RangeQuery(center, radius)
}

func (l lockedServer) UniverseRect() Rect { return l.db.server.UniverseRect() }

// NewSR01Client returns the [SR01] baseline client (m ≥ k buffered
// neighbors). Baseline clients require an unsharded DB: they replay the
// paper's single-server experiments (ErrShardedUnsupported otherwise).
// Like the mobile clients, each baseline query runs under the DB's read
// lock, so a client may move while Insert or Delete runs.
func (db *DB) NewSR01Client(k, m int) (*SR01Client, error) {
	if db.server == nil {
		return nil, fmt.Errorf("lbsq: NewSR01Client: %w", ErrShardedUnsupported)
	}
	return core.NewSR01Client(db.server, db.mu.RLocker(), k, m), nil
}

// NewTP02Client returns the [TP02] baseline client. Baseline clients
// require an unsharded DB (ErrShardedUnsupported otherwise).
func (db *DB) NewTP02Client(k int) (*TP02Client, error) {
	if db.server == nil {
		return nil, fmt.Errorf("lbsq: NewTP02Client: %w", ErrShardedUnsupported)
	}
	return core.NewTP02Client(db.server, db.mu.RLocker(), k), nil
}

// NewNaiveClient returns the conventional re-query-always client.
// Baseline clients require an unsharded DB (ErrShardedUnsupported
// otherwise).
func (db *DB) NewNaiveClient(k int) (*NaiveClient, error) {
	if db.server == nil {
		return nil, fmt.Errorf("lbsq: NewNaiveClient: %w", ErrShardedUnsupported)
	}
	return core.NewNaiveClient(db.server, db.mu.RLocker(), k), nil
}

// NewZL01Client precomputes the Voronoi diagram and returns the [ZL01]
// baseline client, which assumes clients move at most at maxSpeed. The
// build and each query (a nearest-site lookup) hold the DB's read lock;
// the diagram is not maintained under writes (the scheme's documented
// cost), so a query whose nearest site was inserted later fails.
// Baseline clients require an unsharded DB (ErrShardedUnsupported
// otherwise).
func (db *DB) NewZL01Client(maxSpeed float64) (*ZL01Client, error) {
	if db.server == nil {
		return nil, fmt.Errorf("lbsq: NewZL01Client: %w", ErrShardedUnsupported)
	}
	db.mu.RLock()
	s, err := core.NewZL01Server(db.server.Index, db.server.Universe, maxSpeed)
	db.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	return core.NewZL01Client(s, db.mu.RLocker()), nil
}

// EncodeNN serializes an NN response into the compact wire form the
// paper's protocol sends to clients.
func EncodeNN(v *NNValidity) []byte { return core.EncodeNN(v) }

// DecodeNN parses a wire-form NN response.
func DecodeNN(b []byte) (*NNValidity, error) { return core.DecodeNN(b) }

// EncodeWindow serializes a window response.
func EncodeWindow(w *WindowValidity) []byte { return core.EncodeWindow(w) }

// DecodeWindow parses a wire-form window response; universe is needed to
// rebuild the validity region.
func DecodeWindow(b []byte, universe Rect) (*WindowValidity, error) {
	return core.DecodeWindow(b, universe)
}

// EncodeRange serializes a range response.
func EncodeRange(rv *RangeValidity) []byte { return core.EncodeRange(rv) }

// DecodeRange parses a wire-form range response.
func DecodeRange(b []byte) (*RangeValidity, error) { return core.DecodeRange(b) }

// UniformDataset generates n uniform points in the unit square.
func UniformDataset(n int, seed int64) ([]Item, Rect) {
	d := dataset.Uniform(n, seed)
	return d.Items, d.Universe
}

// GRLikeDataset generates an n-point synthetic stand-in for the paper's
// GR dataset (street-segment centroids of Greece, 800 km × 800 km, in
// meters); pass dataset cardinality 23268 for the paper's setup.
func GRLikeDataset(n int, seed int64) ([]Item, Rect) {
	d := dataset.GRLike(n, seed)
	return d.Items, d.Universe
}

// NALikeDataset generates an n-point synthetic stand-in for the paper's
// NA dataset (populated places of North America, ~7000 km square, in
// meters); the original holds 569120 points.
func NALikeDataset(n int, seed int64) ([]Item, Rect) {
	d := dataset.NALike(n, seed)
	return d.Items, d.Universe
}
