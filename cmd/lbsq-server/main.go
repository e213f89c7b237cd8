// Command lbsq-server serves a location-based spatial query processor
// over HTTP: the server half of the paper's mobile client/server
// architecture. Clients receive compact binary responses containing the
// query result plus its validity region (influence objects).
//
// Usage:
//
//	lbsq-server -n 100000 -seed 7 -addr :8080       # synthetic uniform data
//	lbsq-server -dataset gr                          # GR-like dataset
//	lbsq-server -load points.lbsq                    # dataset file (see datagen)
//
// Endpoints: /v1/nn?x=&y=&k=   /v1/window?x=&y=&qx=&qy=   /v1/range
// /v1/route   /v1/info   POST /v1/batch   and the /v1/session family,
// all with JSON error envelopes. -cache enables the server-side
// validity-region cache. Every unsharded server also answers the shard
// RPC at POST /v1/shard, so it can serve as a data node of a
// distributed cluster.
//
// Cluster mode: -cluster runs the process as a distributed coordinator
// over remote data nodes instead of serving data itself —
//
//	lbsq-server -addr :8081 -n 0 &                  # three data nodes
//	lbsq-server -addr :8082 -n 0 &
//	lbsq-server -addr :8083 -n 0 &
//	lbsq-server -addr :8080 \
//	  -cluster http://localhost:8081,http://localhost:8082,http://localhost:8083 \
//	  -seed-cluster -n 100000                       # coordinator, seeds the nodes
//
// with -replicas grouping consecutive nodes into replica sets,
// -placement choosing hash or spatial partition placement, and
// -hedge-after bounding the tail latency of reads. A running data node
// joins an existing cluster as an extra replica with
// -join http://coordinator:8080 -advertise http://me:8084.
//
// Durability: -data-dir makes the server crash-safe — every Insert and
// Delete is write-ahead logged before it is acknowledged, the store is
// checkpointed every -checkpoint-every writes (POST /v1/admin/checkpoint
// forces one), and restarting with the same -data-dir recovers the
// acknowledged state instead of regenerating the dataset. -sync picks
// the fsync policy (always | os).
//
// Observability: -metrics (default on) exposes Prometheus text metrics
// at /v1/metrics; -pprof additionally mounts net/http/pprof under
// /debug/pprof/ for live profiling.
//
// Both modes serve until SIGINT/SIGTERM, then drain in-flight requests
// and close the database (sealing a durable store) or the coordinator.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"lbsq"
	"lbsq/internal/dataset"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		n         = flag.Int("n", 100_000, "synthetic dataset cardinality")
		kind      = flag.String("dataset", "uniform", "synthetic dataset: uniform | gr | na")
		seed      = flag.Int64("seed", 2003, "random seed")
		load      = flag.String("load", "", "load a dataset file instead of generating")
		buf       = flag.Float64("buffer", 0.10, "LRU buffer fraction of tree size (0 disables)")
		shards    = flag.Int("shards", 1, "number of spatial shards (>1 enables scatter-gather)")
		strategy  = flag.String("shard-strategy", "grid", "shard partitioning: grid | kdmedian")
		workers   = flag.Int("shard-workers", 0, "scatter-gather worker pool size (0 = GOMAXPROCS)")
		cache     = flag.Int("cache", 0, "validity-region cache capacity in regions (0 disables)")
		layout    = flag.String("layout", "", "index layout: pointer | arena (arena is read-optimized, incompatible with -shards > 1)")
		sessStrat = flag.String("session-strategy", "", "NN session strategy: tpknn | insq (insq repairs an influential neighbor set instead of re-querying; incompatible with -shards > 1)")
		metrics   = flag.Bool("metrics", true, "expose Prometheus metrics at /v1/metrics")
		pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")

		dataDir    = flag.String("data-dir", "", "durable data directory: WAL every write, recover on restart (empty = in-memory)")
		syncMode   = flag.String("sync", "always", "WAL fsync policy with -data-dir: always | os")
		checkEvery = flag.Int("checkpoint-every", 10_000, "auto-checkpoint after this many logged writes (0 = manual only)")

		cluster    = flag.String("cluster", "", "comma-separated data node URLs: run as a distributed coordinator")
		replicas   = flag.Int("replicas", 1, "replicas per group (consecutive -cluster nodes form a group)")
		partitions = flag.Int("partitions", 0, "ring partitions (0 = one per group)")
		placement  = flag.String("placement", "hash", "partition placement: hash | spatial")
		hedgeAfter = flag.Duration("hedge-after", 0, "launch a backup replica read after this delay (0 disables)")
		opTimeout  = flag.Duration("op-timeout", 5*time.Second, "per-attempt shard RPC timeout")
		retries    = flag.Int("retries", 1, "extra full-group retry rounds after total failure")
		seedDist   = flag.Bool("seed-cluster", false, "seed the cluster's data nodes with the generated/loaded dataset")
		join       = flag.String("join", "", "coordinator URL: join its cluster as a new replica (data node mode)")
		advertise  = flag.String("advertise", "", "externally reachable base URL of this node (required with -join)")
	)
	flag.Parse()

	if *cluster != "" {
		d := openCoordinator(coordinatorConfig{
			addr: *addr, nodes: strings.Split(*cluster, ","),
			replicas: *replicas, partitions: *partitions, placement: *placement,
			hedgeAfter: *hedgeAfter, opTimeout: *opTimeout, retries: *retries,
			seed: *seedDist, n: *n, kind: *kind, rngSeed: *seed, load: *load,
		})
		serve(*addr, newMux(d.Handler(), *metrics, *pprofOn, *addr), d)
		return
	}

	st, err := lbsq.ParseShardStrategy(*strategy)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lbsq-server: %v\n", err)
		os.Exit(2)
	}

	sync, err := lbsq.ParseSyncMode(*syncMode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lbsq-server: %v\n", err)
		os.Exit(2)
	}

	var db *lbsq.DB
	if *dataDir != "" && lbsq.StoreExists(*dataDir) {
		// An existing store wins over the dataset flags: recover the
		// acknowledged state instead of regenerating.
		db, err = lbsq.OpenDir(*dataDir, &lbsq.Options{
			BufferFraction:  *buf,
			CacheSize:       *cache,
			SyncMode:        sync,
			CheckpointEvery: *checkEvery,
			Layout:          *layout,
			SessionStrategy: *sessStrat,
		})
		if err != nil {
			log.Fatalf("lbsq-server: %v", err)
		}
		stats, _ := db.StorageStats()
		log.Printf("recovered %d points from %s (generation %d, %d WAL records replayed) on %s",
			db.Len(), *dataDir, stats.Generation, stats.RecoveredRecords, *addr)
	} else {
		items, universe, name := loadDataset(*load, *kind, *n, *seed)
		db, err = lbsq.Open(items, universe, &lbsq.Options{
			BufferFraction:  *buf,
			Shards:          *shards,
			ShardStrategy:   st,
			ShardWorkers:    *workers,
			CacheSize:       *cache,
			DataDir:         *dataDir,
			SyncMode:        sync,
			CheckpointEvery: *checkEvery,
			Layout:          *layout,
			SessionStrategy: *sessStrat,
		})
		if err != nil {
			log.Fatalf("lbsq-server: %v", err)
		}
		switch {
		case db.Sharded():
			log.Printf("serving %d points (%s) in %v on %s (%d %s shards)",
				db.Len(), name, universe, *addr, db.NumShards(), st)
		case *dataDir != "":
			log.Printf("serving %d points (%s) in %v on %s (durable in %s, sync=%s)",
				db.Len(), name, universe, *addr, *dataDir, sync)
		case *layout == lbsq.LayoutArena:
			log.Printf("serving %d points (%s) in %v on %s (arena layout)",
				db.Len(), name, universe, *addr)
		default:
			log.Printf("serving %d points (%s) in %v on %s", db.Len(), name, universe, *addr)
		}
	}

	mux := newMux(db.Handler(), *metrics, *pprofOn, *addr)
	if *join != "" {
		if *advertise == "" {
			log.Fatal("lbsq-server: -join requires -advertise (this node's reachable URL)")
		}
		go joinCluster(*join, *advertise)
	}
	serve(*addr, mux, db)
}

// newMux mounts a DB's or coordinator's handler at / under the
// operator's switches: metrics off masks /v1/metrics, and pprof on
// mounts net/http/pprof.
func newMux(h http.Handler, metrics, pprofOn bool, addr string) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/", h)
	if metrics {
		log.Printf("metrics at http://%s/v1/metrics", displayAddr(addr))
	} else {
		mux.HandleFunc("/v1/metrics", http.NotFound)
	}
	mountPprof(mux, pprofOn, addr)
	return mux
}

// serve answers on addr until SIGINT/SIGTERM, then drains in-flight
// requests and closes the facade — sealing a durable store so no
// acknowledged write is lost, or releasing a coordinator's node
// connections. There is no WriteTimeout: it would cut off the session
// long-poll, which may legitimately wait two minutes.
func serve(addr string, h http.Handler, facade io.Closer) {
	srv := &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: 10 * time.Second}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe() }()
	select {
	case err := <-done:
		log.Fatalf("lbsq-server: %v", err)
	case sig := <-stop:
		log.Printf("lbsq-server: %v: shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("lbsq-server: shutdown: %v", err)
		}
		cancel()
		if err := facade.Close(); err != nil {
			log.Fatalf("lbsq-server: closing: %v", err)
		}
	}
}

// loadDataset resolves the -load / -dataset / -n flags into items.
func loadDataset(load, kind string, n int, seed int64) ([]lbsq.Item, lbsq.Rect, string) {
	if load != "" {
		var d *dataset.Dataset
		var err error
		if strings.HasSuffix(load, ".csv") {
			f, ferr := os.Open(load)
			if ferr != nil {
				log.Fatalf("lbsq-server: %v", ferr)
			}
			d, err = dataset.LoadCSV(f, load, lbsq.Rect{})
			f.Close()
		} else {
			d, err = dataset.LoadFile(load)
		}
		if err != nil {
			log.Fatalf("lbsq-server: %v", err)
		}
		return d.Items, d.Universe, d.Name
	}
	var items []lbsq.Item
	var universe lbsq.Rect
	switch kind {
	case "uniform":
		items, universe = lbsq.UniformDataset(n, seed)
	case "gr":
		items, universe = lbsq.GRLikeDataset(n, seed)
	case "na":
		items, universe = lbsq.NALikeDataset(n, seed)
	default:
		fmt.Fprintf(os.Stderr, "lbsq-server: unknown dataset %q\n", kind)
		os.Exit(2)
	}
	return items, universe, kind
}

type coordinatorConfig struct {
	addr       string
	nodes      []string
	replicas   int
	partitions int
	placement  string
	hedgeAfter time.Duration
	opTimeout  time.Duration
	retries    int
	seed       bool
	n          int
	kind       string
	rngSeed    int64
	load       string
}

// openCoordinator connects to the data nodes, seeding them when asked,
// and returns the coordinator.
func openCoordinator(cfg coordinatorConfig) *lbsq.DistDB {
	pl, err := lbsq.ParseDistPlacement(cfg.placement)
	if err != nil {
		log.Fatalf("lbsq-server: %v", err)
	}
	for i := range cfg.nodes {
		cfg.nodes[i] = strings.TrimSpace(cfg.nodes[i])
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// The cluster universe: from the dataset when seeding, otherwise
	// from the first data node (they must all agree anyway).
	var items []lbsq.Item
	var universe lbsq.Rect
	if cfg.seed {
		items, universe, _ = loadDataset(cfg.load, cfg.kind, cfg.n, cfg.rngSeed)
	} else {
		_, u, err := lbsq.NewRemoteClient(cfg.nodes[0]).Info(ctx)
		if err != nil {
			log.Fatalf("lbsq-server: fetching universe from %s: %v", cfg.nodes[0], err)
		}
		universe = u
	}

	d, err := lbsq.OpenDistributed(ctx, lbsq.DistOptions{
		Nodes:      cfg.nodes,
		Replicas:   cfg.replicas,
		Universe:   universe,
		Partitions: cfg.partitions,
		Placement:  pl,
		HedgeAfter: cfg.hedgeAfter,
		OpTimeout:  cfg.opTimeout,
		Retries:    cfg.retries,
	})
	if err != nil {
		log.Fatalf("lbsq-server: %v", err)
	}
	if cfg.seed {
		if err := d.Seed(ctx, items); err != nil {
			log.Fatalf("lbsq-server: seeding cluster: %v", err)
		}
		log.Printf("seeded %d points across %d nodes", len(items), len(cfg.nodes))
	}
	log.Printf("coordinating %d nodes (%d groups × %d replicas, %s placement) in %v on %s",
		len(cfg.nodes), d.Coordinator().NumGroups(), cfg.replicas, pl, universe, cfg.addr)
	return d
}

// joinCluster asks a running coordinator to add this node as a replica.
// Retried briefly so a node can be started before its own listener is
// accepting (the coordinator verifies reachability during the join).
func joinCluster(coordinator, advertise string) {
	target := strings.TrimRight(coordinator, "/") +
		"/v1/cluster/join?addr=" + url.QueryEscape(advertise)
	var lastErr error
	for attempt := 0; attempt < 10; attempt++ {
		time.Sleep(time.Duration(attempt) * 500 * time.Millisecond)
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, target, nil)
		if err != nil {
			cancel()
			log.Fatalf("lbsq-server: join: %v", err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil && resp.StatusCode == http.StatusOK {
			resp.Body.Close()
			cancel()
			log.Printf("joined cluster at %s as %s", coordinator, advertise)
			return
		}
		if err != nil {
			lastErr = err
		} else {
			lastErr = fmt.Errorf("join returned %s", resp.Status)
			resp.Body.Close()
		}
		cancel()
	}
	log.Printf("lbsq-server: join failed: %v", lastErr)
}

// mountPprof mounts net/http/pprof when enabled.
func mountPprof(mux *http.ServeMux, on bool, addr string) {
	if !on {
		return
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	log.Printf("pprof at http://%s/debug/pprof/", displayAddr(addr))
}

// displayAddr renders a listen address as a dialable host:port: a
// bare ":8080" gets a localhost host, anything else is shown as-is.
func displayAddr(addr string) string {
	if strings.HasPrefix(addr, ":") {
		return "localhost" + addr
	}
	return addr
}
