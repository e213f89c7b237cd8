package lbsq

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// Durability tests: the WAL + checkpoint store behind Options.DataDir
// must recover exactly the acknowledged state — across clean restarts,
// checkpoint cycles, and a SIGKILL landing mid-write — with query
// results (DeepEqual) matching an in-memory oracle holding the same
// items.

// closeDB closes a DB at cleanup, failing the test on error.
func closeDB(t *testing.T, db *DB) {
	t.Helper()
	if err := db.Close(); err != nil {
		t.Errorf("closing DB: %v", err)
	}
}

// durableOp is one step of the deterministic mutation workload shared
// by the crash child (which applies and acks it) and the parent (which
// recomputes the expected state for any survived prefix).
type durableOp struct {
	insert bool
	it     Item
}

// genOps builds the deterministic workload: mostly inserts at
// rng-driven positions, with every fifth op deleting the item inserted
// four steps earlier.
func genOps(n int, seed int64) []durableOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]durableOp, n)
	for i := range ops {
		if i%5 == 4 {
			ops[i] = durableOp{insert: false, it: ops[i-4].it}
			continue
		}
		ops[i] = durableOp{insert: true, it: Item{
			ID: int64(1_000_000 + i),
			P:  Pt(rng.Float64(), rng.Float64()),
		}}
	}
	return ops
}

// applyOps replays ops[:m] onto db, failing on any error.
func applyOps(t *testing.T, db *DB, ops []durableOp) {
	t.Helper()
	for _, op := range ops {
		if op.insert {
			if err := db.Insert(op.it); err != nil {
				t.Fatal(err)
			}
		} else if ok, err := db.Delete(op.it); err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", op.it.ID, ok, err)
		}
	}
}

// sortedItems snapshots a DB's full item set, sorted by ID.
func sortedItems(t *testing.T, db *DB) []Item {
	t.Helper()
	items, err := db.RangeSearch(context.Background(), db.Universe())
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(items, func(i, j int) bool { return items[i].ID < items[j].ID })
	return items
}

// assertQueryParity asserts that got answers queries identically to the
// oracle: window enumerations and k-NN results must DeepEqual, NN
// validity neighbors must DeepEqual with regions of equal area that
// agree on probe-point validity. (Full region structs are not compared:
// influence discovery order is traversal-dependent, so vertex order may
// differ between two trees holding the same points.)
func assertQueryParity(t *testing.T, got, oracle *DB) {
	t.Helper()
	ctx := context.Background()
	if got.Len() != oracle.Len() {
		t.Fatalf("Len = %d, oracle %d", got.Len(), oracle.Len())
	}
	if !reflect.DeepEqual(sortedItems(t, got), sortedItems(t, oracle)) {
		t.Fatal("item sets differ from oracle")
	}
	rng := rand.New(rand.NewSource(77))
	uni := oracle.Universe()
	at := func() Point {
		return Pt(uni.MinX+rng.Float64()*(uni.MaxX-uni.MinX),
			uni.MinY+rng.Float64()*(uni.MaxY-uni.MinY))
	}
	for trial := 0; trial < 25; trial++ {
		q := at()

		w := R(math.Min(q.X, uni.MaxX-0.1), math.Min(q.Y, uni.MaxY-0.1),
			math.Min(q.X, uni.MaxX-0.1)+0.1, math.Min(q.Y, uni.MaxY-0.1)+0.1)
		a, err := got.RangeSearch(ctx, w)
		if err != nil {
			t.Fatal(err)
		}
		b, err := oracle.RangeSearch(ctx, w)
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(a, func(i, j int) bool { return a[i].ID < a[j].ID })
		sort.Slice(b, func(i, j int) bool { return b[i].ID < b[j].ID })
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("window %v: enumeration differs from oracle", w)
		}

		k := 1 + trial%3
		na, err := got.KNearest(ctx, q, k)
		if err != nil {
			t.Fatal(err)
		}
		nb, err := oracle.KNearest(ctx, q, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(na, nb) {
			t.Fatalf("%d-NN at %v differs from oracle", k, q)
		}

		va, _, err := got.NN(ctx, q, k)
		if err != nil {
			t.Fatal(err)
		}
		vb, _, err := oracle.NN(ctx, q, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(va.Neighbors, vb.Neighbors) {
			t.Fatalf("NN neighbors at %v differ from oracle", q)
		}
		areaA, areaB := va.Region.Area(), vb.Region.Area()
		if math.Abs(areaA-areaB) > 1e-9*math.Max(1, math.Max(areaA, areaB)) {
			t.Fatalf("NN region areas at %v: %g vs oracle %g", q, areaA, areaB)
		}
		for probe := 0; probe < 8; probe++ {
			p := at()
			if va.Valid(p) != vb.Valid(p) {
				t.Fatalf("NN validity at probe %v disagrees with oracle", p)
			}
		}
	}
}

func TestDurableOpenDirParity(t *testing.T) {
	dir := t.TempDir()
	items, uni := UniformDataset(500, 11)
	db, err := Open(items, uni, &Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ops := genOps(120, 12)
	applyOps(t, db, ops)
	if st, ok := db.StorageStats(); !ok || st.WALRecords != 120 {
		t.Fatalf("StorageStats: ok=%v records=%d, want 120", ok, st.WALRecords)
	}

	// A second store cannot be created over a live one.
	if _, err := Open(items, uni, &Options{DataDir: dir}); err == nil {
		t.Fatal("Open over an existing store must error")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("second Close: %v (want idempotent nil)", err)
	}
	if !StoreExists(dir) {
		t.Fatal("StoreExists is false for a written store")
	}

	re, err := OpenDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer closeDB(t, re)
	if st, ok := re.StorageStats(); !ok || st.RecoveredRecords != 120 {
		t.Fatalf("recovery stats: ok=%v replayed=%d, want 120", ok, st.RecoveredRecords)
	}

	oracle, err := Open(items, uni, nil)
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, oracle, ops)
	assertQueryParity(t, re, oracle)

	// The recovered DB keeps accepting durable writes.
	if err := re.Insert(Item{ID: 42_000_000, P: Pt(0.5, 0.5)}); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenDir(t.TempDir(), nil); err == nil {
		t.Fatal("OpenDir on an empty directory must error")
	}
	if _, err := Open(items, uni, &Options{DataDir: dir, Shards: 4}); err == nil {
		t.Fatal("DataDir with Shards > 1 must be rejected")
	}
	if _, err := Open(items, uni, &Options{SyncMode: "sometimes"}); err == nil {
		t.Fatal("unknown sync mode must be rejected")
	}
}

func TestDurableCheckpointBoundsWAL(t *testing.T) {
	dir := t.TempDir()
	items, uni := UniformDataset(400, 21)
	const every = 64
	db, err := Open(items, uni, &Options{DataDir: dir, CheckpointEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	ops := genOps(10*every, 22)
	applyOps(t, db, ops)

	st, _ := db.StorageStats()
	if st.Checkpoints < 9 {
		t.Fatalf("only %d automatic checkpoints after %d ops (every %d)", st.Checkpoints, len(ops), every)
	}
	if st.Generation < 10 {
		t.Errorf("generation %d, want ≥ 10 after %d checkpoints", st.Generation, st.Checkpoints)
	}
	// The WAL is bounded by the checkpoint interval, not total writes.
	if maxBytes := int64((every + 1) * 33); st.WALSizeBytes > maxBytes+64 {
		t.Errorf("WAL size %d bytes after checkpoints, want ≤ ~%d", st.WALSizeBytes, maxBytes)
	}
	if st.SinceCheckpoint >= every {
		t.Errorf("SinceCheckpoint %d never reset (every=%d)", st.SinceCheckpoint, every)
	}

	// Manual checkpoint drains the remainder.
	if err := db.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st, _ = db.StorageStats(); st.SinceCheckpoint != 0 {
		t.Errorf("SinceCheckpoint %d after manual checkpoint", st.SinceCheckpoint)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay over the latest checkpoint still yields the oracle state.
	re, err := OpenDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer closeDB(t, re)
	oracle, err := Open(items, uni, nil)
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, oracle, ops)
	assertQueryParity(t, re, oracle)

	// In-memory DBs refuse persistence calls.
	if err := oracle.Checkpoint(context.Background()); err == nil {
		t.Fatal("Checkpoint on an in-memory DB must return ErrNotDurable")
	}
	if err := oracle.Close(); err != nil {
		t.Fatalf("Close on an in-memory DB: %v (want nil)", err)
	}
}

// Crash-child knobs: the test re-execs its own binary with
// LBSQ_CRASH_DIR set; the child builds a durable DB and applies the
// deterministic workload, acking each op on stdout, until the parent
// SIGKILLs it mid-stream.
const (
	crashDirEnv   = "LBSQ_CRASH_DIR"
	crashSeedN    = 200
	crashOps      = 400
	crashDataSeed = 31
	crashOpsSeed  = 32
	crashEvery    = 32
)

// crashChild is the subprocess body; it never returns (the parent kills
// it, or it exits 0 after finishing every op).
func crashChild(dir string) {
	items, uni := UniformDataset(crashSeedN, crashDataSeed)
	db, err := Open(items, uni, &Options{DataDir: dir, SyncMode: SyncAlways, CheckpointEvery: crashEvery})
	if err != nil {
		fmt.Printf("child-error %v\n", err)
		os.Exit(1)
	}
	out := bufio.NewWriter(os.Stdout)
	fmt.Fprintln(out, "ready")
	out.Flush()
	for i, op := range genOps(crashOps, crashOpsSeed) {
		if op.insert {
			err = db.Insert(op.it)
		} else {
			_, err = db.Delete(op.it)
		}
		if err != nil {
			fmt.Fprintf(out, "child-error op %d: %v\n", i, err)
			out.Flush()
			os.Exit(1)
		}
		// The ack is printed only after the write is fsynced (SyncAlways
		// commit), so every acked op must survive the kill.
		fmt.Fprintf(out, "ack %d\n", i)
		out.Flush()
	}
	os.Exit(0)
}

func TestCrashRecoveryKillMidWrite(t *testing.T) {
	if dir := os.Getenv(crashDirEnv); dir != "" {
		crashChild(dir)
		return
	}
	if testing.Short() {
		t.Skip("subprocess crash harness skipped in -short")
	}
	items, uni := UniformDataset(crashSeedN, crashDataSeed)
	ops := genOps(crashOps, crashOpsSeed)

	// Kill points: right after startup, mid-WAL, and past several
	// automatic checkpoints (crashEvery=32), so kills land both between
	// records and around checkpoint swaps.
	for _, killAfter := range []int{5, 37, 103} {
		t.Run(fmt.Sprintf("killAfter=%d", killAfter), func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(os.Args[0], "-test.run=^TestCrashRecoveryKillMidWrite$")
			cmd.Env = append(os.Environ(), crashDirEnv+"="+dir)
			stdout, err := cmd.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			acks := 0
			sc := bufio.NewScanner(stdout)
			for sc.Scan() {
				line := sc.Text()
				if line == "ready" {
					continue
				}
				var i int
				if _, err := fmt.Sscanf(line, "ack %d", &i); err != nil {
					t.Fatalf("child said %q", line)
				}
				acks = i + 1
				if acks >= killAfter {
					break
				}
			}
			if err := cmd.Process.Kill(); err != nil {
				t.Fatal(err)
			}
			_ = cmd.Wait() // the kill's exit error is expected

			re, err := OpenDir(dir, nil)
			if err != nil {
				t.Fatalf("recovery after SIGKILL at %d acks: %v", acks, err)
			}
			defer closeDB(t, re)

			// The recovered state must be some prefix of the workload at
			// least as long as the acked prefix: group commit may have made
			// a later record durable before its ack was printed, but no
			// acked write may be missing and no half-applied state may
			// appear.
			recovered := sortedItems(t, re)
			m := -1
			oracle, err := Open(items, uni, nil)
			if err != nil {
				t.Fatal(err)
			}
			for n := 0; n <= len(ops); n++ {
				if n > 0 {
					applyOps(t, oracle, ops[n-1:n])
				}
				if n < acks {
					continue
				}
				if reflect.DeepEqual(recovered, sortedItems(t, oracle)) {
					m = n
					break
				}
			}
			if m < 0 {
				t.Fatalf("recovered state (%d items) matches no workload prefix ≥ %d acks", len(recovered), acks)
			}
			t.Logf("killed after %d acks; recovered prefix %d of %d ops", acks, m, len(ops))
			assertQueryParity(t, re, oracle)
		})
	}
}

func TestAdminEndpoints(t *testing.T) {
	items, uni := UniformDataset(300, 41)
	db, err := Open(items, uni, &Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer closeDB(t, db)
	srv := httptest.NewServer(db.Handler())
	defer srv.Close()

	applyOps(t, db, genOps(50, 42))

	getJSON := func(method, path string, wantCode int) map[string]any {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("%s %s = %d, want %d", method, path, resp.StatusCode, wantCode)
		}
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatalf("%s %s: bad JSON: %v", method, path, err)
		}
		return m
	}

	st := getJSON(http.MethodGet, "/v1/admin/storage", http.StatusOK)
	if st["wal_records"].(float64) != 50 || st["generation"].(float64) != 1 {
		t.Fatalf("storage stats = %v", st)
	}

	cp := getJSON(http.MethodPost, "/v1/admin/checkpoint", http.StatusOK)
	if cp["generation"].(float64) != 2 || cp["since_checkpoint"].(float64) != 0 {
		t.Fatalf("checkpoint response = %v", cp)
	}

	// Wrong method on the admin surface is a 405 from the method mux.
	resp, err := http.Get(srv.URL + "/v1/admin/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET checkpoint = %d, want 405", resp.StatusCode)
	}

	// Storage metrics are exported.
	resp, err = http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"lbsq_storage_wal_records_total", "lbsq_storage_generation",
		"lbsq_storage_checkpoints_total", "lbsq_storage_wal_size_bytes",
	} {
		if !strings.Contains(string(body), name) {
			t.Errorf("metrics exposition lacks %s", name)
		}
	}

	// An in-memory DB answers the admin surface with 409.
	mem, err := Open(items, uni, nil)
	if err != nil {
		t.Fatal(err)
	}
	memSrv := httptest.NewServer(mem.Handler())
	defer memSrv.Close()
	req, err := http.NewRequest(http.MethodPost, memSrv.URL+"/v1/admin/checkpoint", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var envlp struct {
		Error string `json:"error"`
		Code  int    `json:"code"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envlp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || envlp.Code != http.StatusConflict {
		t.Fatalf("checkpoint on in-memory DB = %d (envelope %d), want 409", resp.StatusCode, envlp.Code)
	}
}
