package lbsq

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"lbsq/internal/core"
)

// fetch GETs path and returns status, headers and body.
func fetch(t *testing.T, base, path string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, resp.Header, body
}

// TestV1PayloadsMatchLocalAPI locks the wire contract: every /v1
// query payload is byte-identical to the Encode* form of the local
// API's answer, and /v1/info reports the local count and universe.
func TestV1PayloadsMatchLocalAPI(t *testing.T) {
	items, uni := UniformDataset(3000, 11)
	db, err := Open(items, uni, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(db.Handler())
	defer srv.Close()
	ctx := context.Background()

	nn, _, err := db.NN(ctx, Pt(0.4, 0.6), 3)
	if err != nil {
		t.Fatal(err)
	}
	wv, _, err := db.WindowAt(ctx, Pt(0.5, 0.5), 0.05, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	rv, _, err := db.Range(ctx, Pt(0.3, 0.7), 0.04)
	if err != nil {
		t.Fatal(err)
	}
	route, err := db.RouteNN(ctx, Pt(0.1, 0.5), Pt(0.2, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path string
		want []byte
	}{
		{"/v1/nn?x=0.4&y=0.6&k=3", EncodeNN(nn)},
		{"/v1/window?x=0.5&y=0.5&qx=0.05&qy=0.05", EncodeWindow(wv)},
		{"/v1/range?x=0.3&y=0.7&r=0.04", EncodeRange(rv)},
		{"/v1/route?x1=0.1&y1=0.5&x2=0.2&y2=0.5", core.EncodeRoute(route)},
	} {
		code, hdr, body := fetch(t, srv.URL, tc.path)
		if ct := hdr.Get("Content-Type"); code != http.StatusOK || ct != "application/octet-stream" {
			t.Fatalf("%s: status %d, content type %q", tc.path, code, ct)
		}
		if !bytes.Equal(body, tc.want) {
			t.Errorf("%s: payload differs from the local answer's encoding (%d vs %d bytes)",
				tc.path, len(body), len(tc.want))
		}
	}

	code, hdr, body := fetch(t, srv.URL, "/v1/info")
	var info struct {
		Count    int        `json:"count"`
		Universe [4]float64 `json:"universe"`
	}
	if ct := hdr.Get("Content-Type"); code != http.StatusOK || ct != "application/json" || json.Unmarshal(body, &info) != nil {
		t.Fatalf("/v1/info: status %d, content type %q, body %q", code, ct, body)
	}
	if info.Count != db.Len() || info.Universe != [4]float64{uni.MinX, uni.MinY, uni.MaxX, uni.MaxY} {
		t.Errorf("/v1/info = %+v, want count %d universe %v", info, db.Len(), uni)
	}
}

// TestUnversionedPathsGone: the query surface lives under /v1 only.
func TestUnversionedPathsGone(t *testing.T) {
	items, uni := UniformDataset(200, 12)
	db, err := Open(items, uni, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(db.Handler())
	defer srv.Close()
	for _, p := range []string{
		"/nn?x=0.5&y=0.5&k=1", "/window?x=0.5&y=0.5&qx=0.1&qy=0.1", "/range?x=0.5&y=0.5&r=0.1",
		"/route?x1=0&y1=0&x2=1&y2=1", "/info", "/metrics",
	} {
		if code, _, _ := fetch(t, srv.URL, p); code != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", p, code)
		}
	}
	resp, err := http.Post(srv.URL+"/batch", "application/json", strings.NewReader(`{"requests":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /batch: status %d, want 404", resp.StatusCode)
	}
}

// TestV1ErrorEnvelope locks the error contract: errors are the uniform
// JSON envelope {"error": ..., "code": ...} on every endpoint.
func TestV1ErrorEnvelope(t *testing.T) {
	items, uni := UniformDataset(500, 12)
	db, err := Open(items, uni, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(db.Handler())
	defer srv.Close()

	cases := []struct {
		path string
		code int
	}{
		{"/v1/nn?x=0.5&y=0.5&k=0", http.StatusBadRequest}, // bad k
		{"/v1/nn?x=bogus&y=0.5", http.StatusBadRequest},   // bad coordinate
		{"/v1/window?x=0.5&y=0.5&qx=-1&qy=0.1", http.StatusBadRequest},
		{"/v1/range?x=0.5&y=0.5&r=0", http.StatusBadRequest},
		{"/v1/nn?x=0.5&y=0.5&k=100000", http.StatusUnprocessableEntity}, // k > n
	}
	for _, tc := range cases {
		code, hdr, body := fetch(t, srv.URL, tc.path)
		if code != tc.code {
			t.Errorf("%s: status %d, want %d", tc.path, code, tc.code)
		}
		if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Errorf("%s: content type %q, want JSON envelope", tc.path, ct)
		}
		var env struct {
			Error string `json:"error"`
			Code  int    `json:"code"`
		}
		if err := json.Unmarshal(body, &env); err != nil || env.Error == "" || env.Code != tc.code {
			t.Errorf("%s: body %q is not the error envelope (err=%v)", tc.path, body, err)
		}
	}
}

// TestBatchHTTPRoundTrip drives a heterogeneous batch through POST
// /v1/batch via RemoteClient.Batch and checks every answer against
// the corresponding local single-query API.
func TestBatchHTTPRoundTrip(t *testing.T) {
	items, uni := UniformDataset(4000, 13)
	db, err := Open(items, uni, &Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(db.Handler())
	defer srv.Close()

	rc := NewRemoteClient(srv.URL)
	if _, _, err := rc.Info(context.Background()); err != nil {
		t.Fatal(err)
	}

	w := R(0.4, 0.4, 0.5, 0.52)
	reqs := []BatchRequest{
		{Op: BatchNN, Q: Pt(0.4, 0.6), K: 2},
		{Op: BatchKNN, Q: Pt(0.2, 0.2), K: 5},
		{Op: BatchWindow, W: w},
		{Op: BatchRange, Q: Pt(0.5, 0.5), Radius: 0.03},
		{Op: BatchCount, W: w},
		{Op: BatchSearch, W: w},
		{Op: BatchNN, Q: Pt(0.4, 0.6), K: 0}, // per-request error
	}
	ctx := context.Background()
	got, err := rc.Batch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("got %d responses, want %d", len(got), len(reqs))
	}

	ids := func(items []Item) []int64 {
		out := make([]int64, len(items))
		for i, it := range items {
			out[i] = it.ID
		}
		return out
	}
	v, _, err := db.NN(ctx, Pt(0.4, 0.6), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids(got[0].NN.Result()), ids(v.Result())) {
		t.Error("batch NN answer differs from local NN")
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		p := Pt(rng.Float64(), rng.Float64())
		if got[0].NN.Valid(p) != v.Valid(p) {
			t.Fatalf("batch NN validity differs at %v", p)
		}
	}
	nbs, err := db.KNearest(ctx, Pt(0.2, 0.2), 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[1].Neighbors, nbs) {
		t.Error("batch kNN answer differs from local KNearest")
	}
	wv, _, err := db.Window(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids(got[2].Window.Result), ids(wv.Result)) {
		t.Error("batch window result differs from local Window")
	}
	rv, _, err := db.Range(ctx, Pt(0.5, 0.5), 0.03)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids(got[3].Range.Result), ids(rv.Result)) {
		t.Error("batch range result differs from local Range")
	}
	count, err := db.Count(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if got[4].Count != count {
		t.Errorf("batch count %d, want %d", got[4].Count, count)
	}
	its, err := db.RangeSearch(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[5].Items, its) {
		t.Error("batch search items differ from local RangeSearch")
	}
	if got[6].Err == nil {
		t.Error("k=0 NN request did not carry a per-request error")
	}
}

// TestBatchHTTPRejects locks the batch endpoint's client-error paths.
func TestBatchHTTPRejects(t *testing.T) {
	items, uni := UniformDataset(500, 14)
	db, err := Open(items, uni, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(db.Handler())
	defer srv.Close()

	post := func(body string) (int, []byte) {
		resp, err := http.Post(srv.URL+"/v1/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}
	if code, body := post(`{"requests":[{"op":"teleport"}]}`); code != http.StatusBadRequest ||
		!strings.Contains(string(body), "unknown op") {
		t.Errorf("unknown op: got %d %q", code, body)
	}
	if code, _ := post(`{"requests":`); code != http.StatusBadRequest {
		t.Errorf("truncated body: got %d, want 400", code)
	}
	resp, err := http.Get(srv.URL + "/v1/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/batch: got %d, want 405", resp.StatusCode)
	}
}

// TestOversizedBodyRejected: a batch or session body over maxWireBody
// is cut off while it is read and answered 413 in the error envelope,
// and the server goes on serving.
func TestOversizedBodyRejected(t *testing.T) {
	items, uni := UniformDataset(500, 16)
	db, err := Open(items, uni, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(db.Handler())
	defer srv.Close()

	post := func(path, body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}
	const req = `{"op":"nn","x":0.5,"y":0.5,"k":1},`
	huge := `{"requests":[` + strings.Repeat(req, maxWireBody/len(req)+1) + `{"op":"nn"}]}`
	for _, path := range []string{"/v1/batch", "/v1/session"} {
		code, body := post(path, huge)
		var env errorEnvelope
		if code != http.StatusRequestEntityTooLarge || json.Unmarshal(body, &env) != nil ||
			env.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("oversized POST %s: got %d %q, want the 413 envelope", path, code, body)
		}
	}
	if code, body := post("/v1/batch", `{"requests":[`+strings.TrimSuffix(req, ",")+`]}`); code != http.StatusOK {
		t.Errorf("batch after an oversized one: got %d %q", code, body)
	}
}

// TestRemoteClientOptions exercises the functional options: base
// headers ride on every request, and WithTimeout bounds it.
func TestRemoteClientOptions(t *testing.T) {
	items, uni := UniformDataset(500, 15)
	db, err := Open(items, uni, nil)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var seen []string
	wrapped := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.Header.Get("X-Auth"))
		mu.Unlock()
		db.Handler().ServeHTTP(w, r)
	})
	srv := httptest.NewServer(wrapped)
	defer srv.Close()

	rc := NewRemoteClient(srv.URL,
		WithTimeout(5*time.Second),
		WithBaseHeader("X-Auth", "token-1"))
	if rc.httpClient().Timeout != 5*time.Second {
		t.Errorf("WithTimeout: client timeout %v, want 5s", rc.httpClient().Timeout)
	}
	ctx := context.Background()
	if _, _, err := rc.Info(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.NN(ctx, Pt(0.5, 0.5), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Batch(ctx, []BatchRequest{{Op: BatchCount, W: uni}}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 3 {
		t.Fatalf("saw %d requests, want 3", len(seen))
	}
	for i, h := range seen {
		if h != "token-1" {
			t.Errorf("request %d: X-Auth %q, want token-1 (WithBaseHeader)", i, h)
		}
	}
}

// TestCacheUnderConcurrentMutation hammers a cached DB with concurrent
// Insert/Delete and Batch traffic (run under -race), then quiesces the
// writers and checks that every subsequent cache hit matches a fresh
// uncached answer and that its region contains the query point.
func TestCacheUnderConcurrentMutation(t *testing.T) {
	for _, shards := range []int{0, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			items, uni := UniformDataset(3000, 16)
			db, err := Open(items, uni, &Options{Shards: shards, CacheSize: 512})
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			queries := make([]Point, 32)
			rng := rand.New(rand.NewSource(99))
			for i := range queries {
				queries[i] = Pt(rng.Float64(), rng.Float64())
			}
			// Phase 1: readers and writers race. Hits served mid-mutation
			// must still be geometrically self-consistent: the region
			// proves its own answer at the query point.
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					wrng := rand.New(rand.NewSource(seed))
					id := int64(1_000_000 + seed*10_000)
					for {
						select {
						case <-stop:
							return
						default:
						}
						it := Item{ID: id, P: Pt(wrng.Float64(), wrng.Float64())}
						if err := db.Insert(it); err != nil {
							t.Error(err)
							return
						}
						if _, err := db.Delete(it); err != nil {
							t.Error(err)
							return
						}
						id++
					}
				}(int64(g + 1))
			}
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					brng := rand.New(rand.NewSource(seed))
					for i := 0; i < 40; i++ {
						reqs := make([]BatchRequest, 6)
						for j := range reqs {
							reqs[j] = BatchRequest{
								Op: BatchNN, Q: queries[brng.Intn(len(queries))], K: 1 + j%3,
							}
						}
						resps, err := db.Batch(ctx, reqs)
						if err != nil {
							t.Error(err)
							return
						}
						for j, resp := range resps {
							if resp.Err != nil {
								t.Errorf("request %d: %v", j, resp.Err)
								return
							}
							if resp.CacheHit && !resp.NN.Valid(reqs[j].Q) {
								t.Errorf("hit region does not contain its query point %v", reqs[j].Q)
								return
							}
						}
					}
				}(int64(100 + g))
			}
			time.Sleep(50 * time.Millisecond)
			close(stop)
			wg.Wait()
			if t.Failed() {
				return
			}

			// Phase 2: writers quiesced. A sentinel mutation empties the
			// cache, so the first query is the fresh, uncached ground
			// truth; the second must hit and be identical.
			for i, q := range queries {
				sentinel := Item{ID: int64(9_000_000 + i), P: Pt(0.5, 0.5)}
				if err := db.Insert(sentinel); err != nil {
					t.Fatal(err)
				}
				if _, err := db.Delete(sentinel); err != nil {
					t.Fatal(err)
				}
				k := 1 + i%3
				fresh, err := db.Batch(ctx, []BatchRequest{{Op: BatchNN, Q: q, K: k}})
				if err != nil {
					t.Fatal(err)
				}
				again, err := db.Batch(ctx, []BatchRequest{{Op: BatchNN, Q: q, K: k}})
				if err != nil {
					t.Fatal(err)
				}
				hit := again[0]
				if !hit.CacheHit {
					t.Fatalf("query %v k=%d: no cache hit after quiescing", q, k)
				}
				if !hit.NN.Valid(q) {
					t.Errorf("query %v: hit region does not contain the query point", q)
				}
				if !reflect.DeepEqual(hit.NN, fresh[0].NN) {
					t.Errorf("query %v k=%d: cache hit differs from fresh uncached answer", q, k)
				}
				if hit.Cost.Total() != 0 {
					t.Errorf("query %v: cache hit cost %d node accesses, want 0", q, hit.Cost.Total())
				}
			}
		})
	}
}
