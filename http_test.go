package lbsq

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHandlerRejectsNonFiniteParams: NaN and Inf coordinates must be a
// 400, not a query — non-finite values poison every distance comparison
// downstream.
func TestHandlerRejectsNonFiniteParams(t *testing.T) {
	items, uni := UniformDataset(500, 1)
	db, err := Open(items, uni, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(db.Handler())
	defer srv.Close()

	for _, tc := range []struct {
		name string
		path string
	}{
		{"nn-nan-x", "/v1/nn?x=NaN&y=0.5&k=1"},
		{"nn-inf-y", "/v1/nn?x=0.5&y=%2BInf&k=1"},
		{"nn-neg-inf", "/v1/nn?x=-Inf&y=0.5&k=1"},
		{"window-nan-focus", "/v1/window?x=nan&y=0.5&qx=0.1&qy=0.1"},
		{"window-inf-extent", "/v1/window?x=0.5&y=0.5&qx=Inf&qy=0.1"},
		{"range-nan-radius", "/v1/range?x=0.5&y=0.5&r=NaN"},
		{"range-inf-center", "/v1/range?x=Inf&y=0.5&r=0.1"},
		{"route-nan-endpoint", "/v1/route?x1=NaN&y1=0&x2=1&y2=1"},
		{"route-inf-endpoint", "/v1/route?x1=0&y1=0&x2=Inf&y2=1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Get(srv.URL + tc.path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("GET %s: status %d, want 400", tc.path, resp.StatusCode)
			}
		})
	}

	// Finite queries still work.
	resp, err := http.Get(srv.URL + "/v1/nn?x=0.5&y=0.5&k=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("finite query: status %d, want 200", resp.StatusCode)
	}
}

// TestConcurrentDeltaSessions runs many delta sessions in parallel
// (run with -race): each session's incremental responses must decode to
// the same answers the local DB gives, and sessions must not corrupt
// each other's received-item sets.
func TestConcurrentDeltaSessions(t *testing.T) {
	items, uni := UniformDataset(4000, 2)
	db, err := Open(items, uni, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(db.Handler())
	defer srv.Close()

	const sessions = 8
	const steps = 30
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			rc := NewRemoteClient(srv.URL, WithSession(fmt.Sprintf("sess-%d", s)))
			// Each session walks its own diagonal, with overlapping
			// positions across sessions so delta states would collide if
			// the store mixed sessions up.
			for i := 0; i < steps; i++ {
				q := Pt(0.1+0.8*float64(i)/steps, 0.1+0.8*float64((i+s)%steps)/steps)
				k := 1 + (i+s)%5
				got, err := rc.NN(context.Background(), q, k)
				if err != nil {
					errs <- err
					return
				}
				want, _, err := db.NN(context.Background(), q, k)
				if err != nil {
					errs <- err
					return
				}
				if len(got.Neighbors) != len(want.Neighbors) {
					errs <- fmt.Errorf("session %d: %d neighbors, want %d", s, len(got.Neighbors), len(want.Neighbors))
					return
				}
				for j := range want.Neighbors {
					if got.Neighbors[j].Item != want.Neighbors[j].Item {
						errs <- fmt.Errorf("session %d at %v: neighbor %d is %+v, want %+v",
							s, q, j, got.Neighbors[j].Item, want.Neighbors[j].Item)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestRemoteClientDefaultTimeout: a client built without options must
// not hang forever on a dead server — it gets a 10-second default
// timeout (http.DefaultClient has none), and WithHTTPClient still
// wins.
func TestRemoteClientDefaultTimeout(t *testing.T) {
	c := NewRemoteClient("http://example.invalid")
	hc := c.httpClient()
	if hc == http.DefaultClient {
		t.Fatal("RemoteClient without options uses http.DefaultClient (no timeout)")
	}
	if hc.Timeout != 10*time.Second {
		t.Fatalf("default timeout = %v, want 10s", hc.Timeout)
	}
	custom := &http.Client{Timeout: time.Minute}
	if NewRemoteClient("", WithHTTPClient(custom)).httpClient() != custom {
		t.Fatal("explicit HTTP client not honored")
	}
}

// TestInfoReportsShards: /v1/info exposes the shard count and per-shard
// stats for a sharded DB.
func TestInfoReportsShards(t *testing.T) {
	items, uni := UniformDataset(2000, 3)
	db, err := OpenSharded(items, uni, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(db.Handler())
	defer srv.Close()

	rc := &RemoteClient{Base: srv.URL}
	count, gotUni, err := rc.Info(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if count != 2000 || gotUni != uni {
		t.Fatalf("Info = (%d, %v), want (2000, %v)", count, gotUni, uni)
	}
	body, err := rc.do(context.Background(), http.MethodGet, "/v1/info", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"shards":4`, `"shard_stats"`, `"node_accesses"`} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/v1/info response missing %s: %s", want, body)
		}
	}
}
