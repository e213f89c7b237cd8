package lbsq

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"lbsq/internal/core"
)

// TestCoordinatorFrontEnd serves DistDB.Handler over three loopback data
// nodes and checks it against a single DB over all items: the query
// endpoints decode to the same result sets, /v1/info counts every item,
// bad input is a 400 envelope, and an answer that loses only a stopped
// node's influence phase is served 200 with X-Lbsq-Degraded: true.
func TestCoordinatorFrontEnd(t *testing.T) {
	uni := R(0, 0, 600, 600)
	rng := rand.New(rand.NewSource(21))
	items := make([]Item, 90) // sparse: influence phases fan out widely
	for i := range items {
		items[i] = Item{ID: int64(i + 1), P: Pt(600*rng.Float64(), 600*rng.Float64())}
	}
	single, err := Open(items, uni, nil)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*httptest.Server, 3)
	addrs := make([]string, len(nodes))
	for i := range nodes {
		db, err := Open(nil, uni, nil)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = httptest.NewServer(db.Handler())
		defer nodes[i].Close()
		addrs[i] = nodes[i].URL
	}
	ctx := context.Background()
	d, err := OpenDistributed(ctx, DistOptions{
		Nodes: addrs, Universe: uni, Placement: DistPlacementSpatial, OpTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Seed(ctx, items); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	get := func(path string) (int, http.Header, []byte) { return fetch(t, srv.URL, path) }
	f := strconv.FormatFloat
	for i := 0; i < 12; i++ {
		q := Pt(600*rng.Float64(), 600*rng.Float64())
		xy := "x=" + f(q.X, 'g', -1, 64) + "&y=" + f(q.Y, 'g', -1, 64)

		_, _, body := get("/v1/nn?" + xy + "&k=3")
		gotNN, err := DecodeNN(body)
		if err != nil {
			t.Fatalf("nn at %v: %v (%s)", q, err, body)
		}
		wantNN, _, err := single.NN(ctx, q, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(neighborIDs(gotNN.Neighbors), neighborIDs(wantNN.Neighbors)) {
			t.Errorf("nn at %v: got %v, want %v", q, gotNN.Neighbors, wantNN.Neighbors)
		}

		_, _, body = get("/v1/window?" + xy + "&qx=150&qy=100")
		gotW, err := DecodeWindow(body, uni)
		if err != nil {
			t.Fatalf("window at %v: %v (%s)", q, err, body)
		}
		wantW, _, err := single.WindowAt(ctx, q, 150, 100)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sortedIDs(gotW.Result), sortedIDs(wantW.Result)) {
			t.Errorf("window at %v: got %v, want %v", q, gotW.Result, wantW.Result)
		}

		_, _, body = get("/v1/range?" + xy + "&r=50")
		gotR, err := DecodeRange(body)
		if err != nil {
			t.Fatalf("range at %v: %v (%s)", q, err, body)
		}
		wantR, _, err := single.Range(ctx, q, 50)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sortedIDs(gotR.Result), sortedIDs(wantR.Result)) {
			t.Errorf("range at %v: got %v, want %v", q, gotR.Result, wantR.Result)
		}

		b := Pt(600*rng.Float64(), 600*rng.Float64())
		_, _, body = get("/v1/route?x1=" + f(q.X, 'g', -1, 64) + "&y1=" + f(q.Y, 'g', -1, 64) +
			"&x2=" + f(b.X, 'g', -1, 64) + "&y2=" + f(b.Y, 'g', -1, 64))
		gotRoute, err := core.DecodeRoute(body)
		if err != nil {
			t.Fatalf("route %v→%v: %v (%s)", q, b, err, body)
		}
		wantRoute, err := single.RouteNN(ctx, q, b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(routeIDs(gotRoute), routeIDs(wantRoute)) {
			t.Errorf("route %v→%v: got %v, want %v", q, b, routeIDs(gotRoute), routeIDs(wantRoute))
		}
	}

	code, _, body := get("/v1/info")
	var info struct {
		Count int `json:"count"`
	}
	if code != http.StatusOK || json.Unmarshal(body, &info) != nil || info.Count != len(items) {
		t.Errorf("/v1/info: status %d body %s, want count %d", code, body, len(items))
	}
	code, _, body = get("/v1/metrics")
	if code != http.StatusOK || !strings.Contains(string(body), `lbsq_http_requests_total{code="200",path="/v1/nn"}`) {
		t.Errorf("/v1/metrics: status %d, no /v1/nn request count", code)
	}
	for _, p := range []string{"/v1/nn?x=bogus&y=1", "/v1/window?x=1&y=1&qx=0&qy=1", "/v1/range?x=1&y=1&r=-2"} {
		code, hdr, body := get(p)
		var env errorEnvelope
		if code != http.StatusBadRequest || hdr.Get("Content-Type") != "application/json" ||
			json.Unmarshal(body, &env) != nil || env.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d body %s, want the 400 envelope", p, code, body)
		}
	}

	// Stop one node. Queries whose result phase needs it fail; a query
	// that loses only its influence phase is answered — exactly, with
	// the shrunk region flagged by the degradation header.
	nodes[2].Close()
	degraded := 0
	for i := 0; i < 200 && degraded == 0; i++ {
		q := Pt(600*rng.Float64(), 600*rng.Float64())
		code, hdr, body := get("/v1/nn?x=" + f(q.X, 'g', -1, 64) + "&y=" + f(q.Y, 'g', -1, 64) + "&k=3")
		switch {
		case code == http.StatusUnprocessableEntity:
			continue // the stopped node owns part of the result
		case code != http.StatusOK:
			t.Fatalf("nn at %v with a stopped node: status %d", q, code)
		case hdr.Get("X-Lbsq-Degraded") != "true":
			continue // the stopped node was not contacted
		}
		degraded++
		got, err := DecodeNN(body)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := single.NN(ctx, q, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(neighborIDs(got.Neighbors), neighborIDs(want.Neighbors)) {
			t.Fatalf("degraded nn at %v changed the result: got %v, want %v", q, got.Neighbors, want.Neighbors)
		}
	}
	if degraded == 0 {
		t.Fatal("no NN query lost only the stopped node's influence phase")
	}
}

func neighborIDs(nbs []Neighbor) []int64 {
	ids := make([]int64, len(nbs))
	for i, nb := range nbs {
		ids[i] = nb.Item.ID
	}
	return ids
}

func sortedIDs(items []Item) []int64 {
	ids := make([]int64, len(items))
	for i, it := range items {
		ids[i] = it.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func routeIDs(ivs []RouteInterval) []int64 {
	ids := make([]int64, len(ivs))
	for i, iv := range ivs {
		ids[i] = iv.NN.ID
	}
	return ids
}
