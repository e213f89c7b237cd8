package lbsq

import (
	"context"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"lbsq/internal/core"
)

func TestRangeViaFacade(t *testing.T) {
	items, uni := UniformDataset(5000, 1)
	db, err := Open(items, uni, nil)
	if err != nil {
		t.Fatal(err)
	}
	rv, cost, err := db.Range(context.Background(), Pt(0.5, 0.5), 0.05)
	if err != nil {
		t.Fatalf("Range: %v", err)
	}
	if cost.Total() == 0 {
		t.Fatal("range query cost missing")
	}
	// Brute check the result.
	want := 0
	for _, it := range items {
		if it.P.Dist(Pt(0.5, 0.5)) <= 0.05 {
			want++
		}
	}
	if len(rv.Result) != want {
		t.Fatalf("range result %d, want %d", len(rv.Result), want)
	}
	if !rv.Valid(Pt(0.5, 0.5)) {
		t.Fatal("center must be valid")
	}
	if rv.SafeDistance(Pt(0.5, 0.5)) <= 0 {
		t.Fatal("expected positive safe distance")
	}
	// Wire round trip via facade.
	got, err := DecodeRange(EncodeRange(rv))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Result) != len(rv.Result) {
		t.Fatal("facade wire round trip mangled")
	}
	// Client.
	rc := db.NewRangeClient(0.05)
	if _, err := rc.At(Pt(0.5, 0.5)); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.At(Pt(0.5001, 0.5)); err != nil {
		t.Fatal(err)
	}
	if rc.Stats.CacheHits != 1 {
		t.Fatalf("expected one cache hit, got %+v", rc.Stats)
	}
}

func TestRouteNNViaFacade(t *testing.T) {
	items, uni := UniformDataset(3000, 2)
	db, err := Open(items, uni, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, b := Pt(0.1, 0.5), Pt(0.9, 0.5)
	route, err := db.RouteNN(context.Background(), a, b)
	if err != nil {
		t.Fatalf("RouteNN: %v", err)
	}
	if len(route) < 5 {
		t.Fatalf("route has only %d intervals", len(route))
	}
	// Every interval's NN matches a plain NN query at its midpoint.
	u := b.Sub(a).Unit()
	for _, iv := range route {
		mid := a.Add(u.Scale((iv.From + iv.To) / 2))
		nbs, err := db.KNearest(context.Background(), mid, 1)
		if err != nil {
			t.Fatal(err)
		}
		nb := nbs[0]
		if nb.Item.ID != iv.NN.ID && math.Abs(nb.Dist-iv.NN.P.Dist(mid)) > 1e-9 {
			t.Fatalf("interval [%v,%v]: route says %d, NN query says %d",
				iv.From, iv.To, iv.NN.ID, nb.Item.ID)
		}
	}
	// Lookup helper.
	iv, ok := RouteNNAt(route, 0.3)
	if !ok || iv.From > 0.3 || iv.To < 0.3 {
		t.Fatalf("RouteNNAt returned %v", iv)
	}
}

func TestDeltaClientsViaFacade(t *testing.T) {
	items, uni := UniformDataset(4000, 3)
	db, err := Open(items, uni, nil)
	if err != nil {
		t.Fatal(err)
	}
	wc := db.NewWindowClient(0.06, 0.06)
	wc.Delta = true
	nc := db.NewNNClient(5)
	nc.Delta = true
	rng := rand.New(rand.NewSource(4))
	p := Pt(0.5, 0.5)
	for i := 0; i < 200; i++ {
		p = Pt(p.X+rng.NormFloat64()*0.002, p.Y+rng.NormFloat64()*0.002)
		if p.X < 0.1 || p.X > 0.9 || p.Y < 0.1 || p.Y > 0.9 {
			p = Pt(0.5, 0.5)
		}
		if _, err := wc.At(p); err != nil {
			t.Fatal(err)
		}
		if _, err := nc.At(p); err != nil {
			t.Fatal(err)
		}
	}
	if wc.Stats.BytesReceived == 0 || nc.Stats.BytesReceived == 0 {
		t.Fatal("no traffic recorded")
	}
}

func TestHTTPRange(t *testing.T) {
	items, uni := UniformDataset(2000, 5)
	db, _ := Open(items, uni, nil)
	srv := httptest.NewServer(db.Handler())
	defer srv.Close()
	rc := &RemoteClient{Base: srv.URL}
	rv, err := rc.Range(context.Background(), Pt(0.5, 0.5), 0.08)
	if err != nil {
		t.Fatal(err)
	}
	local, _, err := db.Range(context.Background(), Pt(0.5, 0.5), 0.08)
	if err != nil {
		t.Fatal(err)
	}
	if len(rv.Result) != len(local.Result) {
		t.Fatalf("remote range result differs: %d vs %d", len(rv.Result), len(local.Result))
	}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 100; i++ {
		f := Pt(rng.Float64(), rng.Float64())
		if rv.Valid(f) != local.Valid(f) {
			t.Fatalf("remote range validity differs at %v", f)
		}
	}
	if _, err := rc.Range(context.Background(), Pt(0.5, 0.5), -1); err == nil {
		t.Fatal("negative radius must error")
	}
}

func TestHTTPDeltaSessionAndRoute(t *testing.T) {
	items, uni := UniformDataset(3000, 9)
	db, _ := Open(items, uni, nil)
	srv := httptest.NewServer(db.Handler())
	defer srv.Close()

	// Delta session: repeated nearby queries shrink on the wire but
	// decode to the same answers as plain queries.
	plain := &RemoteClient{Base: srv.URL}
	delta := NewRemoteClient(srv.URL, WithSession("client-1"))
	var plainBytes, deltaBytes int
	for i := 0; i < 10; i++ {
		q := Pt(0.5+float64(i)*0.0004, 0.5)
		a, err := plain.NN(context.Background(), q, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := delta.NN(context.Background(), q, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Neighbors) != len(b.Neighbors) {
			t.Fatal("delta session answer differs")
		}
		for j := range a.Neighbors {
			if a.Neighbors[j].Item.ID != b.Neighbors[j].Item.ID {
				t.Fatal("delta session neighbor mismatch")
			}
		}
		plainBytes += len(EncodeNN(a))
		deltaBytes += len(core.EncodeNNDelta(b, func(int64) bool { return false }))
	}
	// Direct wire measurement: ask the server once more each way.
	respPlain, _ := http.Get(srv.URL + "/v1/nn?x=0.5&y=0.5&k=3")
	bodyPlain, _ := io.ReadAll(respPlain.Body)
	respPlain.Body.Close()
	respDelta, _ := http.Get(srv.URL + "/v1/nn?x=0.5&y=0.5&k=3&session=client-1")
	bodyDelta, _ := io.ReadAll(respDelta.Body)
	respDelta.Body.Close()
	if len(bodyDelta) >= len(bodyPlain) {
		t.Fatalf("session delta response (%d B) not smaller than plain (%d B)",
			len(bodyDelta), len(bodyPlain))
	}

	// Route endpoint.
	route, err := plain.RouteNN(context.Background(), Pt(0.1, 0.5), Pt(0.9, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	local, err := db.RouteNN(context.Background(), Pt(0.1, 0.5), Pt(0.9, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if len(route) != len(local) {
		t.Fatalf("remote route %d intervals, local %d", len(route), len(local))
	}
	for i := range route {
		if route[i].NN.ID != local[i].NN.ID {
			t.Fatal("remote route interval mismatch")
		}
	}
	if _, err := plain.RouteNN(context.Background(), Pt(0.1, 0.5), Pt(0.1, 0.5)); err != nil {
		t.Fatal(err)
	}
}
