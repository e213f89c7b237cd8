package lbsq

import (
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
)

var fuzzHTTPOnce struct {
	sync.Once
	handler http.Handler
}

func fuzzHandler() http.Handler {
	fuzzHTTPOnce.Do(func() {
		items, uni := UniformDataset(300, 7)
		db, err := Open(items, uni, nil)
		if err != nil {
			panic(err)
		}
		fuzzHTTPOnce.handler = db.Handler()
	})
	return fuzzHTTPOnce.handler
}

// FuzzHTTPParams feeds arbitrary request targets through the HTTP
// parameter parsers and the full handler chain. The server must never
// panic and never convert bad input into a 500; parseFloat must reject
// every non-finite value (NaN/±Inf poison the distance comparisons
// downstream), and parsePoint must only succeed on finite coordinates.
func FuzzHTTPParams(f *testing.F) {
	f.Add("/v1/nn", "x=0.4&y=0.6&k=2")
	f.Add("/v1/window", "x=0.5&y=0.5&qx=0.05&qy=0.05")
	f.Add("/v1/range", "x=0.5&y=0.5&r=0.05")
	f.Add("/v1/route", "x1=0.1&y1=0.1&x2=0.9&y2=0.9")
	f.Add("/v1/nn", "x=NaN&y=Inf&k=1")
	f.Add("/v1/nn", "x=1e400&y=0&k=-1")
	f.Add("/v1/count", "minx=0&miny=0&maxx=2&maxy=2")
	f.Add("/v1/metrics", "")
	f.Fuzz(func(t *testing.T, path, query string) {
		if len(path) > 64 || len(query) > 256 {
			t.Skip("oversized input")
		}
		if !strings.HasPrefix(path, "/") {
			path = "/" + path
		}
		target := path
		if query != "" {
			target += "?" + query
		}
		u, err := url.ParseRequestURI(target)
		if err != nil {
			t.Skip("not a valid request target")
		}
		req := &http.Request{
			Method:     http.MethodGet,
			URL:        u,
			Proto:      "HTTP/1.1",
			ProtoMajor: 1,
			ProtoMinor: 1,
			Header:     http.Header{},
			Host:       "fuzz.local",
			RemoteAddr: "127.0.0.1:1",
		}

		// Parser-level properties.
		if v, err := parseFloat(req, "x"); err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
			t.Fatalf("parseFloat accepted non-finite %v", v)
		}
		if p, err := parsePoint(req); err == nil {
			if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
				t.Fatalf("parsePoint accepted non-finite %v", p)
			}
		}
		if _, err := parseInt(req, "k", 1); err != nil && req.URL.Query().Get("k") == "" {
			t.Fatal("parseInt must not fail on an absent parameter")
		}

		// End-to-end: the handler chain must map every input to a
		// client-error status at worst.
		rec := httptest.NewRecorder()
		fuzzHandler().ServeHTTP(rec, req)
		if rec.Code == http.StatusInternalServerError {
			t.Fatalf("request %q produced a 500: %s", target, rec.Body.String())
		}
	})
}
