package main

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"lbsq"
)

// TestMetricsSwitch: -metrics=false masks /v1/metrics on the mux both
// server modes serve; with metrics on it is answered.
func TestMetricsSwitch(t *testing.T) {
	items, uni := lbsq.UniformDataset(100, 1)
	db, err := lbsq.Open(items, uni, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		metrics bool
		want    int
	}{{false, http.StatusNotFound}, {true, http.StatusOK}} {
		rec := httptest.NewRecorder()
		newMux(db.Handler(), tc.metrics, false, ":0").ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
		if rec.Code != tc.want {
			t.Errorf("metrics=%v: GET /v1/metrics = %d, want %d", tc.metrics, rec.Code, tc.want)
		}
	}
}
