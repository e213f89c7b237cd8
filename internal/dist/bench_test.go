package dist_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"lbsq/internal/geom"
)

// BenchmarkDistScatter measures one coordinator k-NN over three live
// HTTP nodes: ring lookup, candidate scatter, influence gathering, and
// the JSON round-trips. It is the end-to-end latency floor of the
// distributed read path on loopback.
func BenchmarkDistScatter(b *testing.B) {
	universe := geom.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	items := testItems(3000, 7, universe)
	addrs := startSeededNodes(b, items, universe, 3, 1)
	c := newCoordinator(b, addrs, universe, nil)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(42))
	qs := make([]geom.Point, 256)
	for i := range qs {
		qs[i] = randPoint(rng, universe)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.KNearest(ctx, qs[i%len(qs)], 4); err != nil {
			b.Fatalf("KNearest: %v", err)
		}
	}
}

// BenchmarkDistWindow measures one coordinator window query over three
// live HTTP nodes at the paper's three window areas (0.01 %, 0.1 % and
// 1 % of the universe), centered at fresh uniform points. At 0.01 %
// most windows are empty and take the empty-result path.
func BenchmarkDistWindow(b *testing.B) {
	universe := geom.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	items := testItems(3000, 7, universe)
	addrs := startSeededNodes(b, items, universe, 3, 1)
	c := newCoordinator(b, addrs, universe, nil)
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		side float64
	}{{"0.01%", 10}, {"0.1%", 1000 * math.Sqrt(0.001)}, {"1%", 100}} {
		b.Run(tc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(42))
			ws := make([]geom.Rect, 256)
			for i := range ws {
				ws[i] = geom.RectCenteredAt(randPoint(rng, universe), tc.side, tc.side)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := c.Window(ctx, ws[i%len(ws)]); err != nil {
					b.Fatalf("Window: %v", err)
				}
			}
		})
	}
}
