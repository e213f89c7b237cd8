package shard

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"lbsq/internal/dataset"
	"lbsq/internal/geom"
	"lbsq/internal/rtree"
)

// TestClusterConcurrentQueriesAndUpdates hammers a cluster with mixed
// queries on several goroutines while writers insert and delete their
// own disjoint item ranges on other goroutines. Run under -race. At the
// end the item count must balance and every shard tree must satisfy its
// structural invariants.
func TestClusterConcurrentQueriesAndUpdates(t *testing.T) {
	d := dataset.Uniform(3000, 71)
	c, err := NewCluster(d.Items, d.Universe, Options{Shards: 4, Strategy: Grid, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	u := d.Universe
	ctx := context.Background()

	const (
		readers   = 6
		writers   = 2
		queries   = 60
		churn     = 120
		writeBase = int64(1) << 40
	)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			for i := 0; i < queries; i++ {
				q := geom.Pt(u.MinX+rng.Float64()*u.Width(), u.MinY+rng.Float64()*u.Height())
				switch i % 5 {
				case 0:
					if _, _, err := c.NNQuery(q, 1+i%8); err != nil {
						t.Error(err)
						return
					}
				case 1:
					c.WindowQueryAt(q, 0.03*u.Width(), 0.03*u.Height())
				case 2:
					c.RangeQuery(q, 0.02*u.Width())
				case 3:
					b := geom.Pt(u.MinX+rng.Float64()*u.Width(), u.MinY+rng.Float64()*u.Height())
					if _, err := c.RouteNNCtx(ctx, q, b); err != nil {
						t.Error(err)
						return
					}
				default:
					if _, err := c.KNearestCtx(ctx, q, 5); err != nil {
						t.Error(err)
						return
					}
					if _, err := c.CountWindowCtx(ctx, geom.RectCenteredAt(q, 0.1*u.Width(), 0.1*u.Height())); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	for g := 0; g < writers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(2000 + g)))
			for i := 0; i < churn; i++ {
				it := rtree.Item{
					ID: writeBase + int64(g)*churn + int64(i),
					P:  geom.Pt(u.MinX+rng.Float64()*u.Width(), u.MinY+rng.Float64()*u.Height()),
				}
				if err := c.Insert(it); err != nil {
					t.Error(err)
					return
				}
				if !c.Delete(it) {
					t.Errorf("inserted item %d not found on delete", it.ID)
					return
				}
			}
		}()
	}
	wg.Wait()

	if got := c.Len(); got != len(d.Items) {
		t.Fatalf("after balanced churn Len = %d, want %d", got, len(d.Items))
	}
	for i, s := range c.shards {
		if err := s.Srv.Tree.CheckInvariants(); err != nil {
			t.Fatalf("shard %d tree invariants: %v", i, err)
		}
	}
}
