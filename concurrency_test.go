package lbsq

import (
	"context"
	"math/rand"
	"sync"
	"testing"
)

// TestConcurrentQueries exercises parallel location-based queries of
// every kind against a shared DB (run with -race to verify the
// synchronization claims in the DB doc comment).
func TestConcurrentQueries(t *testing.T) {
	items, uni := UniformDataset(20000, 1)
	db, err := Open(items, uni, &Options{BufferFraction: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				p := Pt(rng.Float64(), rng.Float64())
				switch i % 4 {
				case 0:
					if _, _, err := db.NN(context.Background(), p, 1+rng.Intn(5)); err != nil {
						errs <- err
						return
					}
				case 1:
					if _, _, err := db.WindowAt(context.Background(), p, 0.03, 0.03); err != nil {
						errs <- err
						return
					}
				case 2:
					if _, _, err := db.Range(context.Background(), p, 0.02); err != nil {
						errs <- err
						return
					}
				case 3:
					if _, err := db.KNearest(context.Background(), p, 3); err != nil {
						errs <- err
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentQueriesWithUpdates interleaves queries with inserts and
// deletes; results must stay consistent with the brute-force truth of
// whatever snapshot the query observed (here we only assert no crashes,
// invariant validity, and final count).
func TestConcurrentQueriesWithUpdates(t *testing.T) {
	items, uni := UniformDataset(10000, 2)
	db, err := Open(items, uni, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	// Readers.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 100; i++ {
				p := Pt(rng.Float64(), rng.Float64())
				got, err := db.KNearest(context.Background(), p, 2)
				if err != nil {
					t.Error(err)
					return
				}
				if len(got) < 2 {
					t.Errorf("KNearest returned %d", len(got))
					return
				}
			}
		}(int64(w))
	}
	// One writer inserting and deleting its own ids.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 200; i++ {
			it := Item{ID: int64(1_000_000 + i), P: Pt(rng.Float64(), rng.Float64())}
			if err := db.Insert(it); err != nil {
				t.Error(err)
				return
			}
			if i%2 == 0 {
				if ok, err := db.Delete(it); err != nil || !ok {
					t.Errorf("delete of just-inserted item failed: ok=%v err=%v", ok, err)
					return
				}
			}
		}
	}()
	wg.Wait()
	want := 10000 + 100 // 200 inserted, 100 deleted
	if db.Len() != want {
		t.Fatalf("final count %d, want %d", db.Len(), want)
	}
	if err := db.Server().Tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMobileClientsDuringWrites moves the NN, window and range mobile
// clients while another goroutine inserts and deletes points (run with
// -race: the clients must query the tree under the DB's read lock).
func TestMobileClientsDuringWrites(t *testing.T) {
	items, uni := UniformDataset(2000, 3)
	db, err := Open(items, uni, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	writerErr := make(chan error, 1)
	go func() {
		defer close(writerErr)
		rng := rand.New(rand.NewSource(4))
		for id := int64(1 << 40); ; id++ {
			select {
			case <-done:
				return
			default:
			}
			it := Item{ID: id, P: Pt(rng.Float64(), rng.Float64())}
			if err := db.Insert(it); err != nil {
				writerErr <- err
				return
			}
			if id%2 == 0 {
				if _, err := db.Delete(it); err != nil {
					writerErr <- err
					return
				}
			}
		}
	}()
	nnc, wc, rc := db.NewNNClient(3), db.NewWindowClient(0.05, 0.05), db.NewRangeClient(0.03)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		p := Pt(rng.Float64(), rng.Float64())
		if _, err := nnc.At(p); err != nil {
			t.Fatal(err)
		}
		if _, err := wc.At(p); err != nil {
			t.Fatal(err)
		}
		if _, err := rc.At(p); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	if err := <-writerErr; err != nil {
		t.Fatal(err)
	}
}

// TestBaselineClientsDuringWrites builds the ZL01 diagram and runs
// the SR01, TP02, naive and ZL01 baseline clients while another
// goroutine deletes and re-inserts stored points (run with -race: every
// baseline read of the tree must hold the DB's read lock). The writes
// keep the set of sites, so the ZL01 diagram stays complete.
func TestBaselineClientsDuringWrites(t *testing.T) {
	items, uni := UniformDataset(2000, 6)
	db, err := Open(items, uni, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	writerErr := make(chan error, 1)
	go func() {
		defer close(writerErr)
		rng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-done:
				return
			default:
			}
			it := items[rng.Intn(len(items))]
			if _, err := db.Delete(it); err != nil {
				writerErr <- err
				return
			}
			if err := db.Insert(it); err != nil {
				writerErr <- err
				return
			}
		}
	}()
	sr, err := db.NewSR01Client(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	tpc, err := db.NewTP02Client(3)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := db.NewNaiveClient(3)
	if err != nil {
		t.Fatal(err)
	}
	zl, err := db.NewZL01Client(0.01)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 200; i++ {
		p := Pt(rng.Float64(), rng.Float64())
		if _, err := sr.At(p); err != nil {
			t.Fatal(err)
		}
		if _, err := tpc.At(p, Pt(1, 0)); err != nil {
			t.Fatal(err)
		}
		if _, err := naive.At(p); err != nil {
			t.Fatal(err)
		}
		if _, err := zl.At(p, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	if err := <-writerErr; err != nil {
		t.Fatal(err)
	}
}
