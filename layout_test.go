package lbsq

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// TestLayoutValidation table-drives Options.Layout acceptance: known
// layouts open, unknown ones fail with ErrUnknownLayout, and the arena
// layout refuses sharding.
func TestLayoutValidation(t *testing.T) {
	items, uni := UniformDataset(500, 3)
	cases := []struct {
		name    string
		opts    Options
		wantErr error
	}{
		{"default", Options{}, nil},
		{"pointer", Options{Layout: LayoutPointer}, nil},
		{"arena", Options{Layout: LayoutArena}, nil},
		{"unknown", Options{Layout: "slab"}, ErrUnknownLayout},
		{"case-sensitive", Options{Layout: "Arena"}, ErrUnknownLayout},
		{"arena-sharded", Options{Layout: LayoutArena, Shards: 4}, ErrShardedUnsupported},
		{"pointer-sharded", Options{Layout: LayoutPointer, Shards: 4}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db, err := Open(items, uni, &tc.opts)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("Open err = %v, want %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			wantArena := tc.opts.Layout == LayoutArena
			if db.server != nil && db.server.UsingArena() != wantArena {
				t.Fatalf("UsingArena = %v, want %v", db.server.UsingArena(), wantArena)
			}
		})
	}
}

// TestLayoutEquivalence opens the same dataset under both layouts
// (buffered, so page faults are modelled too) and asserts every public
// query returns identical answers with identical QueryCost — the
// contract that makes Layout a pure performance switch.
func TestLayoutEquivalence(t *testing.T) {
	items, uni := UniformDataset(4000, 17)
	open := func(layout string) *DB {
		db, err := Open(items, uni, &Options{Layout: layout, BufferFraction: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	ptr, arn := open(LayoutPointer), open(LayoutArena)
	ctx := context.Background()
	for trial := 0; trial < 25; trial++ {
		q := Pt(0.04*float64(trial)+0.01, 1-0.039*float64(trial))
		w := R(0.2, 0.3, 0.2+0.02*float64(trial), 0.3+0.025*float64(trial))

		v1, c1, err1 := ptr.NN(ctx, q, 3)
		v2, c2, err2 := arn.NN(ctx, q, 3)
		if err1 != nil || err2 != nil {
			t.Fatalf("NN: %v / %v", err1, err2)
		}
		if !reflect.DeepEqual(v1, v2) || c1 != c2 {
			t.Fatalf("NN(%v): results or costs differ: %+v vs %+v", q, c1, c2)
		}

		w1, cw1, ew1 := ptr.Window(ctx, w)
		w2, cw2, ew2 := arn.Window(ctx, w)
		if ew1 != nil || ew2 != nil {
			t.Fatalf("Window: %v / %v", ew1, ew2)
		}
		if !reflect.DeepEqual(w1, w2) || cw1 != cw2 {
			t.Fatalf("Window(%v): results or costs differ: %+v vs %+v", w, cw1, cw2)
		}

		r1, cr1, er1 := ptr.Range(ctx, q, 0.07)
		r2, cr2, er2 := arn.Range(ctx, q, 0.07)
		if er1 != nil || er2 != nil {
			t.Fatalf("Range: %v / %v", er1, er2)
		}
		if !reflect.DeepEqual(r1, r2) || cr1 != cr2 {
			t.Fatalf("Range(%v): results or costs differ: %+v vs %+v", q, cr1, cr2)
		}

		n1, en1 := ptr.Count(ctx, w)
		n2, en2 := arn.Count(ctx, w)
		if en1 != nil || en2 != nil {
			t.Fatalf("Count: %v / %v", en1, en2)
		}
		if n1 != n2 {
			t.Fatalf("Count(%v): %d vs %d", w, n1, n2)
		}
		s1, es1 := ptr.RangeSearch(ctx, w)
		s2, es2 := arn.RangeSearch(ctx, w)
		if es1 != nil || es2 != nil {
			t.Fatalf("RangeSearch: %v / %v", es1, es2)
		}
		if !reflect.DeepEqual(s1, s2) {
			t.Fatalf("RangeSearch(%v) differs", w)
		}
		k1, ek1 := ptr.KNearest(ctx, q, 5)
		k2, ek2 := arn.KNearest(ctx, q, 5)
		if ek1 != nil || ek2 != nil {
			t.Fatalf("KNearest: %v / %v", ek1, ek2)
		}
		if !reflect.DeepEqual(k1, k2) {
			t.Fatalf("KNearest(%v) differs", q)
		}
	}
	route1, err1 := ptr.RouteNN(ctx, Pt(0.1, 0.1), Pt(0.9, 0.8))
	route2, err2 := arn.RouteNN(ctx, Pt(0.1, 0.1), Pt(0.9, 0.8))
	if err1 != nil || err2 != nil {
		t.Fatalf("RouteNN: %v / %v", err1, err2)
	}
	if !reflect.DeepEqual(route1, route2) {
		t.Fatal("RouteNN differs across layouts")
	}
}

// TestArenaRefreshOnWrite verifies mutations re-freeze the arena: after
// Insert/Delete the arena read path serves the updated dataset.
func TestArenaRefreshOnWrite(t *testing.T) {
	items, uni := UniformDataset(300, 5)
	db, err := Open(items, uni, &Options{Layout: LayoutArena})
	if err != nil {
		t.Fatal(err)
	}
	if !db.server.UsingArena() {
		t.Fatal("arena layout not active")
	}
	ctx := context.Background()
	extra := Item{ID: 10_000, P: Pt(0.123, 0.456)}
	if err := db.Insert(extra); err != nil {
		t.Fatal(err)
	}
	if !db.server.UsingArena() {
		t.Fatal("arena layout lost after Insert")
	}
	if db.Len() != 301 {
		t.Fatalf("Len = %d, want 301", db.Len())
	}
	nbs, err := db.KNearest(ctx, extra.P, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(nbs) != 1 || nbs[0].Item.ID != extra.ID {
		t.Fatalf("nearest after insert = %v, want item %d", nbs, extra.ID)
	}
	ok, err := db.Delete(extra)
	if err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if db.Len() != 300 {
		t.Fatalf("Len after delete = %d, want 300", db.Len())
	}
	nbs, err = db.KNearest(ctx, extra.P, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(nbs) == 1 && nbs[0].Item.ID == extra.ID {
		t.Fatal("deleted item still served by arena read path")
	}
}
