package rtree_test

import (
	"math"
	"math/rand"
	"testing"

	"lbsq/internal/geom"
	"lbsq/internal/rtree"
	"lbsq/internal/rtree/arena"
)

// chooserWorkload is a deterministic insert/delete sequence: uniform
// points, points on a coarse lattice (equal enlargements and overlaps,
// so the chooser's tie-breaks matter) and exact duplicates, with one
// delete per ten inserts so condensing reinserts subtrees too.
func chooserWorkload(seed int64, n int) (ins []rtree.Item, del map[int]rtree.Item) {
	rng := rand.New(rand.NewSource(seed))
	del = make(map[int]rtree.Item)
	for i := 0; i < n; i++ {
		p := geom.Pt(rng.Float64(), rng.Float64())
		switch r := rng.Intn(10); {
		case r == 0:
			p = geom.Pt(math.Round(p.X*16)/16, math.Round(p.Y*16)/16)
		case r == 1 && i > 0:
			p = ins[rng.Intn(i)].P
		}
		ins = append(ins, rtree.Item{ID: int64(i), P: p})
		if i%10 == 9 {
			del[i] = ins[rng.Intn(i)]
		}
	}
	return ins, del
}

func buildByInsertion(pageSize int, ins []rtree.Item, del map[int]rtree.Item) *rtree.Tree {
	t := rtree.New(rtree.Options{PageSize: pageSize})
	for i, it := range ins {
		t.Insert(it)
		if d, ok := del[i]; ok {
			t.Delete(d)
		}
	}
	return t
}

// TestChooserMatchesReference builds the same tree twice by insertion,
// once with the reference copy of the level-1 chooser, and requires the
// two to freeze to the same arena, slab for slab: page, rectangle,
// level, subtree count, child rectangles and pages, and leaf items.
func TestChooserMatchesReference(t *testing.T) {
	cases := []struct{ pageSize, n int }{{256, 20_000}, {4096, 12_000}}
	if testing.Short() {
		cases = []struct{ pageSize, n int }{{256, 4_000}, {4096, 3_000}}
	}
	for _, c := range cases {
		ins, del := chooserWorkload(int64(c.pageSize), c.n)
		got := arena.Freeze(buildByInsertion(c.pageSize, ins, del))
		restore := rtree.UseReferenceChooser()
		want := arena.Freeze(buildByInsertion(c.pageSize, ins, del))
		restore()
		if got.NumSlabs() != want.NumSlabs() || got.Len() != want.Len() || got.Height() != want.Height() {
			t.Fatalf("page %d: %d slabs, %d items, height %d; reference %d, %d, %d", c.pageSize,
				got.NumSlabs(), got.Len(), got.Height(), want.NumSlabs(), want.Len(), want.Height())
		}
		for i := int32(0); i < int32(got.NumSlabs()); i++ {
			gs, ws := got.SlabAt(i), want.SlabAt(i)
			if gs != ws {
				t.Fatalf("page %d: slab %d = %+v, reference %+v", c.pageSize, i, gs, ws)
			}
			ref := rtree.NodeRef{I: i}
			for e := 0; e < int(gs.Count); e++ {
				if gs.Leaf {
					if g, w := got.RefItem(ref, e), want.RefItem(ref, e); g != w {
						t.Fatalf("page %d: slab %d item %d = %v, reference %v", c.pageSize, i, e, g, w)
					}
					continue
				}
				gr, wr := got.RefChildRect(ref, e), want.RefChildRect(ref, e)
				gp, wp := got.PageOf(got.RefChild(ref, e)), want.PageOf(want.RefChild(ref, e))
				if gr != wr || gp != wp {
					t.Fatalf("page %d: slab %d child %d = %v page %d, reference %v page %d", c.pageSize, i, e, gr, gp, wr, wp)
				}
			}
		}
	}
}
