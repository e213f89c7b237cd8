package rtree

import (
	"math"
	"sort"

	"lbsq/internal/geom"
)

// Insert adds an item to the tree.
func (t *Tree) Insert(it Item) {
	t.reinsertedLevels = make(map[int]bool)
	t.insertItem(it)
	t.size++
}

// insertItem places a data item at the leaf level, handling overflow.
func (t *Tree) insertItem(it Item) {
	leaf := t.chooseSubtree(geom.Rect{MinX: it.P.X, MinY: it.P.Y, MaxX: it.P.X, MaxY: it.P.Y}, 0)
	leaf.items = append(leaf.items, it)
	t.adjustUpward(leaf)
	if len(leaf.items) > t.maxM {
		t.overflow(leaf)
	}
}

// insertNode places a subtree at the given level (used by reinsertion and
// condense-tree).
func (t *Tree) insertNode(n *Node) {
	if t.root.level <= n.level {
		// Degenerate during condense; grow the tree by splitting logic is
		// not needed — the caller guarantees n.level < root.level except
		// when the root itself shrank, handled in Delete.
		panic("rtree: insertNode at or above root level")
	}
	parent := t.chooseSubtree(n.rect, n.level+1)
	n.parent = parent
	parent.children = append(parent.children, n)
	t.adjustUpward(parent)
	if len(parent.children) > t.maxM {
		t.overflow(parent)
	}
}

// chooseSubtree descends from the root to the node at targetLevel whose
// entry needs the least enlargement to accommodate r. Following the
// R*-tree, at the level just above the leaves the criterion is minimum
// overlap enlargement (ties by area enlargement, then area); higher up it
// is minimum area enlargement (ties by area).
func (t *Tree) chooseSubtree(r geom.Rect, targetLevel int) *Node {
	n := t.root
	for n.level > targetLevel {
		if n.level == 1 {
			n = leastOverlapChooser(n, r)
		} else {
			n = chooseLeastAreaEnlargement(n, r)
		}
	}
	return n
}

func chooseLeastAreaEnlargement(n *Node, r geom.Rect) *Node {
	var best *Node
	bestEnl, bestArea := math.Inf(1), math.Inf(1)
	for _, c := range n.children {
		enl := c.rect.Enlargement(r)
		area := c.rect.Area()
		// Exact tie comparison against the running minimum (copied from
		// the same computation, so bit-equal on real ties).
		if enl < bestEnl || (geom.ExactEq(enl, bestEnl) && area < bestArea) {
			best, bestEnl, bestArea = c, enl, area
		}
	}
	return best
}

// leastOverlapChooser is the level-1 chooser. It is a variable only so
// the equivalence test can build a tree with its reference copy.
var leastOverlapChooser = chooseLeastOverlapEnlargement

// chooseLeastOverlapEnlargement picks the child whose growth to cover r
// adds the least overlap with its siblings. A sibling that does not
// meet the grown rectangle meets neither it nor the child (grown ⊇
// child), so its overlap term is exactly 0 − 0 and is skipped: the sum,
// and so the choice, is the same as summing over every sibling.
func chooseLeastOverlapEnlargement(n *Node, r geom.Rect) *Node {
	var best *Node
	bestOv, bestEnl, bestArea := math.Inf(1), math.Inf(1), math.Inf(1)
	for _, c := range n.children {
		grown := c.rect.Union(r)
		ov := 0.0
		for _, o := range n.children {
			if o == c || !grown.Intersects(o.rect) {
				continue
			}
			ov += grown.Overlap(o.rect) - c.rect.Overlap(o.rect)
		}
		enl := c.rect.Enlargement(r)
		area := c.rect.Area()
		if ov < bestOv ||
			(geom.ExactEq(ov, bestOv) && enl < bestEnl) ||
			(geom.ExactEq(ov, bestOv) && geom.ExactEq(enl, bestEnl) && area < bestArea) {
			best, bestOv, bestEnl, bestArea = c, ov, enl, area
		}
	}
	return best
}

// adjustUpward refreshes MBRs from n to the root.
func (t *Tree) adjustUpward(n *Node) {
	for n != nil {
		n.recomputeRect()
		n = n.parent
	}
}

// overflow applies the R*-tree overflow treatment to node n: forced
// reinsertion the first time a level overflows during one insertion,
// node split otherwise. Splits may propagate upward.
func (t *Tree) overflow(n *Node) {
	for n != nil && n.fanout() > t.maxM {
		if n.parent != nil && t.reinsertedLevels != nil && !t.reinsertedLevels[n.level] {
			t.reinsertedLevels[n.level] = true
			t.forcedReinsert(n)
			return // reinsertion recursions handle any further overflow
		}
		t.splitNode(n)
		n = n.parent
	}
}

// forcedReinsert removes the ReinsertRatio fraction of entries farthest
// from the node-MBR center and reinserts them (far entries first — the
// "close reinsert" variant inserts near ones first; the original paper
// found far-first slightly better for points).
func (t *Tree) forcedReinsert(n *Node) {
	center := n.rect.Center()
	if n.leaf {
		sort.Slice(n.items, func(i, j int) bool {
			return n.items[i].P.Dist2(center) < n.items[j].P.Dist2(center)
		})
		cut := len(n.items) - t.reinsert
		removed := append([]Item(nil), n.items[cut:]...)
		n.items = n.items[:cut]
		t.adjustUpward(n)
		for _, it := range removed {
			t.insertItem(it)
		}
		return
	}
	sort.Slice(n.children, func(i, j int) bool {
		return n.children[i].rect.Center().Dist2(center) < n.children[j].rect.Center().Dist2(center)
	})
	cut := len(n.children) - t.reinsert
	removed := append([]*Node(nil), n.children[cut:]...)
	n.children = n.children[:cut]
	t.adjustUpward(n)
	for _, c := range removed {
		t.insertNode(c)
	}
}

// splitNode splits an overfull node using the R* topological split and
// attaches the new sibling to the parent (growing a new root if needed).
func (t *Tree) splitNode(n *Node) {
	sibling := t.newNode(n.leaf, n.level)
	if n.leaf {
		left, right := splitItems(n.items, t.minM)
		n.items, sibling.items = left, right
	} else {
		left, right := splitChildren(n.children, t.minM)
		n.children, sibling.children = left, right
		for _, c := range sibling.children {
			c.parent = sibling
		}
	}
	n.recomputeRect()
	sibling.recomputeRect()

	if n.parent == nil {
		newRoot := t.newNode(false, n.level+1)
		newRoot.children = []*Node{n, sibling}
		n.parent, sibling.parent = newRoot, newRoot
		newRoot.recomputeRect()
		t.root = newRoot
		return
	}
	sibling.parent = n.parent
	n.parent.children = append(n.parent.children, sibling)
	t.adjustUpward(n.parent)
}
