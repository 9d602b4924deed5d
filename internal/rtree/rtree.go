package rtree

import (
	"fmt"
	"math"
	"sort"
)

const (
	defaultMaxEntries = 32
	// reinsertFraction of entries is evicted and reinserted on the first
	// overflow of each level per insertion (the R* "forced reinsert").
	reinsertFraction = 0.3
)

// Item is a leaf payload: an opaque integer key chosen by the caller
// (typically an index into a parallel slice).
type Item int

type entry struct {
	box   Box
	child *node // nil at leaves
	item  Item  // valid at leaves
}

type node struct {
	level   int // 0 = leaf
	entries []entry
}

func (n *node) isLeaf() bool { return n.level == 0 }

func (n *node) bbox() Box {
	b := n.entries[0].box
	for _, e := range n.entries[1:] {
		b = b.Union(e.box)
	}
	return b
}

// Tree is an R*-tree mapping 3D boxes to Items. The zero value is not
// usable; call New. Tree is not safe for concurrent mutation; concurrent
// readers are fine once built.
type Tree struct {
	root       *node
	size       int
	maxEntries int
	minEntries int
}

// New returns an empty tree with the given node capacity; cap < 4 falls
// back to the default.
func New(capacity int) *Tree {
	if capacity < 4 {
		capacity = defaultMaxEntries
	}
	return &Tree{
		root:       &node{level: 0},
		maxEntries: capacity,
		minEntries: capacity * 2 / 5, // 40%, the R* recommendation
	}
}

// Len returns the number of stored items.
func (t *Tree) Len() int { return t.size }

// Insert adds item with bounding box b.
func (t *Tree) Insert(b Box, item Item) {
	t.insertEntry(entry{box: b, item: item}, 0, make(map[int]bool))
	t.size++
}

// insertEntry places e at the given level, applying R* overflow treatment.
// reinserted tracks which levels already used forced reinsert during the
// current (possibly recursive) insertion.
func (t *Tree) insertEntry(e entry, level int, reinserted map[int]bool) {
	n := t.chooseSubtree(e.box, level)
	n.entries = append(n.entries, e)
	t.overflowTreatment(n, reinserted)
}

// chooseSubtree descends from the root to the node at the target level
// using the R* criteria: least overlap enlargement for nodes pointing to
// leaves, least volume enlargement otherwise.
func (t *Tree) chooseSubtree(b Box, level int) *node {
	n := t.root
	for n.level > level {
		var best *entry
		if n.level == 1 {
			// Children are leaves: minimize overlap enlargement.
			bestOverlap, bestEnl, bestVol := inf, inf, inf
			for i := range n.entries {
				c := &n.entries[i]
				u := c.box.Union(b)
				overlap := 0.0
				for j := range n.entries {
					if j == i {
						continue
					}
					overlap += u.OverlapVolume(n.entries[j].box) - c.box.OverlapVolume(n.entries[j].box)
				}
				enl := c.box.Enlargement(b)
				vol := c.box.Volume()
				if overlap < bestOverlap ||
					(overlap == bestOverlap && (enl < bestEnl ||
						(enl == bestEnl && vol < bestVol))) {
					best, bestOverlap, bestEnl, bestVol = c, overlap, enl, vol
				}
			}
		} else {
			bestEnl, bestVol := inf, inf
			for i := range n.entries {
				c := &n.entries[i]
				enl := c.box.Enlargement(b)
				vol := c.box.Volume()
				if enl < bestEnl || (enl == bestEnl && vol < bestVol) {
					best, bestEnl, bestVol = c, enl, vol
				}
			}
		}
		best.box = best.box.Union(b)
		n = best.child
	}
	return n
}

// overflowTreatment resolves an overfull node by forced reinsert (once per
// level per insertion) or split, propagating splits upward.
func (t *Tree) overflowTreatment(n *node, reinserted map[int]bool) {
	if len(n.entries) <= t.maxEntries {
		return
	}
	if n != t.root && !reinserted[n.level] {
		reinserted[n.level] = true
		t.reinsert(n, reinserted)
		return
	}
	left, right := t.split(n)
	if n == t.root {
		t.root = &node{
			level: n.level + 1,
			entries: []entry{
				{box: left.bbox(), child: left},
				{box: right.bbox(), child: right},
			},
		}
		return
	}
	// Replace n's content with left and register right at the parent.
	parent, idx := t.findParent(t.root, n)
	if parent == nil {
		panic("rtree: orphan node during split")
	}
	*n = *left
	parent.entries[idx].box = n.bbox()
	parent.entries = append(parent.entries, entry{box: right.bbox(), child: right})
	t.overflowTreatment(parent, reinserted)
}

// reinsert evicts the reinsertFraction of n's entries farthest from its
// center and reinserts them from the top (R* forced reinsert).
func (t *Tree) reinsert(n *node, reinserted map[int]bool) {
	c := n.bbox().Center()
	sort.SliceStable(n.entries, func(i, j int) bool {
		return centerDist2(n.entries[i].box.Center(), c) < centerDist2(n.entries[j].box.Center(), c)
	})
	k := int(float64(len(n.entries)) * reinsertFraction)
	if k < 1 {
		k = 1
	}
	evicted := make([]entry, k)
	copy(evicted, n.entries[len(n.entries)-k:])
	n.entries = n.entries[:len(n.entries)-k]
	t.adjustUpward(n)
	for _, e := range evicted {
		t.insertEntry(e, n.level, reinserted)
	}
}

// split divides an overfull node using the R* topological split: choose the
// axis with minimal margin sum, then the distribution with minimal overlap
// (ties: minimal volume).
func (t *Tree) split(n *node) (*node, *node) {
	entries := n.entries
	m := t.minEntries
	bestAxis, bestSortMax := -1, false
	bestMargin := inf
	for axis := 0; axis < Dims; axis++ {
		for _, byMax := range []bool{false, true} {
			sortEntries(entries, axis, byMax)
			margin := 0.0
			for k := m; k <= len(entries)-m; k++ {
				margin += bboxOf(entries[:k]).Margin() + bboxOf(entries[k:]).Margin()
			}
			if margin < bestMargin {
				bestMargin, bestAxis, bestSortMax = margin, axis, byMax
			}
		}
	}
	sortEntries(entries, bestAxis, bestSortMax)
	bestK, bestOverlap, bestVol := -1, inf, inf
	for k := m; k <= len(entries)-m; k++ {
		lb, rb := bboxOf(entries[:k]), bboxOf(entries[k:])
		overlap := lb.OverlapVolume(rb)
		vol := lb.Volume() + rb.Volume()
		if overlap < bestOverlap || (overlap == bestOverlap && vol < bestVol) {
			bestK, bestOverlap, bestVol = k, overlap, vol
		}
	}
	left := &node{level: n.level, entries: append([]entry(nil), entries[:bestK]...)}
	right := &node{level: n.level, entries: append([]entry(nil), entries[bestK:]...)}
	return left, right
}

func sortEntries(es []entry, axis int, byMax bool) {
	sort.SliceStable(es, func(i, j int) bool {
		if byMax {
			return es[i].box.Max[axis] < es[j].box.Max[axis]
		}
		return es[i].box.Min[axis] < es[j].box.Min[axis]
	})
}

func bboxOf(es []entry) Box {
	b := es[0].box
	for _, e := range es[1:] {
		b = b.Union(e.box)
	}
	return b
}

// findParent locates the parent of target and the index of target's entry.
func (t *Tree) findParent(cur *node, target *node) (*node, int) {
	if cur.isLeaf() {
		return nil, -1
	}
	for i := range cur.entries {
		c := cur.entries[i].child
		if c == target {
			return cur, i
		}
		if c.level > target.level {
			if p, idx := t.findParent(c, target); p != nil {
				return p, idx
			}
		}
	}
	return nil, -1
}

// adjustUpward recomputes bounding boxes on the path from n to the root.
func (t *Tree) adjustUpward(n *node) {
	for n != t.root {
		parent, idx := t.findParent(t.root, n)
		if parent == nil {
			return
		}
		parent.entries[idx].box = n.bbox()
		n = parent
	}
}

// Search invokes fn for every stored item whose box intersects query.
// Returning false from fn stops the search early.
func (t *Tree) Search(query Box, fn func(Box, Item) bool) {
	t.search(t.root, query, fn)
}

func (t *Tree) search(n *node, query Box, fn func(Box, Item) bool) bool {
	for i := range n.entries {
		e := &n.entries[i]
		if !e.box.Intersects(query) {
			continue
		}
		if n.isLeaf() {
			if !fn(e.box, e.item) {
				return false
			}
		} else if !t.search(e.child, query, fn) {
			return false
		}
	}
	return true
}

// Delete removes one item with the exact box b and key item. It reports
// whether a matching entry was found. Underfull nodes along the path are
// dissolved and their entries reinserted (the R-tree condense step).
func (t *Tree) Delete(b Box, item Item) bool {
	leaf := t.findLeaf(t.root, b, item)
	if leaf == nil {
		return false
	}
	for i := range leaf.entries {
		if leaf.entries[i].item == item && leaf.entries[i].box == b {
			leaf.entries = append(leaf.entries[:i], leaf.entries[i+1:]...)
			break
		}
	}
	t.size--
	t.condense(leaf)
	// Shrink the root if it has a single child.
	for !t.root.isLeaf() && len(t.root.entries) == 1 {
		t.root = t.root.entries[0].child
	}
	return true
}

func (t *Tree) findLeaf(n *node, b Box, item Item) *node {
	if n.isLeaf() {
		for i := range n.entries {
			if n.entries[i].item == item && n.entries[i].box == b {
				return n
			}
		}
		return nil
	}
	for i := range n.entries {
		if n.entries[i].box.Contains(b) {
			if leaf := t.findLeaf(n.entries[i].child, b, item); leaf != nil {
				return leaf
			}
		}
	}
	return nil
}

// condense removes underfull nodes from leaf to root, collecting orphaned
// entries for reinsertion.
func (t *Tree) condense(n *node) {
	var orphans []entry
	var orphanLevels []int
	for n != t.root {
		parent, idx := t.findParent(t.root, n)
		if parent == nil {
			break
		}
		if len(n.entries) < t.minEntries {
			parent.entries = append(parent.entries[:idx], parent.entries[idx+1:]...)
			for _, e := range n.entries {
				orphans = append(orphans, e)
				orphanLevels = append(orphanLevels, n.level)
			}
		} else {
			parent.entries[idx].box = n.bbox()
		}
		n = parent
	}
	for i, e := range orphans {
		t.insertEntry(e, orphanLevels[i], make(map[int]bool))
	}
}

// CheckInvariants validates structural invariants: parent boxes contain
// child boxes, levels decrease monotonically, and node occupancy is within
// bounds (root excepted). Intended for tests.
func (t *Tree) CheckInvariants() error {
	return t.check(t.root, nil)
}

func (t *Tree) check(n *node, parentBox *Box) error {
	if n != t.root {
		if len(n.entries) < t.minEntries || len(n.entries) > t.maxEntries {
			return fmt.Errorf("rtree: node at level %d has %d entries (bounds %d..%d)",
				n.level, len(n.entries), t.minEntries, t.maxEntries)
		}
	} else if len(n.entries) > t.maxEntries {
		return fmt.Errorf("rtree: root overfull with %d entries", len(n.entries))
	}
	for i := range n.entries {
		e := &n.entries[i]
		if parentBox != nil && !parentBox.Contains(e.box) {
			return fmt.Errorf("rtree: entry box escapes parent box at level %d", n.level)
		}
		if !n.isLeaf() {
			if e.child == nil {
				return fmt.Errorf("rtree: internal entry without child at level %d", n.level)
			}
			if e.child.level != n.level-1 {
				return fmt.Errorf("rtree: child level %d under node level %d", e.child.level, n.level)
			}
			bb := e.child.bbox()
			if !e.box.Contains(bb) {
				return fmt.Errorf("rtree: stored box does not cover child bbox at level %d", n.level)
			}
			if err := t.check(e.child, &e.box); err != nil {
				return err
			}
		}
	}
	return nil
}

var inf = math.Inf(1)
