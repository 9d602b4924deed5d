package inference

import (
	"slices"
	"sync"

	"pnn/internal/sparse"
)

// adj is the flat storage for one timestep's adapted transition matrix:
// a CSR-like structure over the (small) set of reachable source states.
// Using sorted slices instead of nested maps keeps Algorithm 2 free of
// per-entry map allocations, which dominate its runtime otherwise.
type adj struct {
	src []int32   // sorted distinct source states
	off []int32   // len(src)+1 row offsets into dst/p
	dst []int32   // column indices, sorted within each row
	p   []float64 // values, parallel to dst
}

// rowIndex returns the position of state s in src, or -1.
func (a *adj) rowIndex(s int32) int {
	lo, hi := 0, len(a.src)
	for lo < hi {
		mid := (lo + hi) / 2
		if a.src[mid] < s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(a.src) && a.src[lo] == s {
		return lo
	}
	return -1
}

// row returns the columns and values of source state s (nil when absent).
func (a *adj) row(s int32) ([]int32, []float64) {
	i := a.rowIndex(s)
	if i < 0 {
		return nil, nil
	}
	return a.dst[a.off[i]:a.off[i+1]], a.p[a.off[i]:a.off[i+1]]
}

// toRowMap converts to the map representation for the public Model API
// and tests. Cost is proportional to the number of entries.
func (a *adj) toRowMap() sparse.RowMap {
	if a == nil {
		return nil
	}
	out := sparse.NewRowMap()
	for i, s := range a.src {
		for k := a.off[i]; k < a.off[i+1]; k++ {
			out.Add(int(s), int(a.dst[k]), a.p[k])
		}
	}
	return out
}

// triple is one (source row, destination column, probability) element
// produced during a forward or backward sweep.
type triple struct {
	r, c int32
	p    float64
}

// adjBuilder assembles adj matrices from triples without sorting the
// entries: a counting scatter groups by row, exploiting that the sweeps
// emit columns in ascending order for each row. The builder's scratch
// state is reused across timesteps, gaps and, through builders, Adapt
// calls.
type adjBuilder struct {
	// slot[s] is row state s's discovery slot (then its rank) in the
	// current build, valid only where stamp[s] == gen. Both grow to the
	// largest row state seen; a build bumps gen instead of clearing them.
	slot   []int32
	stamp  []uint32
	gen    uint32
	rows   []int32      // slot → row state
	counts []int32      // slot → entries in the row
	tris   []triple     // the sweeps' triple buffer, kept between gaps
	alias  aliasScratch // the draw-table build's work lists (AdaptGapTable)
}

func newAdjBuilder() *adjBuilder { return &adjBuilder{} }

// builders keeps adjBuilders between Adapt calls, so that slot arrays
// spanning the state space are not allocated again for every object.
var builders = sync.Pool{New: func() any { return newAdjBuilder() }}

// next starts a new generation of stamps.
func (b *adjBuilder) next() {
	b.gen++
	if b.gen == 0 {
		clear(b.stamp)
		b.gen = 1
	}
}

// cover grows slot and stamp to cover state s.
func (b *adjBuilder) cover(s int32) {
	if int(s) < len(b.stamp) {
		return
	}
	n := max(int(s)+1, 2*len(b.stamp))
	b.stamp = append(b.stamp, make([]uint32, n-len(b.stamp))...)
	b.slot = append(b.slot, make([]int32, n-len(b.slot))...)
}

// restrict drops every entry of v whose state is not in keep (in any
// order), without renormalizing (callers normalize afterwards). v's
// states must be rows of the last build, so that the stamps cover them.
func (b *adjBuilder) restrict(v *svec, keep []int32) {
	b.next()
	for _, s := range keep {
		b.cover(s)
		b.stamp[s] = b.gen
	}
	out := 0
	for i, s := range v.idx {
		if b.stamp[s] == b.gen {
			v.idx[out] = s
			v.val[out] = v.val[i]
			out++
		}
	}
	v.idx = v.idx[:out]
	v.val = v.val[:out]
}

// build consumes tris (they must have unique (r, c) pairs, with c emitted
// in ascending order per r) and returns the row-normalized adj plus the
// raw row-sum vector (sorted by state, not normalized).
func (b *adjBuilder) build(tris []triple) (*adj, svec) {
	b.next()
	b.rows = b.rows[:0]
	b.counts = b.counts[:0]
	for _, t := range tris {
		b.cover(t.r)
		if b.stamp[t.r] != b.gen {
			b.stamp[t.r] = b.gen
			b.slot[t.r] = int32(len(b.rows))
			b.rows = append(b.rows, t.r)
			b.counts = append(b.counts, 0)
		}
		b.counts[b.slot[t.r]]++
	}
	// The (few) distinct rows in ascending order; from here on slot[s]
	// holds row s's rank in that order instead of its discovery slot.
	nRows := len(b.rows)
	a := &adj{
		src: append(make([]int32, 0, nRows), b.rows...),
		off: make([]int32, nRows+1),
		dst: make([]int32, len(tris)),
		p:   make([]float64, len(tris)),
	}
	slices.Sort(a.src)
	for rank, s := range a.src {
		a.off[rank+1] = a.off[rank] + b.counts[b.slot[s]]
		b.slot[s] = int32(rank)
	}
	// Scatter entries; per-row fill pointers start at the row offsets.
	fill := append(b.counts[:0], a.off[:nRows]...)
	for _, t := range tris {
		rank := b.slot[t.r]
		k := fill[rank]
		a.dst[k] = t.c
		a.p[k] = t.p
		fill[rank]++
	}
	// Normalize rows and collect sums.
	sums := svec{idx: a.src, val: make([]float64, nRows)}
	for rank := 0; rank < nRows; rank++ {
		total := 0.0
		for k := a.off[rank]; k < a.off[rank+1]; k++ {
			total += a.p[k]
		}
		sums.val[rank] = total
		if total > 0 {
			inv := 1 / total
			for k := a.off[rank]; k < a.off[rank+1]; k++ {
				a.p[k] *= inv
			}
		}
	}
	// sums.idx aliases a.src; callers must not mutate it. normalizePruned
	// compacts in place, so give it a copy.
	sums.idx = append([]int32(nil), sums.idx...)
	return a, sums
}

// svec is a sparse vector as parallel sorted slices, used for the
// distribution vectors inside Algorithm 2.
type svec struct {
	idx []int32
	val []float64
}

// find returns the value at state s (0 when absent).
func (v svec) find(s int32) float64 {
	lo, hi := 0, len(v.idx)
	for lo < hi {
		mid := (lo + hi) / 2
		if v.idx[mid] < s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(v.idx) && v.idx[lo] == s {
		return v.val[lo]
	}
	return 0
}

// sum returns the total mass.
func (v svec) sum() float64 {
	s := 0.0
	for _, x := range v.val {
		s += x
	}
	return s
}

// normalizePruned scales v to mass 1, dropping entries below eps first.
// It returns false when no mass remains.
func (v *svec) normalizePruned(eps float64) bool {
	keep := 0
	total := 0.0
	for i, x := range v.val {
		if x >= eps {
			v.idx[keep] = v.idx[i]
			v.val[keep] = x
			total += x
			keep++
		}
	}
	v.idx = v.idx[:keep]
	v.val = v.val[:keep]
	if total == 0 {
		return false
	}
	inv := 1 / total
	for i := range v.val {
		v.val[i] *= inv
	}
	return true
}

// toVec converts to the map representation used by the Model accessors.
func (v svec) toVec() sparse.Vec {
	out := make(sparse.Vec, len(v.idx))
	for i, s := range v.idx {
		out[int(s)] = v.val[i]
	}
	return out
}

func unitSvec(s int32) svec {
	return svec{idx: []int32{s}, val: []float64{1}}
}
