package inference

// Walker alias tables for O(1) categorical draws in the sampling hot
// path. The cumulative-row representation the Sampler used previously
// costs a binary search per transition; the alias method (Walker 1977,
// with Vose's O(n) construction) answers every draw with one table
// lookup and one comparison, which is what makes drawing tens of
// thousands of possible worlds per query allocation- and search-free.

// aliasScratch holds the work lists of Vose's construction plus a
// state → row scatter index, all reused across the rows and timesteps
// of one sampler build, and across the gap-table builds of one pooled
// adjBuilder (AdaptGapTable).
type aliasScratch struct {
	scaled       []float64
	small, large []int32
	weights      []float64 // an entry distribution's weights
	// rowOf[s] is the row index of state s in the currently indexed
	// matrix, -1 elsewhere; touched remembers which slots to clear.
	// The dense-by-state layout trades one transient |S|-bounded slice
	// for O(1) lookups, removing every binary search from the build.
	rowOf   []int32
	touched []int32
}

// index points the scratch's state → row lookup at matrix a (nil
// de-indexes), clearing only the slots the previous matrix touched.
func (sc *aliasScratch) index(a *adj) {
	for _, s := range sc.touched {
		sc.rowOf[s] = -1
	}
	sc.touched = sc.touched[:0]
	if a == nil || len(a.src) == 0 {
		return
	}
	if need := int(a.src[len(a.src)-1]) + 1; len(sc.rowOf) < need {
		grown := make([]int32, need)
		copy(grown, sc.rowOf)
		for i := len(sc.rowOf); i < need; i++ {
			grown[i] = -1
		}
		sc.rowOf = grown
	}
	for r, s := range a.src {
		sc.rowOf[s] = int32(r)
		sc.touched = append(sc.touched, s)
	}
}

// lookup returns the row index of state s in the indexed matrix, -1
// when absent (or when nothing is indexed).
func (sc *aliasScratch) lookup(s int32) int32 {
	if int(s) >= len(sc.rowOf) {
		return -1
	}
	return sc.rowOf[s]
}

// buildAliasRange fills prob/alias (local slices of one row) from the
// weight vector w using Vose's O(n) algorithm; alias holds slot indices
// local to the row. Weights need not be normalized; zero-weight slots
// become pure alias slots.
func buildAliasRange[A int32 | uint16](w, prob []float64, alias []A, sc *aliasScratch) {
	n := len(w)
	if n == 0 {
		return
	}
	total := 0.0
	for _, x := range w {
		total += x
	}
	if total <= 0 {
		// Degenerate row: make every slot accept itself uniformly.
		for i := range prob {
			prob[i] = 1
			alias[i] = A(i)
		}
		return
	}
	sc.scaled = sc.scaled[:0]
	sc.small = sc.small[:0]
	sc.large = sc.large[:0]
	inv := float64(n) / total
	for i, x := range w {
		s := x * inv
		sc.scaled = append(sc.scaled, s)
		if s < 1 {
			sc.small = append(sc.small, int32(i))
		} else {
			sc.large = append(sc.large, int32(i))
		}
	}
	for len(sc.small) > 0 && len(sc.large) > 0 {
		s := sc.small[len(sc.small)-1]
		sc.small = sc.small[:len(sc.small)-1]
		l := sc.large[len(sc.large)-1]
		prob[s] = sc.scaled[s]
		alias[s] = A(l)
		sc.scaled[l] -= 1 - sc.scaled[s]
		if sc.scaled[l] < 1 {
			sc.large = sc.large[:len(sc.large)-1]
			sc.small = append(sc.small, l)
		}
	}
	// Leftovers on either list are numerically ~1: accept outright.
	for _, i := range sc.large {
		prob[i] = 1
		alias[i] = A(i)
	}
	for _, i := range sc.small {
		prob[i] = 1
		alias[i] = A(i)
	}
}

// aliasPick splits one 64-bit draw into a uniform slot in [0, n) (high
// 32 bits, fixed-point scaled — no modulo bias worth caring about) and
// a uniform acceptance fraction in [0, 1) (low 32 bits).
func aliasPick(u uint64, n int) (slot int, frac float64) {
	slot = int(((u >> 32) * uint64(n)) >> 32)
	frac = float64(uint32(u)) * (1.0 / (1 << 32))
	return slot, frac
}

// maxRowWidth is the most adapted successors one state may have: a draw
// table's alias slots are row-local uint16 offsets.
const maxRowWidth = 1<<16 - 1

// GapTable holds the draw tables of one observation gap, between
// observations a and b — what a trajectory draw reads there and nothing
// else. Tic i of the gap (time a.T+i) owns a run of rows, one per state
// F(a.T+i) leaves from, laid out tic after tic; row r owns the slots
// [off[r], off[r+1]), one per adapted transition out of its state. Every
// transition at the gap's last tic leads to b, so the rows of that tic
// own no slots: a walk there spends its draw and lands on b.
//
// The arrays hold no pointers and never change once built, so the
// samplers of an object's versions share the tables of the gaps they
// have in common: the UST-tree keeps each gap's table in its gap record.
type GapTable struct {
	src   []int32   // state of each row
	off   []int32   // len(src)+1 slot offsets
	prob  []float64 // alias acceptance threshold per slot
	alias []uint16  // alias slot, as an offset into its row
	next  []int32   // row of the slot's successor state, at the next tic
	// ent[i] and ent[i+1] bound the entry distribution at tic i: the
	// posterior marginal there, drawn from where a window starts. Entry k
	// is the state at row entRow[k], in alias form (entAlias is an offset
	// into the distribution).
	ent      []int32
	entRow   []int32
	entProb  []float64
	entAlias []int32
}

// newGapTable builds the draw tables of gap model gm.
func newGapTable(gm *gapModel, sc *aliasScratch) *GapTable {
	n := len(gm.f)
	rows, slots, ents := 0, 0, 0
	for i, f := range gm.f {
		rows += len(f.src)
		if i < n-1 {
			slots += len(f.dst)
		}
		ents += len(gm.post[i].idx)
	}
	ints := make([]int32, 2*rows+1+slots+n+1+2*ents)
	floats := make([]float64, slots+ents)
	carve := func(k int) []int32 {
		s := ints[:k:k]
		ints = ints[k:]
		return s
	}
	gt := &GapTable{
		src:      carve(rows),
		off:      carve(rows + 1),
		next:     carve(slots),
		ent:      carve(n + 1),
		entRow:   carve(ents),
		entAlias: carve(ents),
		prob:     floats[:slots:slots],
		entProb:  floats[slots:],
		alias:    make([]uint16, slots),
	}
	row, slot, ent := 0, 0, 0
	for i, f := range gm.f {
		copy(gt.src[row:], f.src)
		nextRow := int32(row + len(f.src))
		if i < n-1 {
			sc.index(gm.f[i+1])
			for r := range f.src {
				lo, hi := int(f.off[r]), int(f.off[r+1])
				gt.off[row+r] = int32(slot + lo)
				buildAliasRange(f.p[lo:hi], gt.prob[slot+lo:slot+hi], gt.alias[slot+lo:slot+hi], sc)
			}
			for k, d := range f.dst {
				gt.next[slot+k] = nextRow + sc.lookup(d)
			}
			slot += len(f.dst)
		} else {
			for r := range f.src {
				gt.off[row+r] = int32(slot)
			}
		}
		// The entry distribution's weights are the differences of its
		// running sums, as its cumulative form would give them.
		sc.index(f)
		v := gm.post[i]
		gt.ent[i] = int32(ent)
		sc.weights = sc.weights[:0]
		acc, prev := 0.0, 0.0
		for k, x := range v.val {
			acc += x
			sc.weights = append(sc.weights, acc-prev)
			prev = acc
			gt.entRow[ent+k] = int32(row) + sc.lookup(v.idx[k])
		}
		end := ent + len(v.idx)
		buildAliasRange(sc.weights, gt.entProb[ent:end], gt.entAlias[ent:end], sc)
		row, ent = int(nextRow), end
	}
	gt.off[rows] = int32(slot)
	gt.ent[n] = int32(ent)
	return gt
}

// step draws the successor of the state at row `row` from one 64-bit
// uniform draw and returns its row, at the next tic.
func (gt *GapTable) step(row int, u uint64) int {
	lo, hi := int(gt.off[row]), int(gt.off[row+1])
	slot, frac := aliasPick(u, hi-lo)
	k := lo + slot
	if frac >= gt.prob[k] {
		k = lo + int(gt.alias[k])
	}
	return int(gt.next[k])
}

// entry draws the row of the state at tic i from its entry distribution.
func (gt *GapTable) entry(i int, u uint64) int {
	lo, hi := int(gt.ent[i]), int(gt.ent[i+1])
	slot, frac := aliasPick(u, hi-lo)
	k := lo + slot
	if frac >= gt.entProb[k] {
		k = lo + int(gt.entAlias[k])
	}
	return int(gt.entRow[k])
}
