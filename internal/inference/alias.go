package inference

// Walker alias tables for O(1) categorical draws in the sampling hot
// path. The cumulative-row representation the Sampler used previously
// costs a binary search per transition; the alias method (Walker 1977,
// with Vose's O(n) construction) answers every draw with one table
// lookup and one comparison, which is what makes drawing tens of
// thousands of possible worlds per query allocation- and search-free.

// rowAlias holds the alias tables of one timestep's adapted transition
// matrix F(t), aligned entry-for-entry with the adj CSR arrays: slot k
// describes the k-th stored transition. next[k] additionally caches the
// row index (in F(t+1)) of the destination state dst[k], so a sampling
// walk never re-derives its current row by binary search; -1 marks
// destinations with no successor row (only legal at the model's last
// transition).
type rowAlias struct {
	prob  []float64 // acceptance threshold per slot
	alias []int32   // replacement slot (global index into the same row)
	next  []int32   // row index of dst[k] in the NEXT timestep's adj
}

// buildRowAlias constructs per-row alias tables for every row of a,
// plus the next-row index cache: sc must currently index the FOLLOWING
// timestep's matrix (see aliasScratch.index), so every destination
// state resolves to its successor row in O(1) instead of by binary
// search — the build stays linear in the number of stored transitions.
func buildRowAlias(a *adj, sc *aliasScratch) rowAlias {
	ra := rowAlias{
		prob:  make([]float64, len(a.p)),
		alias: make([]int32, len(a.p)),
		next:  nextRows(a, sc),
	}
	for r := 0; r+1 < len(a.off); r++ {
		lo, hi := int(a.off[r]), int(a.off[r+1])
		buildAliasRange(a.p[lo:hi], ra.prob[lo:hi], ra.alias[lo:hi], int32(lo), sc)
	}
	return ra
}

// nextRows resolves every destination state of a to its row in the
// matrix sc currently indexes (-1: none) — the next-row cache of a's
// alias tables.
func nextRows(a *adj, sc *aliasScratch) []int32 {
	next := make([]int32, len(a.dst))
	for k, d := range a.dst {
		next[k] = sc.lookup(d)
	}
	return next
}

// aliasDist is an alias table over an explicit state set — the entry
// distribution of a window-restricted sample (the posterior marginal at
// the window start). rowOf[k] caches the row index of states[k] in the
// adapted transition matrix leaving that timestep (-1 at the model end,
// where no transition follows).
type aliasDist struct {
	states []int32
	rowOf  []int32
	prob   []float64
	alias  []int32
}

// aliasScratch holds the work lists of Vose's construction plus a
// state → row scatter index, all reused across the rows and timesteps
// of one NewSampler call.
type aliasScratch struct {
	scaled       []float64
	small, large []int32
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
// weight vector w using Vose's O(n) algorithm. base is added to the
// stored alias indices so they are global into the row storage, letting
// the draw skip the lo+ offset addition. Weights need not be
// normalized; zero-weight slots become pure alias slots.
func buildAliasRange(w, prob []float64, alias []int32, base int32, sc *aliasScratch) {
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
			alias[i] = base + int32(i)
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
		alias[s] = base + l
		sc.scaled[l] -= 1 - sc.scaled[s]
		if sc.scaled[l] < 1 {
			sc.large = sc.large[:len(sc.large)-1]
			sc.small = append(sc.small, l)
		}
	}
	// Leftovers on either list are numerically ~1: accept outright.
	for _, i := range sc.large {
		prob[i] = 1
		alias[i] = base + i
	}
	for _, i := range sc.small {
		prob[i] = 1
		alias[i] = base + i
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
