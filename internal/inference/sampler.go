package inference

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"pnn/internal/mcrand"
	"pnn/internal/sparse"
	"pnn/internal/uncertain"
)

// Sampler draws possible trajectories of one object from its a-posteriori
// model F(t). Every drawn path starts at the first observation, ends at the
// last, and passes through every observation in between with probability 1
// (Section 5.2.3). A Sampler is safe for concurrent use as long as each
// goroutine supplies its own generator.
type Sampler struct {
	model *Model
	// alias[t-start] holds, aligned with the flat adapted matrix F(t), the
	// Walker alias tables of every row plus cached successor-row indices,
	// so drawing a transition is one table lookup and one comparison —
	// no binary search anywhere in the walk.
	alias []rowAlias
	// postCum[t-start] and postAlias[t-start] are the posterior marginal
	// at t in cumulative and alias form, used to draw the entry state of
	// window-restricted samples (cumulative for the math/rand path, alias
	// for the columnar mcrand kernel).
	postCum   []cumDist
	postAlias []aliasDist
}

type cumDist struct {
	states []int32
	// rowOf[k] is the row index of states[k] in the transition matrix
	// leaving this timestep, or -1 at the model end (no transition
	// follows). Carrying it through the walk removes the per-step
	// row lookup.
	rowOf []int32
	cum   []float64 // strictly increasing, last element ~1
}

// NewSampler precomputes alias tables and entry distributions from the
// adapted model. The tables live as long as the sampler, which engines
// cache per object — the build cost is paid once per adaptation, the
// O(1) draws on every one of the millions of transitions sampled after.
func NewSampler(m *Model) *Sampler { return extendSampler(noSampler, m) }

// noSampler is what a full build extends: the sampler of no object, which
// shares no gap with any.
var noSampler = &Sampler{model: &Model{}}

// ExtendSampler builds the sampler of upd given the sampler of an earlier
// version of the object (nil: none, a full build): every observation gap
// the two share keeps prev's adapted matrices, marginals and tables, and
// Algorithm 2 and the table construction run only over the gaps prev
// lacks — one for an appended observation. The result is element for
// element what NewSampler(AdaptShared(upd)) builds, with the reverse
// matrices released (Model.ReleaseReverse): the gaps taken from prev
// never had theirs kept. prev is only read and stays usable, also when
// upd contradicts its chain, which returns AdaptShared's error.
func ExtendSampler(prev *Sampler, upd *uncertain.Object, reach *uncertain.Reach) (*Sampler, error) {
	if prev == nil {
		prev = noSampler
	}
	m, err := adaptFrom(prev.model, upd, reach)
	if err != nil {
		return nil, err
	}
	s := extendSampler(prev, m)
	m.ReleaseReverse()
	return s, nil
}

// extendSampler tables m, copying from prev the tables of the timesteps
// inside gaps the two models share: the transition tables over
// [a.T, b.T) and the entry distributions over the same range, which read
// nothing but that gap's F and posteriors.
func extendSampler(prev *Sampler, m *Model) *Sampler {
	n := m.end - m.start
	s := &Sampler{
		model:     m,
		alias:     make([]rowAlias, n),
		postCum:   make([]cumDist, n+1),
		postAlias: make([]aliasDist, n+1),
	}
	sc := &aliasScratch{}
	// The entry distribution at the model end belongs to no gap; nothing
	// is indexed yet, so its rows resolve to -1 (no transition follows).
	s.setEntry(n, sc)
	same := m.obj.SameGaps(prev.model.obj)
	for g := len(same) - 1; g >= 0; g-- {
		lo, hi := m.obj.Obs[g].T-m.start, m.obj.Obs[g+1].T-m.start
		// Walk time backwards with the scratch indexing F(t+1), the lookup
		// the t → t+1 tables need for their next-row cache. At the gap's
		// last step that is the first matrix of the following gap (none at
		// the model end).
		sc.index(m.f[hi])
		if same[g] >= 0 {
			shift := m.start - prev.model.start
			copy(s.alias[lo:hi], prev.alias[lo+shift:hi+shift])
			copy(s.postCum[lo:hi], prev.postCum[lo+shift:hi+shift])
			copy(s.postAlias[lo:hi], prev.postAlias[lo+shift:hi+shift])
			// The one table of a shared gap that looks outside it: the
			// following gap may be new, or gone.
			s.alias[hi-1].next = nextRows(m.f[hi-1], sc)
			continue
		}
		for t := hi - 1; t >= lo; t-- {
			s.alias[t] = buildRowAlias(m.f[t], sc)
			sc.index(m.f[t])
			s.setEntry(t, sc)
		}
	}
	return s
}

// setEntry builds the entry distributions at offset t from the posterior
// marginal there; sc must index the matrix leaving that timestep.
func (s *Sampler) setEntry(t int, sc *aliasScratch) {
	cd := cumOf(s.model.post[t], sc)
	s.postCum[t] = cd
	s.postAlias[t] = aliasOf(cd, sc)
}

// stepRow draws the successor of the state at row index `row` of F(t)
// from one 64-bit uniform draw, returning the successor state and its
// row index in F(t+1) (-1 when t+1 is the model end).
func (s *Sampler) stepRow(t, row int, u uint64) (int32, int) {
	a := s.model.f[t-s.model.start]
	ra := &s.alias[t-s.model.start]
	lo, hi := int(a.off[row]), int(a.off[row+1])
	slot, frac := aliasPick(u, hi-lo)
	k := lo + slot
	if frac >= ra.prob[k] {
		k = int(ra.alias[k])
	}
	return a.dst[k], int(ra.next[k])
}

func noSuccessors(cur int32, t int) string {
	return fmt.Sprintf("inference: state %d at t=%d has no adapted successors", cur, t)
}

// cumOf builds the cumulative form of a posterior marginal, caching
// each state's row index in the timestep's outgoing transition matrix
// through the scratch lookup (which must index that matrix; -1
// everywhere at the model end, where no matrix follows).
func cumOf(v sparse.Vec, sc *aliasScratch) cumDist {
	ents := v.Entries()
	cd := cumDist{
		states: make([]int32, len(ents)),
		rowOf:  make([]int32, len(ents)),
		cum:    make([]float64, len(ents)),
	}
	acc := 0.0
	for k, e := range ents {
		acc += e.Val
		cd.states[k] = int32(e.Idx)
		cd.cum[k] = acc
		cd.rowOf[k] = sc.lookup(int32(e.Idx))
	}
	return cd
}

// aliasOf converts a cumulative entry distribution to alias form. The
// state and row slices are shared with cd (both are read-only).
func aliasOf(cd cumDist, sc *aliasScratch) aliasDist {
	n := len(cd.states)
	d := aliasDist{
		states: cd.states,
		rowOf:  cd.rowOf,
		prob:   make([]float64, n),
		alias:  make([]int32, n),
	}
	w := make([]float64, n)
	prev := 0.0
	for k, c := range cd.cum {
		w[k] = c - prev
		prev = c
	}
	buildAliasRange(w, d.prob, d.alias, 0, sc)
	return d
}

// draw returns the slot index of one sample of the distribution.
func (cd cumDist) draw(rng *rand.Rand) int {
	return cd.drawAt(rng.Float64() * cd.cum[len(cd.cum)-1])
}

// drawAt resolves a uniform draw u ∈ [0, total) to its slot. Floating-
// point overshoot — u computed as fraction×total can round to a value
// that SearchFloat64s places past the final cumulative entry — clamps
// to the last slot, mirroring the transition-step clamp the cumulative
// sampler always had.
func (cd cumDist) drawAt(u float64) int {
	k := sort.SearchFloat64s(cd.cum, u)
	if k == len(cd.cum) {
		k--
	}
	return k
}

// draw returns the slot index of one sample of the distribution.
func (d *aliasDist) draw(rng *mcrand.RNG) int {
	slot, frac := aliasPick(rng.Uint64(), len(d.prob))
	if frac >= d.prob[slot] {
		slot = int(d.alias[slot])
	}
	return slot
}

// SampleWindow draws the object's trajectory restricted to [ts, te] ∩
// [Start, End]: the entry state is drawn from the posterior marginal and
// subsequent states from the adapted transitions, which together realize
// the exact law of the trajectory over the window. ok is false when the
// window does not intersect the object's lifetime.
//
// Sampling only the query window instead of the whole lifetime is the
// dominant cost saving of the refinement step: query intervals are much
// shorter than object lifetimes.
func (s *Sampler) SampleWindow(rng *rand.Rand, ts, te int) (uncertain.Path, bool) {
	m := s.model
	if ts < m.start {
		ts = m.start
	}
	if te > m.end {
		te = m.end
	}
	if te < ts {
		return uncertain.Path{}, false
	}
	states := make([]int32, te-ts+1)
	cd := &s.postCum[ts-m.start]
	k := cd.draw(rng)
	cur, row := cd.states[k], int(cd.rowOf[k])
	states[0] = cur
	for t := ts; t < te; t++ {
		if row < 0 {
			panic(noSuccessors(cur, t))
		}
		cur, row = s.stepRow(t, row, rng.Uint64())
		states[t-ts+1] = cur
	}
	return uncertain.Path{Start: ts, States: states}, true
}

// SampleWindowInto is the columnar twin of SampleWindow: it draws the
// trajectory over [ts, te] directly into dst, which must have length
// te-ts+1. dst[t-ts] receives the state at t, or -1 ("dead") where t
// falls outside the object's lifetime, the encoding nn.WorldBatch maps
// to an infinite distance. No allocation, one alias-table lookup per
// transition, an inlineable generator: this is the innermost call of
// the Monte-Carlo world-sampling kernel. ok is false when the window
// does not intersect the lifetime at all (dst is then all -1).
func (s *Sampler) SampleWindowInto(rng *mcrand.RNG, ts, te int, dst []int32) bool {
	m := s.model
	cs, ce := ts, te
	if cs < m.start {
		cs = m.start
	}
	if ce > m.end {
		ce = m.end
	}
	if ce < cs {
		for i := range dst {
			dst[i] = -1
		}
		return false
	}
	for i := 0; i < cs-ts; i++ {
		dst[i] = -1
	}
	for i := ce - ts + 1; i < len(dst); i++ {
		dst[i] = -1
	}
	ad := &s.postAlias[cs-m.start]
	k := ad.draw(rng)
	cur, row := ad.states[k], int(ad.rowOf[k])
	dst[cs-ts] = cur
	for t := cs; t < ce; t++ {
		if row < 0 {
			panic(noSuccessors(cur, t))
		}
		cur, row = s.stepRow(t, row, rng.Uint64())
		dst[t-ts+1] = cur
	}
	return true
}

// Model returns the underlying adapted model.
func (s *Sampler) Model() *Model { return s.model }

// Sample draws one possible trajectory covering [Start, End].
func (s *Sampler) Sample(rng *rand.Rand) uncertain.Path {
	m := s.model
	states := make([]int32, m.end-m.start+1)
	cur := int32(m.obj.First().State)
	states[0] = cur
	row := -1
	if m.end > m.start {
		row = m.f[0].rowIndex(cur)
	}
	for t := m.start; t < m.end; t++ {
		if row < 0 {
			panic(noSuccessors(cur, t))
		}
		cur, row = s.stepRow(t, row, rng.Uint64())
		states[t-m.start+1] = cur
	}
	return uncertain.Path{Start: m.start, States: states}
}

// PriorSampleResult reports the outcome of rejection-based sampling on the
// a-priori chain.
type PriorSampleResult struct {
	Path     uncertain.Path
	Attempts int // trajectory draws consumed to obtain one valid sample
}

// RejectionSample implements the traditional Monte-Carlo approach (TS1,
// Section 5.1): draw full trajectories from the first observation forward
// using the a-priori chain, discarding any that miss a later observation.
// maxAttempts bounds the work; if it is exhausted, an error is returned
// with Attempts set to maxAttempts. The expected number of attempts grows
// exponentially with the number of observations, which is exactly the
// pathology Figure 10 demonstrates.
func RejectionSample(o *uncertain.Object, rng *rand.Rand, maxAttempts int) (PriorSampleResult, error) {
	start, end := o.First().T, o.Last().T
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		states := make([]int32, end-start+1)
		cur := o.First().State
		states[0] = int32(cur)
		ok := true
		for t := start; t < end; t++ {
			cur = stepPrior(o, t, cur, rng)
			states[t-start+1] = int32(cur)
			if want, observed := o.ObservedAt(t + 1); observed && want != cur {
				ok = false
				break
			}
		}
		if ok {
			return PriorSampleResult{
				Path:     uncertain.Path{Start: start, States: states},
				Attempts: attempt,
			}, nil
		}
	}
	return PriorSampleResult{Attempts: maxAttempts},
		fmt.Errorf("inference: rejection sampling exhausted %d attempts for object %d", maxAttempts, o.ID)
}

// SegmentRejectionSample implements the improved rejection scheme (TS2,
// Section 7.1 "Sampling Efficiency"): sample each observation gap
// independently, restarting only the current segment when it misses its end
// observation. Attempts counts segment draws across all gaps, making the
// expected cost linear rather than exponential in the number of
// observations.
func SegmentRejectionSample(o *uncertain.Object, rng *rand.Rand, maxAttempts int) (PriorSampleResult, error) {
	start, end := o.First().T, o.Last().T
	states := make([]int32, end-start+1)
	states[0] = int32(o.First().State)
	attempts := 0
	for g := 0; g+1 < len(o.Obs); g++ {
		a, b := o.Obs[g], o.Obs[g+1]
		for {
			attempts++
			if attempts > maxAttempts {
				return PriorSampleResult{Attempts: maxAttempts},
					fmt.Errorf("inference: segment sampling exhausted %d attempts for object %d", maxAttempts, o.ID)
			}
			cur := a.State
			okSeg := true
			for t := a.T; t < b.T; t++ {
				cur = stepPrior(o, t, cur, rng)
				states[t-start+1] = int32(cur)
			}
			if cur != b.State {
				okSeg = false
			}
			if okSeg {
				break
			}
		}
	}
	return PriorSampleResult{
		Path:     uncertain.Path{Start: start, States: states},
		Attempts: attempts,
	}, nil
}

// ExpectedRejectionCost returns the analytically expected number of
// trajectory draws needed by TS1 (full-trajectory rejection) and TS2
// (segment-wise rejection) to produce one valid sample of o, computed by
// exact forward propagation of the a-priori chain. The per-gap hit
// probability p_g is P(o(t_{g+1}) = θ_{g+1} | o(t_g) = θ_g); then
//
//	E[TS1] = 1 / Π_g p_g    and    E[TS2] = Σ_g 1/p_g.
//
// A contradiction (some p_g = 0) yields +Inf for both.
func ExpectedRejectionCost(o *uncertain.Object) (ts1, ts2 float64) {
	ts1 = 1
	for g := 0; g+1 < len(o.Obs); g++ {
		a, b := o.Obs[g], o.Obs[g+1]
		v := sparse.UnitVec(a.State)
		for t := a.T; t < b.T; t++ {
			v = o.Chain.At(t).MulVecLeft(v)
		}
		p := v[b.State]
		if p <= 0 {
			return inf(), inf()
		}
		ts1 *= 1 / p
		ts2 += 1 / p
	}
	return ts1, ts2
}

func stepPrior(o *uncertain.Object, t, cur int, rng *rand.Rand) int {
	cols, vals := o.Chain.At(t).Row(cur)
	u := rng.Float64()
	acc := 0.0
	for k, v := range vals {
		acc += v
		if u <= acc {
			return int(cols[k])
		}
	}
	// Floating-point shortfall: take the last transition.
	return int(cols[len(cols)-1])
}

func inf() float64 { return math.Inf(1) }
