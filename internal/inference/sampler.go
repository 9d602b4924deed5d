package inference

import (
	"fmt"
	"math"
	"math/rand"

	"pnn/internal/mcrand"
	"pnn/internal/sparse"
	"pnn/internal/uncertain"
)

// Sampler draws possible trajectories of one object from its a-posteriori
// model F(t). Every drawn path starts at the first observation, ends at the
// last, and passes through every observation in between with probability 1
// (Section 5.2.3). A Sampler keeps only its draw tables, one immutable
// table per observation gap, and is safe for concurrent use as long as
// each goroutine supplies its own generator.
type Sampler struct {
	obj        *uncertain.Object
	start, end int
	// gaps[g] holds the draw tables of the gap between observations g
	// and g+1.
	gaps []*gapTable
	// enter[g] is the row of observation g's state in gaps[g]: where a
	// walk continues after stepping onto that observation from gap g-1.
	// Kept here, not in gap g-1's table, so that no table depends on the
	// gap after it and versions can share tables.
	enter []int32
}

// NewSampler builds the draw tables of the adapted model. The tables live
// as long as the sampler, which engines cache per object — the build cost
// is paid once per adaptation, the O(1) draws on every one of the
// millions of transitions sampled after.
func NewSampler(m *Model) *Sampler {
	gaps := make([]*gapTable, len(m.gaps))
	sc := &aliasScratch{}
	for g := range m.gaps {
		gaps[g] = newGapTable(&m.gaps[g], sc)
	}
	return newSampler(m.obj, gaps)
}

// ExtendSampler builds the sampler of upd given the sampler of an earlier
// version of the object (nil: none, a full build): every observation gap
// the two share keeps prev's draw tables, and Algorithm 2 and the table
// construction run only over the gaps prev lacks — one for an appended
// observation. Each new gap's adapted matrices and marginals live only
// until its tables are built. The result draws exactly what
// NewSampler(AdaptShared(upd)) draws. prev is only read and stays usable,
// also when upd contradicts its chain, which returns AdaptShared's error.
func ExtendSampler(prev *Sampler, upd *uncertain.Object, reach *uncertain.Reach) (*Sampler, error) {
	if reach == nil {
		reach = uncertain.NewReach()
	}
	var seen *uncertain.Object
	if prev != nil {
		seen = prev.obj
	}
	gaps := make([]*gapTable, len(upd.Obs)-1)
	bld := builders.Get().(*adjBuilder)
	defer builders.Put(bld)
	sc := &aliasScratch{}
	for g, pg := range upd.SameGaps(seen) {
		if pg >= 0 {
			gaps[g] = prev.gaps[pg]
			continue
		}
		gm, err := adaptGap(upd, g, reach, bld)
		if err != nil {
			return nil, err
		}
		gaps[g] = newGapTable(&gm, sc)
	}
	return newSampler(upd, gaps), nil
}

// newSampler assembles the sampler of o from the tables of its gaps.
func newSampler(o *uncertain.Object, gaps []*gapTable) *Sampler {
	s := &Sampler{obj: o, start: o.First().T, end: o.Last().T, gaps: gaps, enter: make([]int32, len(gaps))}
	for g, gt := range gaps {
		// The entry distribution at a gap's first tic is its observation.
		s.enter[g] = gt.entRow[gt.ent[0]]
	}
	return s
}

// Object returns the object the sampler draws trajectories of.
func (s *Sampler) Object() *uncertain.Object { return s.obj }

// SampleWindowInto draws the object's trajectory over [ts, te] ∩
// [Start, End] directly into dst, which must have length te-ts+1: the
// entry state is drawn from the posterior marginal and subsequent states
// from the adapted transitions, which together realize the exact law of
// the trajectory over the window. dst[t-ts] receives the state at t, or
// -1 ("dead") where t falls outside the object's lifetime, the encoding
// nn.WorldBatch maps to an infinite distance. No allocation, one
// alias-table lookup per transition, an inlineable generator: this is the
// innermost call of the Monte-Carlo world-sampling kernel. ok is false
// when the window does not intersect the lifetime at all (dst is then all
// -1).
//
// Sampling only the query window instead of the whole lifetime is the
// dominant cost saving of the refinement step: query intervals are much
// shorter than object lifetimes.
func (s *Sampler) SampleWindowInto(rng *mcrand.RNG, ts, te int, dst []int32) bool {
	cs, ce := max(ts, s.start), min(te, s.end)
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
	out, obs := dst[cs-ts:ce-ts+1], s.obj.Obs
	u := rng.Uint64()
	if cs == s.end {
		// No gap holds the last observation; it is its own entry
		// distribution.
		out[0] = int32(obs[len(obs)-1].State)
		return true
	}
	g := gapAt(obs, cs)
	gt, i := s.gaps[g], cs-obs[g].T
	row := gt.entry(i, u)
	out[0] = gt.src[row]
	// Walk on gap by gap. The steps inside gap g draw from its tables;
	// the step off its last tic lands on observation g+1 whatever it
	// draws, so it spends its draw without a lookup.
	for out = out[1:]; ; {
		n := min(len(out), obs[g+1].T-obs[g].T-1-i)
		for k := 0; k < n; k++ {
			row = gt.step(row, rng.Uint64())
			out[k] = gt.src[row]
		}
		if out = out[n:]; len(out) == 0 {
			return true
		}
		rng.Uint64()
		out[0] = int32(obs[g+1].State)
		if out = out[1:]; len(out) == 0 {
			return true
		}
		g, i = g+1, 0
		gt, row = s.gaps[g], int(s.enter[g])
	}
}

// Sample draws one possible trajectory covering [Start, End].
func (s *Sampler) Sample(rng *rand.Rand) uncertain.Path {
	obs := s.obj.Obs
	states := make([]int32, s.end-s.start+1)
	states[0] = int32(obs[0].State)
	for g, gt := range s.gaps {
		row := int(s.enter[g])
		for t := obs[g].T + 1; t < obs[g+1].T; t++ {
			row = gt.step(row, rng.Uint64())
			states[t-s.start] = gt.src[row]
		}
		rng.Uint64()
		states[obs[g+1].T-s.start] = int32(obs[g+1].State)
	}
	return uncertain.Path{Start: s.start, States: states}
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
