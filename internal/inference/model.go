// Package inference implements the paper's central algorithmic
// contribution: Bayesian adaptation of an object's a-priori Markov chain to
// its observations (Algorithm 2, "AdaptTransitionMatrices"), and trajectory
// sampling from the resulting a-posteriori model.
//
// The forward phase walks time from the first to the last observation,
// computing the time-reversed transition matrices
//
//	R(t)[i][j] = P(o(t-1) = s_j | o(t) = s_i, past observations)
//
// via Bayes' theorem (Lemma 4). The backward phase walks time backwards
// using R(t) and produces the a-posteriori forward model
//
//	F(t)[i][j] = P(o(t+1) = s_j | o(t) = s_i, all observations Θ)
//
// (Equation 4) together with the posterior marginals P(o(t) = s | Θ).
// Sampling a trajectory from F hits every observation with probability 1,
// which is what makes Monte-Carlo PNN evaluation tractable (Section 5).
//
// The package also ships the inferior models the paper evaluates against in
// Figures 10 and 12: rejection sampling on the a-priori chain (TS1),
// segment-wise rejection (TS2), the forward-only model (F), the
// no-observation model (NO), the uniform-diamond model (U), and the
// forward-backward model over a uniformized chain (FBU).
package inference

import (
	"fmt"

	"pnn/internal/sparse"
	"pnn/internal/uncertain"
)

// pruneEps guards only against genuine floating-point underflow (values
// denormalized toward zero), NOT against "small" probabilities: a state
// with relative mass 1e-20 is negligible for sampling, but a later
// observation can land exactly there, and Bayes' rule must then be able to
// revive it. Trained chains with strong idle bias (parked taxis) produce
// exactly such paths, so any aggressive threshold here turns valid
// databases into spurious "contradicting observation" errors.
const pruneEps = 1e-300

// Model is the a-posteriori motion model of one object produced by Adapt.
// All slices are indexed by t - Start().
type Model struct {
	obj *uncertain.Object

	start, end int

	// r[t-start] holds R(t): row i is the distribution over predecessor
	// states at t-1 given being at state i at time t (and past
	// observations). r[0] is nil (no predecessor of the first timestep).
	r []*adj

	// f[t-start] holds F(t): row i is the adapted distribution over
	// successor states at t+1 given being at state i at t (and all
	// observations). f[end-start] is nil.
	f []*adj

	// fwd[t-start] is the forward-filtered marginal P(o(t) | past obs),
	// with observations at <= t incorporated. Kept for the Figure 12
	// ablation ("F" curve).
	fwd []sparse.Vec

	// post[t-start] is the posterior marginal P(o(t) | all obs).
	post []sparse.Vec
}

// Adapt runs Algorithm 2 on object o. It returns an error if consecutive
// observations contradict the chain (no possible trajectory connects them),
// which subsumes the non-contradiction precondition of the paper.
//
// Complexity is O(Σ_t nnz(t)) where nnz(t) is the number of transitions
// leaving the reachable state set at time t — the sparse specialization of
// the paper's O(|T|·|S|²) bound.
func Adapt(o *uncertain.Object) (*Model, error) {
	return AdaptShared(o, uncertain.NewReach())
}

// AdaptShared is Adapt with a caller-supplied reachability cache, so the
// chain transposes used for diamond computation are shared across the
// objects of one database.
func AdaptShared(o *uncertain.Object, reach *uncertain.Reach) (*Model, error) {
	return adaptFrom(noSampler.model, o, reach)
}

// adaptFrom is AdaptShared given the model of an earlier version of o
// (noSampler's: none). Observations are exact, so Algorithm 2 restarts
// from a unit vector at each one in both directions and factorises by
// observation gap: every gap prev has already adapted (Object.SameGaps)
// is taken from it, bit for bit what adapting it again would produce, and
// only the others are swept. The reverse matrices of the gaps taken stay
// behind; see ExtendSampler.
func adaptFrom(prev *Model, o *uncertain.Object, reach *uncertain.Reach) (*Model, error) {
	if reach == nil {
		reach = uncertain.NewReach()
	}
	start, end := o.First().T, o.Last().T
	n := end - start + 1
	m := &Model{
		obj:   o,
		start: start,
		end:   end,
		r:     make([]*adj, n),
		f:     make([]*adj, n),
		fwd:   make([]sparse.Vec, n),
		post:  make([]sparse.Vec, n),
	}
	// The two marginals no gap owns: a gap fills fwd over (a.T, b.T] and
	// post over [a.T, b.T).
	m.fwd[0] = unitSvec(int32(o.First().State)).toVec()
	m.post[n-1] = unitSvec(int32(o.Last().State)).toVec()
	bld := builders.Get().(*adjBuilder)
	defer builders.Put(bld)
	for g, pg := range o.SameGaps(prev.obj) {
		if pg < 0 {
			if err := m.adaptGap(g, reach, bld); err != nil {
				return nil, err
			}
			continue
		}
		lo, hi := o.Obs[g].T-start, o.Obs[g+1].T-start
		shift := start - prev.start
		copy(m.f[lo:hi], prev.f[lo+shift:hi+shift])
		copy(m.post[lo:hi], prev.post[lo+shift:hi+shift])
		copy(m.fwd[lo+1:hi+1], prev.fwd[lo+1+shift:hi+1+shift])
	}
	return m, nil
}

// adaptGap runs Algorithm 2 over observation gap g of the model's object,
// between observations a and b: the forward phase from a over (a.T, b.T],
// filling r and fwd, then the backward phase from b over [a.T, b.T),
// filling f and post. The forward sweep restricts every distribution to
// the gap's reachability diamond (forward ∩ backward support): states
// outside it have zero posterior probability by construction, and carrying
// them (the full forward cone) would make memory explode for objects with
// long observation gaps and strong idle bias. The sweep's own support
// never leaves the forward cone, so restricting it to the backward cone
// alone (Reach.Backward) restricts it to the diamond.
func (m *Model) adaptGap(g int, reach *uncertain.Reach, bld *adjBuilder) error {
	o, start := m.obj, m.start
	a, b := o.Obs[g], o.Obs[g+1]
	// cone[k] is the set of states at a.T+k that can still reach b.
	// Computing it errors out on contradicting observations before any
	// heavy work happens.
	cone, err := reach.Backward(o, g)
	if err != nil {
		return fmt.Errorf("inference: %w", err)
	}

	// Forward phase (Algorithm 2, lines 2-10).
	s := unitSvec(int32(a.State))
	tris := bld.tris
	for t := a.T + 1; t <= b.T; t++ {
		mat := o.Chain.At(t - 1)
		// X'(t) = M(t-1)ᵀ · diag(s(t-1)), stored row-major by target
		// state i: X'[i][j] = M[j][i] · s[j]  (line 4).
		tris = tris[:0]
		for k, j := range s.idx {
			sj := s.val[k]
			cols, vals := mat.Row(int(j))
			for c, col := range cols {
				if p := vals[c] * sj; p > 0 {
					tris = append(tris, triple{r: col, c: j, p: p})
				}
			}
		}
		// Row sums give s(t) (line 5); normalizing rows gives R(t)
		// (line 6). Restricting to the diamond keeps the support (and all
		// stored matrices) memory-bounded by the set of actually feasible
		// states.
		rt, ns := bld.build(tris)
		bld.restrict(&ns, cone[t-a.T])
		if t == b.T {
			// Incorporate the observation (line 8) after checking it is
			// consistent with the propagated support.
			if ns.find(int32(b.State)) <= 0 {
				return fmt.Errorf(
					"inference: object %d observation at t=%d (state %d) contradicts the chain",
					o.ID, t, b.State)
			}
			s = unitSvec(int32(b.State))
		} else {
			if !ns.normalizePruned(pruneEps) {
				return fmt.Errorf("inference: object %d has no reachable states at t=%d", o.ID, t)
			}
			s = ns
		}
		m.r[t-start] = rt
		m.fwd[t-start] = s.toVec()
	}

	// Backward phase (lines 12-16), from the exact unit vector of b,
	// which s now is. A sweep over the whole object would arrive here
	// with the next gap's normalized single entry, x·(1/x); starting from
	// the unit vector keeps this gap a function of its own two
	// observations whatever that product rounds to.
	cur := s
	for t := b.T - 1; t >= a.T; t-- {
		rt := m.r[t+1-start]
		// X'(t) = R(t+1)ᵀ · diag(s(t+1)): X'[j][i] = R(t+1)[i][j]·s(t+1)[i]
		// (line 13).
		tris = tris[:0]
		for k, i := range cur.idx {
			si := cur.val[k]
			cols, vals := rt.row(i)
			for c, col := range cols {
				if p := vals[c] * si; p > 0 {
					tris = append(tris, triple{r: col, c: i, p: p})
				}
			}
		}
		ft, ns := bld.build(tris)
		ns.normalizePruned(pruneEps)
		m.f[t-start] = ft
		m.post[t-start] = ns.toVec()
		cur = ns
	}
	bld.tris = tris
	return nil
}

// Object returns the object this model was adapted for.
func (m *Model) Object() *uncertain.Object { return m.obj }

// Start returns the first timestep covered by the model (the time of the
// first observation).
func (m *Model) Start() int { return m.start }

// End returns the last timestep covered by the model.
func (m *Model) End() int { return m.end }

// Posterior returns P(o(t) = · | Θ), the state distribution at time t given
// all observations. It returns nil outside [Start, End]. The returned
// vector is shared and must not be modified.
func (m *Model) Posterior(t int) sparse.Vec {
	if t < m.start || t > m.end {
		return nil
	}
	return m.post[t-m.start]
}

// Forward returns the forward-filtered marginal P(o(t) = · | observations
// at times <= t) — the paper's "F" ablation model. It returns nil outside
// [Start, End].
func (m *Model) Forward(t int) sparse.Vec {
	if t < m.start || t > m.end {
		return nil
	}
	return m.fwd[t-m.start]
}

// Transition returns F(t): the adapted transition model from time t to
// t+1. Row i is the successor distribution given o(t) = s_i. It returns
// nil for t outside [Start, End-1]. The map representation is built on
// demand; hot paths (the Sampler) read the flat storage directly.
func (m *Model) Transition(t int) sparse.RowMap {
	if t < m.start || t >= m.end {
		return nil
	}
	return m.f[t-m.start].toRowMap()
}

// ReleaseReverse frees the time-reversed matrices R(t). They are consumed
// by the backward phase alone; sampling and every query path need F(t)
// and the marginals. Engines call this after building a sampler: for a
// fully-prepared database the reverse matrices are half of the resident
// model size.
func (m *Model) ReleaseReverse() { m.r = nil }

// ReachableAt returns the posterior support at time t in ascending order:
// the states the object can occupy at t with non-zero probability given all
// observations (one time slice of the paper's diamonds, Figure 4 right).
func (m *Model) ReachableAt(t int) []int {
	p := m.Posterior(t)
	if p == nil {
		return nil
	}
	return p.Support()
}
