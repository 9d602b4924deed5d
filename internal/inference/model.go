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

// Model is the a-posteriori motion model of one object produced by Adapt:
// Algorithm 2's output, observation gap by observation gap.
type Model struct {
	obj *uncertain.Object

	start, end int

	// gaps[g] is the model over the gap between observations g and g+1.
	gaps []gapModel
}

// gapModel is Algorithm 2's output over one observation gap, between
// observations a and b; index i stands for time a.T+i. Observations are
// exact, so both sweeps restart from a unit vector at each one, and a
// gap's model is a function of its two observations and the chain alone.
type gapModel struct {
	// f[i] holds F(a.T+i): row j is the adapted distribution over
	// successor states at a.T+i+1 given being at state j at a.T+i (and
	// all observations). Every row of the last one leads to b.
	f []*adj

	// post[i] is the posterior marginal P(o(a.T+i) | all obs).
	post []svec

	// fwd[i] is the forward-filtered marginal P(o(a.T+i+1) | past obs),
	// with observations at <= a.T+i+1 incorporated. Kept for the Figure
	// 12 ablation ("F" curve).
	fwd []svec
}

// Adapt runs Algorithm 2 on object o. It returns an error if consecutive
// observations contradict the chain (no possible trajectory connects them),
// which subsumes the non-contradiction precondition of the paper, or if a
// state has more adapted successors than a draw table row holds
// (maxRowWidth).
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
	if reach == nil {
		reach = uncertain.NewReach()
	}
	m := &Model{obj: o, start: o.First().T, end: o.Last().T, gaps: make([]gapModel, len(o.Obs)-1)}
	bld := builders.Get().(*adjBuilder)
	defer builders.Put(bld)
	for g := range m.gaps {
		var err error
		if m.gaps[g], err = adaptGap(o, g, reach, bld); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// adaptGap runs Algorithm 2 over observation gap g of o, between
// observations a and b: the forward phase from a over (a.T, b.T],
// computing R and fwd, then the backward phase from b over [a.T, b.T),
// computing F and post. The reverse matrices R are consumed by the
// backward phase alone and do not outlive the call. The forward sweep
// restricts every distribution to the gap's reachability diamond
// (forward ∩ backward support): states outside it have zero posterior
// probability by construction, and carrying them (the full forward cone)
// would make memory explode for objects with long observation gaps and
// strong idle bias. The sweep's own support never leaves the forward
// cone, so restricting it to the backward cone alone (Reach.Backward)
// restricts it to the diamond.
func adaptGap(o *uncertain.Object, g int, reach *uncertain.Reach, bld *adjBuilder) (gapModel, error) {
	a, b := o.Obs[g], o.Obs[g+1]
	n := b.T - a.T
	// cone[k] is the set of states at a.T+k that can still reach b.
	// Computing it errors out on contradicting observations before any
	// heavy work happens.
	cone, err := reach.Backward(o, g)
	if err != nil {
		return gapModel{}, fmt.Errorf("inference: %w", err)
	}
	gm := gapModel{f: make([]*adj, n), post: make([]svec, n), fwd: make([]svec, n)}
	// r[k] holds R(a.T+k): row i is the distribution over predecessor
	// states at a.T+k-1 given being at state i at a.T+k (and past
	// observations). r[0] is nil (the sweep starts at a).
	r := make([]*adj, n+1)

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
				return gapModel{}, fmt.Errorf(
					"inference: object %d observation at t=%d (state %d) contradicts the chain",
					o.ID, t, b.State)
			}
			s = unitSvec(int32(b.State))
		} else {
			if !ns.normalizePruned(pruneEps) {
				return gapModel{}, fmt.Errorf("inference: object %d has no reachable states at t=%d", o.ID, t)
			}
			s = ns
		}
		r[t-a.T] = rt
		gm.fwd[t-a.T-1] = s
	}

	// Backward phase (lines 12-16), from the exact unit vector of b,
	// which s now is. A sweep over the whole object would arrive here
	// with the next gap's normalized single entry, x·(1/x); starting from
	// the unit vector keeps this gap a function of its own two
	// observations whatever that product rounds to.
	cur := s
	for t := b.T - 1; t >= a.T; t-- {
		rt := r[t+1-a.T]
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
		for row := range ft.src {
			if w := ft.off[row+1] - ft.off[row]; w > maxRowWidth {
				return gapModel{}, fmt.Errorf(
					"inference: object %d state %d at t=%d has %d adapted successors, more than a draw table row holds (%d)",
					o.ID, ft.src[row], t, w, maxRowWidth)
			}
		}
		ns.normalizePruned(pruneEps)
		gm.f[t-a.T] = ft
		gm.post[t-a.T] = ns
		cur = ns
	}
	bld.tris = tris
	return gm, nil
}

// at locates time t ∈ [Start, End): the gap model holding it and t's
// index there.
func (m *Model) at(t int) (*gapModel, int) {
	g := gapAt(m.obj.Obs, t)
	return &m.gaps[g], t - m.obj.Obs[g].T
}

// Object returns the object this model was adapted for.
func (m *Model) Object() *uncertain.Object { return m.obj }

// Start returns the first timestep covered by the model (the time of the
// first observation).
func (m *Model) Start() int { return m.start }

// End returns the last timestep covered by the model.
func (m *Model) End() int { return m.end }

// Posterior returns P(o(t) = · | Θ), the state distribution at time t given
// all observations. It returns nil outside [Start, End]. Each call builds
// a fresh vector.
func (m *Model) Posterior(t int) sparse.Vec {
	switch {
	case t < m.start || t > m.end:
		return nil
	case t == m.end:
		return unitSvec(int32(m.obj.Last().State)).toVec()
	}
	gm, i := m.at(t)
	return gm.post[i].toVec()
}

// Forward returns the forward-filtered marginal P(o(t) = · | observations
// at times <= t) — the paper's "F" ablation model. It returns nil outside
// [Start, End]. Each call builds a fresh vector.
func (m *Model) Forward(t int) sparse.Vec {
	switch {
	case t < m.start || t > m.end:
		return nil
	case t == m.start:
		return unitSvec(int32(m.obj.First().State)).toVec()
	}
	gm, i := m.at(t - 1)
	return gm.fwd[i].toVec()
}

// Transition returns F(t): the adapted transition model from time t to
// t+1. Row i is the successor distribution given o(t) = s_i. It returns
// nil for t outside [Start, End-1]. The map representation is built on
// demand; hot paths (the Sampler) read tables built from the flat
// storage.
func (m *Model) Transition(t int) sparse.RowMap {
	if t < m.start || t >= m.end {
		return nil
	}
	gm, i := m.at(t)
	return gm.f[i].toRowMap()
}

// gapAt returns the gap holding time t ∈ [obs[0].T, obs[len(obs)-1].T):
// the last g with obs[g].T <= t.
func gapAt(obs []uncertain.Observation, t int) int {
	lo, hi := 0, len(obs)-2
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if obs[mid].T <= t {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}
