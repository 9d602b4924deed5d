// Package uncertain defines the paper's uncertain moving-object model: an
// object is a set of certain (time, state) observations Θ plus an a-priori
// Markov chain describing its motion in between. The package also computes
// per-timestep reachable state sets ("diamonds"): the states an object can
// possibly occupy at each time given two consecutive observations, which
// drive both the UST-tree approximations and the sampler's sanity checks.
package uncertain

import (
	"fmt"
	"slices"
	"sort"

	"pnn/internal/markov"
)

// Observation records that an object was certainly at state State at time T
// (Section 3.1: observation locations are assumed certain).
type Observation struct {
	T     int
	State int
}

// Object is one uncertain moving object: a unique ID, its observations in
// strictly increasing time order, and the a-priori Markov chain governing
// its motion. An object is defined ("alive") only on the closed interval
// [First().T, Last().T]; outside it, its position is undefined and it does
// not participate in queries.
type Object struct {
	ID    int
	Obs   []Observation
	Chain markov.Chain
}

// NewObject validates and constructs an uncertain object. Observations are
// sorted by time; duplicate timestamps and out-of-range states are
// rejected. Whether the observations contradict the chain is checked
// separately (and more expensively) by the reachability sweeps of index
// builds and model adaptation (Reach.Diamond, Reach.Backward).
func NewObject(id int, obs []Observation, chain markov.Chain) (*Object, error) {
	if len(obs) == 0 {
		return nil, fmt.Errorf("uncertain: object %d has no observations", id)
	}
	if chain == nil {
		return nil, fmt.Errorf("uncertain: object %d has no chain", id)
	}
	sorted := make([]Observation, len(obs))
	copy(sorted, obs)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].T < sorted[b].T })
	n := chain.NumStates()
	for i, ob := range sorted {
		if ob.State < 0 || ob.State >= n {
			return nil, fmt.Errorf("uncertain: object %d observation %d has state %d out of range [0,%d)", id, i, ob.State, n)
		}
		if i > 0 && ob.T == sorted[i-1].T {
			if ob.State != sorted[i-1].State {
				return nil, fmt.Errorf("uncertain: object %d has contradicting observations at t=%d", id, ob.T)
			}
			return nil, fmt.Errorf("uncertain: object %d has duplicate observation at t=%d", id, ob.T)
		}
	}
	return &Object{ID: id, Obs: sorted, Chain: chain}, nil
}

// First returns the earliest observation.
func (o *Object) First() Observation { return o.Obs[0] }

// Last returns the latest observation.
func (o *Object) Last() Observation { return o.Obs[len(o.Obs)-1] }

// Alive reports whether the object is defined at time t.
func (o *Object) Alive(t int) bool { return t >= o.First().T && t <= o.Last().T }

// AliveThroughout reports whether the object is defined on every t in
// [t0, t1].
func (o *Object) AliveThroughout(t0, t1 int) bool {
	return o.First().T <= t0 && t1 <= o.Last().T
}

// ObservedAt returns the observed state at time t, if t is an observation
// timestamp.
func (o *Object) ObservedAt(t int) (int, bool) {
	k := sort.Search(len(o.Obs), func(i int) bool { return o.Obs[i].T >= t })
	if k < len(o.Obs) && o.Obs[k].T == t {
		return o.Obs[k].State, true
	}
	return 0, false
}

// GapAt returns the index g of the observation gap [Obs[g].T, Obs[g+1].T]
// containing time t. The second result is false when t is outside the
// object's lifetime or the object has a single observation. Timestamps
// exactly on an interior observation belong to the gap that starts there,
// except the final observation which belongs to the last gap.
func (o *Object) GapAt(t int) (int, bool) {
	if !o.Alive(t) || len(o.Obs) < 2 {
		return 0, false
	}
	k := sort.Search(len(o.Obs), func(i int) bool { return o.Obs[i].T > t })
	// o.Obs[k-1].T <= t < o.Obs[k].T (or t == Last().T with k == len).
	g := k - 1
	if g == len(o.Obs)-1 {
		g-- // t equals the final observation time
	}
	return g, true
}

// SameGaps maps each observation gap g of o to the index of the identical
// gap of prev — the same two observations over the same chain — or -1
// where prev (which may be nil) has none. Observations are exact, so a
// gap's reachability diamond and its adapted model are functions of those
// two observations and the chain alone: whatever was computed for prev's
// gap holds for o's. This is what lets a write cost the gaps it adds.
func (o *Object) SameGaps(prev *Object) []int {
	same := make([]int, len(o.Obs)-1)
	pg := 0
	for g := range same {
		same[g] = -1
		if prev == nil || prev.Chain != o.Chain {
			continue
		}
		for pg+1 < len(prev.Obs) && prev.Obs[pg].T < o.Obs[g].T {
			pg++
		}
		if pg+1 < len(prev.Obs) && prev.Obs[pg] == o.Obs[g] && prev.Obs[pg+1] == o.Obs[g+1] {
			same[g] = pg
		}
	}
	return same
}

// SameWindow reports whether o and prev (which may be nil) have the same
// law over the window [ts, te]: the same chain, the same lifetime clip of
// the window, and identical observations from the last one at or before
// the clip start to the first one at or after the clip end. Those
// observations bound every gap the clip touches, and a gap's adapted
// model is a function of its two observations and the chain alone (see
// SameGaps), so a trajectory drawn over the window from the same
// generator is the same for both. Two objects whose clips are both empty
// never draw over the window and also count as the same.
func (o *Object) SameWindow(prev *Object, ts, te int) bool {
	if prev == nil {
		return false
	}
	cs, ce := o.clip(ts, te)
	ps, pe := prev.clip(ts, te)
	if ce < cs || pe < ps {
		return ce < cs && pe < ps
	}
	if prev.Chain != o.Chain || cs != ps || ce != pe {
		return false
	}
	return slices.Equal(o.bracket(cs, ce), prev.bracket(cs, ce))
}

// clip returns [ts, te] ∩ [First().T, Last().T]; ce < cs when empty.
func (o *Object) clip(ts, te int) (cs, ce int) {
	return max(ts, o.First().T), min(te, o.Last().T)
}

// bracket returns the observations from the last one at or before t0 to
// the first one at or after t1, for t0 <= t1 inside the lifetime.
func (o *Object) bracket(t0, t1 int) []Observation {
	lo := sort.Search(len(o.Obs), func(i int) bool { return o.Obs[i].T > t0 }) - 1
	hi := sort.Search(len(o.Obs), func(i int) bool { return o.Obs[i].T >= t1 })
	return o.Obs[lo : hi+1]
}

// Path is a concrete (certain) trajectory realization for one object: the
// state occupied at each timestep from Start to Start+len(States)-1.
type Path struct {
	Start  int
	States []int32
}

// At returns the state at time t; ok is false outside the path's span.
func (p Path) At(t int) (int, bool) {
	i := t - p.Start
	if i < 0 || i >= len(p.States) {
		return 0, false
	}
	return int(p.States[i]), true
}

// End returns the last timestamp covered by the path.
func (p Path) End() int { return p.Start + len(p.States) - 1 }

// HitsObservations reports whether the path passes through every
// observation of o that falls inside the path's span.
func (p Path) HitsObservations(o *Object) bool {
	for _, ob := range o.Obs {
		if s, ok := p.At(ob.T); ok && s != ob.State {
			return false
		}
	}
	return true
}
