package uncertain

import (
	"fmt"
	"slices"
	"sync"

	"pnn/internal/sparse"
)

// Reach computes per-timestep reachable state sets. It caches transposed
// transition matrices keyed by matrix identity, so homogeneous chains (the
// common case) pay for one transpose no matter how many objects share the
// matrix. Reach is safe for concurrent use.
type Reach struct {
	mu sync.Mutex
	tr map[*sparse.CSR]*sparse.CSR
}

// NewReach returns an empty transpose cache.
func NewReach() *Reach { return &Reach{tr: make(map[*sparse.CSR]*sparse.CSR)} }

func (r *Reach) transpose(m *sparse.CSR) *sparse.CSR {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.tr[m]; ok {
		return t
	}
	t := m.Transpose()
	r.tr[m] = t
	return t
}

// Diamond returns, for each timestep t in [o.Obs[gap].T, o.Obs[gap+1].T],
// the sorted set of states the object can occupy at t: states reachable
// forward from the gap's first observation AND backward from its second
// (the bead/diamond of the paper, Figure 4). Index 0 of the result
// corresponds to the gap's start time.
//
// An empty set at any timestep means the two observations contradict the
// chain (the object cannot travel between them in the available time).
func (r *Reach) Diamond(o *Object, gap int) ([][]int32, error) {
	if gap < 0 || gap >= len(o.Obs)-1 {
		return nil, fmt.Errorf("uncertain: object %d has no gap %d", o.ID, gap)
	}
	a, b := o.Obs[gap], o.Obs[gap+1]
	steps := b.T - a.T
	fwd := make([]map[int32]struct{}, steps+1)
	fwd[0] = map[int32]struct{}{int32(a.State): {}}
	for k := 0; k < steps; k++ {
		m := o.Chain.At(a.T + k)
		next := make(map[int32]struct{}, len(fwd[k])*2)
		for s := range fwd[k] {
			cols, vals := m.Row(int(s))
			for i, c := range cols {
				if vals[i] > 0 {
					next[c] = struct{}{}
				}
			}
		}
		fwd[k+1] = next
	}
	// Backward pass over the transposed matrices.
	bwd := make([]map[int32]struct{}, steps+1)
	bwd[steps] = map[int32]struct{}{int32(b.State): {}}
	for k := steps; k > 0; k-- {
		mt := r.transpose(o.Chain.At(a.T + k - 1))
		prev := make(map[int32]struct{}, len(bwd[k])*2)
		for s := range bwd[k] {
			cols, vals := mt.Row(int(s))
			for i, c := range cols {
				if vals[i] > 0 {
					prev[c] = struct{}{}
				}
			}
		}
		bwd[k-1] = prev
	}
	out := make([][]int32, steps+1)
	for k := 0; k <= steps; k++ {
		small, large := fwd[k], bwd[k]
		if len(large) < len(small) {
			small, large = large, small
		}
		var states []int32
		for s := range small {
			if _, ok := large[s]; ok {
				states = append(states, s)
			}
		}
		if len(states) == 0 {
			return nil, fmt.Errorf(
				"uncertain: object %d observations at t=%d and t=%d are contradicting (no possible state at offset %d)",
				o.ID, a.T, b.T, k)
		}
		slices.Sort(states)
		out[k] = states
	}
	return out, nil
}

// CheckConsistent verifies that every pair of consecutive observations of o
// can be connected by the chain, i.e. the observation set is
// non-contradicting (a precondition of Algorithm 2).
func (r *Reach) CheckConsistent(o *Object) error {
	for g := 0; g < len(o.Obs)-1; g++ {
		if _, err := r.Diamond(o, g); err != nil {
			return err
		}
	}
	return nil
}
