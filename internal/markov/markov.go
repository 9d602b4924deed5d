// Package markov models the a-priori stochastic process of the paper: a
// first-order, possibly time-inhomogeneous Markov chain over the discrete
// state space. The chain assigns each timestep t a row-stochastic
// transition matrix M(t) with M(t)[i][j] = P(o(t+1) = s_j | o(t) = s_i).
package markov

import (
	"errors"
	"fmt"
	"sort"

	"pnn/internal/sparse"
)

// Chain is a time-dependent first-order Markov chain. Implementations must
// be safe for concurrent readers.
type Chain interface {
	// NumStates returns |S|.
	NumStates() int
	// At returns the transition matrix in effect at time t (the matrix
	// that maps the distribution at t to the distribution at t+1). The
	// returned matrix is shared and must not be modified.
	At(t int) *sparse.CSR
}

// Homogeneous is a chain whose transition matrix does not change over time
// (the common case in the paper: one model per object, or one shared model
// trained from map data).
type Homogeneous struct {
	M *sparse.CSR
}

// NewHomogeneous validates m as a stochastic matrix and wraps it as a
// time-invariant chain.
func NewHomogeneous(m *sparse.CSR) (*Homogeneous, error) {
	if err := m.ValidateStochastic(1e-9); err != nil {
		return nil, fmt.Errorf("markov: %w", err)
	}
	return &Homogeneous{M: m}, nil
}

// NumStates implements Chain.
func (h *Homogeneous) NumStates() int { return h.M.N }

// At implements Chain; the same matrix applies at every time.
func (h *Homogeneous) At(int) *sparse.CSR { return h.M }

// Piecewise is a time-inhomogeneous chain assembled from epochs: matrix
// Mats[k] applies for all t in [Starts[k], Starts[k+1]). Before Starts[0]
// the first matrix applies. This supports the paper's NP-hardness gadget
// (Figure 2), where every timestep has its own transition matrix, as well
// as e.g. rush-hour/off-peak traffic models.
type Piecewise struct {
	starts []int
	mats   []*sparse.CSR
	n      int
}

// NewPiecewise builds a piecewise-constant chain. starts must be strictly
// increasing and the same length as mats; all matrices must be stochastic
// and share one dimension.
func NewPiecewise(starts []int, mats []*sparse.CSR) (*Piecewise, error) {
	if len(starts) == 0 || len(starts) != len(mats) {
		return nil, errors.New("markov: need equal, non-zero numbers of starts and matrices")
	}
	n := mats[0].N
	for k, m := range mats {
		if k > 0 && starts[k] <= starts[k-1] {
			return nil, errors.New("markov: starts must be strictly increasing")
		}
		if m.N != n {
			return nil, fmt.Errorf("markov: matrix %d has dimension %d, want %d", k, m.N, n)
		}
		if err := m.ValidateStochastic(1e-9); err != nil {
			return nil, fmt.Errorf("markov: matrix %d: %w", k, err)
		}
	}
	return &Piecewise{starts: starts, mats: mats, n: n}, nil
}

// NumStates implements Chain.
func (p *Piecewise) NumStates() int { return p.n }

// At implements Chain.
func (p *Piecewise) At(t int) *sparse.CSR {
	// Find the last epoch whose start is <= t.
	k := sort.SearchInts(p.starts, t+1) - 1
	if k < 0 {
		k = 0
	}
	return p.mats[k]
}

// Propagate advances distribution v from time t0 to time t1 (t1 >= t0)
// under chain c and returns the resulting distribution. v is not modified.
func Propagate(c Chain, v sparse.Vec, t0, t1 int) sparse.Vec {
	cur := v.Clone()
	for t := t0; t < t1; t++ {
		cur = c.At(t).MulVecLeft(cur)
	}
	return cur
}
