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

// marks is the working memory of one Diamond or Backward call. Sets of
// states are slices; membership is a stamp per state equal to the
// current generation, so starting a new set costs one increment instead
// of a clear over the state space, which is paid only when the counter
// wraps. The set buffers keep their capacity between calls.
type marks struct {
	stamp         []uint32
	gen           uint32
	fwd, bwd, out sets
}

// sets is a sequence of state sets stored back to back: set i is
// buf[at[i]:at[i+1]].
type sets struct {
	buf []int32
	at  []int
}

func (c *sets) set(i int) []int32 { return c.buf[c.at[i]:c.at[i+1]] }

// markPool hands each call marks of its own: Reach is shared by
// concurrent callers and keeps no scratch state.
var markPool = sync.Pool{New: func() any { return new(marks) }}

// getMarks returns pooled marks whose stamps cover o's state space.
func getMarks(o *Object) *marks {
	mk := markPool.Get().(*marks)
	if n := o.Chain.NumStates(); len(mk.stamp) < n {
		mk.stamp, mk.gen = make([]uint32, n), 0
	}
	return mk
}

// next starts a new set and returns its stamp.
func (mk *marks) next() uint32 {
	mk.gen++
	if mk.gen == 0 {
		clear(mk.stamp)
		mk.gen = 1
	}
	return mk.gen
}

// sweep fills c with the frontiers of steps transitions from state s:
// set i+1 holds, once each, the states matrix m(i) leads to from set i.
func (mk *marks) sweep(c *sets, s int32, steps int, m func(i int) *sparse.CSR) {
	c.buf, c.at = append(c.buf[:0], s), append(c.at[:0], 0, 1)
	for i := 0; i < steps; i++ {
		g, mat := mk.next(), m(i)
		for _, from := range c.set(i) {
			cols, vals := mat.Row(int(from))
			for k, to := range cols {
				if vals[k] > 0 && mk.stamp[to] != g {
					mk.stamp[to] = g
					c.buf = append(c.buf, to)
				}
			}
		}
		c.at = append(c.at, len(c.buf))
	}
}

// backward sweeps gap's backward cone into mk.bwd, where set i holds the
// states at offset steps-i that can reach the gap's second observation,
// and returns steps. A state at any offset of the diamond lies on a path
// between the two observations, so the diamond is empty at every offset
// exactly when the first observation is outside the cone at offset 0.
func (r *Reach) backward(o *Object, gap int, mk *marks) (int, error) {
	if gap < 0 || gap >= len(o.Obs)-1 {
		return 0, fmt.Errorf("uncertain: object %d has no gap %d", o.ID, gap)
	}
	a, b := o.Obs[gap], o.Obs[gap+1]
	steps := b.T - a.T
	mk.sweep(&mk.bwd, int32(b.State), steps, func(i int) *sparse.CSR {
		return r.transpose(o.Chain.At(b.T - 1 - i))
	})
	if !slices.Contains(mk.bwd.set(steps), int32(a.State)) {
		return 0, fmt.Errorf(
			"uncertain: object %d observations at t=%d and t=%d are contradicting (no possible state at offset 0)",
			o.ID, a.T, b.T)
	}
	return steps, nil
}

// byOffset returns set(0) … set(steps) in one buffer of their total size.
func byOffset(steps int, set func(k int) []int32) [][]int32 {
	n := 0
	for k := 0; k <= steps; k++ {
		n += len(set(k))
	}
	buf := make([]int32, 0, n)
	out := make([][]int32, steps+1)
	for k := range out {
		lo := len(buf)
		buf = append(buf, set(k)...)
		out[k] = buf[lo:len(buf):len(buf)]
	}
	return out
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
	mk := getMarks(o)
	defer markPool.Put(mk)
	return r.diamond(o, gap, mk)
}

// diamond is Diamond with its working memory supplied.
func (r *Reach) diamond(o *Object, gap int, mk *marks) ([][]int32, error) {
	steps, err := r.backward(o, gap, mk)
	if err != nil {
		return nil, err
	}
	a := o.Obs[gap]
	mk.sweep(&mk.fwd, int32(a.State), steps, func(i int) *sparse.CSR { return o.Chain.At(a.T + i) })
	// Intersect offset by offset: mark the forward set, filter the
	// backward one.
	mk.out.buf, mk.out.at = mk.out.buf[:0], append(mk.out.at[:0], 0)
	for k := 0; k <= steps; k++ {
		g := mk.next()
		for _, s := range mk.fwd.set(k) {
			mk.stamp[s] = g
		}
		lo := len(mk.out.buf)
		for _, s := range mk.bwd.set(steps - k) {
			if mk.stamp[s] == g {
				mk.out.buf = append(mk.out.buf, s)
			}
		}
		slices.Sort(mk.out.buf[lo:])
		mk.out.at = append(mk.out.at, len(mk.out.buf))
	}
	return byOffset(steps, mk.out.set), nil
}

// Backward returns, for each timestep t of the gap as Diamond indexes
// it, the set of states (in no particular order) from which the chain
// can reach the gap's second observation at its time: the backward cone
// alone, half of Diamond's sweep and none of its sorting. A distribution
// propagated forward from the gap's first observation is supported
// inside the forward cone, so restricting it to these sets restricts it
// to the diamond. Contradicting observations give Diamond's error.
func (r *Reach) Backward(o *Object, gap int) ([][]int32, error) {
	mk := getMarks(o)
	defer markPool.Put(mk)
	steps, err := r.backward(o, gap, mk)
	if err != nil {
		return nil, err
	}
	return byOffset(steps, func(k int) []int32 { return mk.bwd.set(steps - k) }), nil
}
