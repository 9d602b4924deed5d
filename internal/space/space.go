// Package space models the discrete state space S ⊂ R² of the paper: a
// finite set of possible locations embedded in the plane, connected into a
// motion network. It provides the builders used by the experimental
// evaluation (uniform synthetic networks with a configurable branching
// factor, grids for indoor scenarios, and center-skewed city networks for
// the taxi simulator), a nearest-state grid index, and shortest paths.
package space

import (
	"fmt"
	"slices"
	"sync"

	"pnn/internal/geo"
	"pnn/internal/sparse"
)

// Space is an immutable discrete state space: points s_1..s_|S| plus a
// symmetric neighbourhood relation. State indices are dense ints in
// [0, Len()).
type Space struct {
	pts    []geo.Point
	adj    [][]int32 // sorted neighbour lists, excluding self
	bounds geo.Rect
	index  *gridIndex

	transitions *sparse.CSR // lazily built default chain; see TransitionMatrix

	// Scratch state for ShortestPath, reset via epoch stamps.
	pathMu    sync.Mutex
	pathDist  []float64
	pathPrev  []int32
	pathSeen  []uint32
	pathEpoch uint32
}

// New assembles a Space from points and a neighbour relation. adj may be
// nil, in which case the space has no edges (every state is isolated).
// Neighbour lists are defensively sorted; self-edges and out-of-range
// entries are rejected.
func New(pts []geo.Point, adj [][]int32) (*Space, error) {
	if adj == nil {
		adj = make([][]int32, len(pts))
	}
	if len(adj) != len(pts) {
		return nil, fmt.Errorf("space: %d points but %d adjacency rows", len(pts), len(adj))
	}
	s := &Space{pts: pts, adj: adj, bounds: geo.RectFromPoints(pts...)}
	for i, row := range adj {
		for _, j := range row {
			if int(j) < 0 || int(j) >= len(pts) {
				return nil, fmt.Errorf("space: state %d has out-of-range neighbour %d", i, j)
			}
			if int(j) == i {
				return nil, fmt.Errorf("space: state %d has a self-edge", i)
			}
		}
		slices.Sort(row)
	}
	s.index = newGridIndex(pts, s.bounds)
	return s, nil
}

// Len returns the number of states |S|.
func (s *Space) Len() int { return len(s.pts) }

// Point returns the location of state i.
func (s *Space) Point(i int) geo.Point { return s.pts[i] }

// Points returns the backing point slice. It must not be modified.
func (s *Space) Points() []geo.Point { return s.pts }

// Bounds returns the minimum bounding rectangle of all states.
func (s *Space) Bounds() geo.Rect { return s.bounds }

// Neighbors returns the sorted neighbour list of state i. The slice aliases
// internal storage and must not be modified.
func (s *Space) Neighbors(i int) []int32 { return s.adj[i] }

// Degree returns the number of neighbours of state i.
func (s *Space) Degree(i int) int { return len(s.adj[i]) }

// AvgDegree returns the average vertex degree (the realized branching
// factor b of the paper's synthetic networks).
func (s *Space) AvgDegree() float64 {
	if len(s.pts) == 0 {
		return 0
	}
	total := 0
	for _, row := range s.adj {
		total += len(row)
	}
	return float64(total) / float64(len(s.pts))
}

// Dist returns the Euclidean distance between states i and j.
func (s *Space) Dist(i, j int) float64 { return s.pts[i].Dist(s.pts[j]) }

// DistTo returns the Euclidean distance between state i and an arbitrary
// point q.
func (s *Space) DistTo(i int, q geo.Point) float64 { return s.pts[i].Dist(q) }

// NearestState returns the state index closest to p, breaking ties towards
// the lower index. It panics on an empty space.
func (s *Space) NearestState(p geo.Point) int {
	return s.index.nearest(p, s.pts)
}

// StatesWithin returns all state indices within Euclidean distance r of p,
// in ascending index order.
func (s *Space) StatesWithin(p geo.Point, r float64) []int {
	return s.index.within(p, r, s.pts)
}

// TransitionMatrix returns the default a-priori Markov chain over this
// space: from each state, transition probability to each neighbour is
// inversely proportional to edge length (closer states are more likely, as
// in the paper's synthetic networks), plus a self-loop weight selfWeight
// that lets objects idle. Isolated states get a probability-1 self-loop.
// The result is cached: the matrix is immutable.
func (s *Space) TransitionMatrix(selfWeight float64) *sparse.CSR {
	if s.transitions != nil {
		return s.transitions
	}
	m, err := s.BuildTransitionMatrix(func(i, j int) float64 {
		if i == j {
			return selfWeight
		}
		d := s.Dist(i, j)
		if d == 0 {
			d = 1e-12
		}
		return 1 / d
	})
	if err != nil {
		// BuildTransitionMatrix only fails on negative weights, which the
		// closure above cannot produce for selfWeight >= 0.
		panic(err)
	}
	s.transitions = m
	return m
}

// BuildTransitionMatrix constructs a row-stochastic CSR chain from an
// arbitrary non-negative weight function over the edges of the space
// (including the self-edge (i, i)). Rows whose total weight is zero receive
// a probability-1 self-loop so the chain never loses mass.
func (s *Space) BuildTransitionMatrix(weight func(i, j int) float64) (*sparse.CSR, error) {
	elems := make([]sparse.Triplet, 0, len(s.pts)*4)
	for i := range s.pts {
		wSelf := weight(i, i)
		if wSelf < 0 {
			return nil, fmt.Errorf("space: negative self weight at state %d", i)
		}
		total := wSelf
		for _, j := range s.adj[i] {
			w := weight(i, int(j))
			if w < 0 {
				return nil, fmt.Errorf("space: negative weight on edge (%d,%d)", i, j)
			}
			total += w
		}
		if total == 0 {
			elems = append(elems, sparse.Triplet{Row: i, Col: i, Val: 1})
			continue
		}
		if wSelf > 0 {
			elems = append(elems, sparse.Triplet{Row: i, Col: i, Val: wSelf / total})
		}
		for _, j := range s.adj[i] {
			if w := weight(i, int(j)); w > 0 {
				elems = append(elems, sparse.Triplet{Row: i, Col: int(j), Val: w / total})
			}
		}
	}
	return sparse.NewCSR(len(s.pts), elems)
}
