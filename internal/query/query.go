// Package query implements the paper's three probabilistic nearest-neighbor
// query semantics over uncertain trajectory databases:
//
//   - P∃NNQ (Definition 1): objects likely to be the NN of q at SOME time
//     in the query interval — NP-hard to compute exactly (Lemma 1).
//   - P∀NNQ (Definition 2): objects likely to be the NN of q at EVERY time
//     in the interval — no known PTIME algorithm (Section 4.2).
//   - PCNNQ (Definition 3): per object, the maximal timestamp sets during
//     which it is likely to always be the NN, computed with the
//     Apriori-style Algorithm 1.
//
// The production path is Monte-Carlo: an Engine per shard supplies
// UST-tree pruning (Section 6) for candidate and influence sets and the
// forward-backward adapted samplers (Section 5), which the tree keeps per
// object version and builds from per-gap draw tables; a Plan run by
// ExecutePlan samples possible worlds with Hoeffding error control
// (plan.go). The shard package assembles the two into queries. Exact
// engines (possible-world enumeration and the Lemma 2 joint-chain
// domination) are provided for small instances and serve as ground truth
// in tests and effectiveness experiments; the snapshot estimator of [19]
// is included as the accuracy baseline of Figure 11.
package query

import (
	"errors"
	"sync/atomic"
	"time"

	"pnn/internal/geo"
	"pnn/internal/uncertain"
	"pnn/internal/ustree"
)

// Query is the certain reference of a PNN query: a state (point) or a
// trajectory, both exposed as a position per timestep (Section 3.2: "a
// query state is simply a trivial query trajectory").
type Query struct {
	pos func(int) geo.Point
}

// StateQuery returns a query fixed at point p for all times.
func StateQuery(p geo.Point) Query {
	return Query{pos: func(int) geo.Point { return p }}
}

// TrajectoryQuery returns a query following pts, where pts[i] is the
// position at time start+i. Positions clamp to the endpoints outside the
// given range. An empty pts yields the zero Query, which the engine
// rejects instead of dereferencing.
func TrajectoryQuery(start int, pts []geo.Point) Query {
	if len(pts) == 0 {
		return Query{}
	}
	cp := make([]geo.Point, len(pts))
	copy(cp, pts)
	return Query{pos: func(t int) geo.Point {
		i := t - start
		if i < 0 {
			i = 0
		}
		if i >= len(cp) {
			i = len(cp) - 1
		}
		return cp[i]
	}}
}

// At returns the query position at time t.
func (q Query) At(t int) geo.Point { return q.pos(t) }

// Zero reports whether q is the zero value, i.e. carries no reference.
// Zero queries are rejected by the engine rather than dereferenced.
func (q Query) Zero() bool { return q.pos == nil }

var errZeroQuery = errors.New("query: zero Query (build one with StateQuery or TrajectoryQuery)")

// Stats reports the work a query performed, split the way the paper's
// efficiency figures are: TS (model adaptation time), and the sampling/
// refinement time (FA/EX/SA in Figures 6-9, 13, 14).
type Stats struct {
	Candidates    int           // |C(q)|
	Influencers   int           // |I(q)|
	Worlds        int           // possible worlds actually drawn (samples_drawn)
	ErrorBound    float64       // Hoeffding ε those worlds guarantee; 0 when exact
	EarlyStopped  bool          // an adaptive plan decided before its budget cap
	LatticeSets   int           // PCNN only: qualifying timestamp sets before maximality filtering
	SamplerBuilds int           // samplers adapted by THIS query (0 on a warm cache)
	AdaptTime     time.Duration // trajectory-sampler initialization (TS)
	RefineTime    time.Duration // sampling + NN evaluation
}

// Engine is one shard's query configuration over one version of its
// index: the UST-tree that prunes a query window (PruneWindow) and holds
// the adapted sampler of every object (SamplerCached), mirroring the
// paper's split between the one-off TS phase and the per-query sampling
// phase. Queries are answered by the shard package over ExecutePlan.
// Engine is safe for concurrent use.
type Engine struct {
	tree     *ustree.Tree
	samples  int
	noPrune  bool
	parallel atomic.Int32

	// builds and hits are shared with every engine derived from this one
	// (NewEngineFrom), so CacheStats stays cumulative across versions.
	builds, hits *atomic.Int64
	reach        *uncertain.Reach // shared chain-transpose cache for adaptation
}

// NewEngine creates an engine over tree whose queries draw `samples`
// possible worlds (the paper's default is 10 000).
func NewEngine(tree *ustree.Tree, samples int) *Engine {
	if samples < 1 {
		samples = 1
	}
	e := &Engine{
		tree:    tree,
		samples: samples,
		builds:  new(atomic.Int64),
		hits:    new(atomic.Int64),
		reach:   uncertain.NewReach(),
	}
	e.parallel.Store(1)
	return e
}

// NewEngineFrom derives an engine over tree, a successor of prev's
// tree, carrying over prev's configuration. What the new version's
// samplers reuse is the tree's to decide: a derived tree shares the runs
// of untouched objects and the gap records of updated ones
// (ustree.Tree.WithUpdatedObject). The derived engine shares prev's
// cumulative counters and chain-transpose cache; prev itself stays
// fully usable over its own tree, which is how RCU-style snapshot swaps
// keep in-flight queries consistent.
func NewEngineFrom(prev *Engine, tree *ustree.Tree) *Engine {
	e := &Engine{
		tree:    tree,
		samples: prev.samples,
		noPrune: prev.noPrune,
		builds:  prev.builds,
		hits:    prev.hits,
		reach:   prev.reach,
	}
	e.parallel.Store(prev.parallel.Load())
	return e
}

// SetParallelism sets the worker count of PrepareAll and the world
// evaluation fan-out the shard executor reads back through Parallelism.
// Answers do not depend on it: every row draws from its own generator.
// p < 1 is treated as 1. Safe to call while queries are running.
func (e *Engine) SetParallelism(p int) {
	if p < 1 {
		p = 1
	}
	e.parallel.Store(int32(p))
}

// Parallelism returns the current evaluation fan-out.
func (e *Engine) Parallelism() int { return int(e.parallel.Load()) }

// Tree returns the underlying index.
func (e *Engine) Tree() *ustree.Tree { return e.tree }

// DisablePruning turns off the UST-tree filter step: every object alive in
// the query window is refined. Results are identical (pruning is
// lossless); only the cost changes. Exists solely for the pruning ablation
// benchmarks.
func (e *Engine) DisablePruning() { e.noPrune = true }

// SampleCount returns the number of worlds drawn per query.
func (e *Engine) SampleCount() int { return e.samples }
