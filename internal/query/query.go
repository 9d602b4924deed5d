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
// The production path is the Monte-Carlo Engine: UST-tree pruning
// (Section 6) to obtain candidate and influence sets, forward-backward
// model adaptation (Section 5), and possible-world sampling with Hoeffding
// error control. Exact engines (possible-world enumeration and the Lemma 2
// joint-chain domination) are provided for small instances and serve as
// ground truth in tests and effectiveness experiments; the snapshot
// estimator of [19] is included as the accuracy baseline of Figure 11.
package query

import (
	"errors"
	"fmt"
	"math/rand"
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

// Result is one probabilistic query answer.
type Result struct {
	Obj  int     // index into the engine's object table
	Prob float64 // estimated probability
}

// IntervalResult is one PCNN answer: a maximal timestamp set during which
// the object is always the NN with probability at least τ.
type IntervalResult struct {
	Obj   int
	Times []int // ascending; not necessarily contiguous (Definition 3)
	Prob  float64
}

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

// Engine answers PNN queries over a UST-tree-indexed database by
// Monte-Carlo simulation. It caches adapted models and samplers per
// object (see cache.go), mirroring the paper's split between the one-off
// TS phase and the per-query sampling phase. Engine is safe for
// concurrent queries.
type Engine struct {
	tree     *ustree.Tree
	samples  int
	noPrune  bool
	parallel atomic.Int32

	cache *samplerCache
	reach *uncertain.Reach // shared chain-transpose cache for adaptation
}

// NewEngine creates a query engine drawing `samples` possible worlds per
// query (the paper's default is 10 000).
func NewEngine(tree *ustree.Tree, samples int) *Engine {
	if samples < 1 {
		samples = 1
	}
	e := &Engine{
		tree:    tree,
		samples: samples,
		cache:   newSamplerCache(),
		reach:   uncertain.NewReach(),
	}
	e.parallel.Store(1)
	return e
}

// NewEngineFrom derives an engine over tree, carrying over prev's
// configuration and sampler cache except for the object indices in
// invalidate, whose models must be re-adapted against their updated
// observations — lazily, at the next query that touches them, and
// extending the sampler they had (inference.ExtendSampler) where it was
// complete. Object indices must mean the same thing in both trees
// (appends and in-place updates preserve them). The derived engine
// shares prev's cumulative cache counters and chain-transpose cache;
// prev itself stays fully usable over its own tree, which is how
// RCU-style snapshot swaps keep in-flight queries consistent.
func NewEngineFrom(prev *Engine, tree *ustree.Tree, invalidate []int) *Engine {
	e := &Engine{
		tree:    tree,
		samples: prev.samples,
		noPrune: prev.noPrune,
		cache:   prev.cache.deriveWithout(invalidate),
		reach:   prev.reach,
	}
	e.parallel.Store(prev.parallel.Load())
	return e
}

// SetParallelism spreads world sampling of ForAllNN/ExistsNN (and their
// kNN variants) across p goroutines. Results remain deterministic for a
// given seed: worker w draws its worlds from a sub-generator seeded by the
// caller's rng, and the static partition of the sample budget does not
// depend on timing. p < 1 is treated as 1. Safe to call while queries
// are running.
func (e *Engine) SetParallelism(p int) {
	if p < 1 {
		p = 1
	}
	e.parallel.Store(int32(p))
}

// Parallelism returns the current per-query sampling parallelism.
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

// ForAllNNSeed answers P∀NNQ(q, D, [ts..te], tau): all objects whose
// probability of being the NN of q at every t in the interval is at least
// tau, with their estimated probabilities, sorted by object index.
// Worlds are drawn from sub-streams of seed (see plan.go for the
// determinism contract); answers depend only on (seed, parallelism).
func (e *Engine) ForAllNNSeed(q Query, ts, te int, tau float64, seed int64) ([]Result, Stats, error) {
	return e.nnQuery(q, ts, te, 1, tau, fixedSeed(seed), true)
}

// ExistsNNSeed answers P∃NNQ(q, D, [ts..te], tau) from sub-streams of
// seed.
func (e *Engine) ExistsNNSeed(q Query, ts, te int, tau float64, seed int64) ([]Result, Stats, error) {
	return e.nnQuery(q, ts, te, 1, tau, fixedSeed(seed), false)
}

// ForAllKNNSeed generalizes ForAllNNSeed to k nearest neighbors
// (Section 8): the probability that the object is among the k nearest
// at every time.
func (e *Engine) ForAllKNNSeed(q Query, ts, te, k int, tau float64, seed int64) ([]Result, Stats, error) {
	return e.nnQuery(q, ts, te, k, tau, fixedSeed(seed), true)
}

// ExistsKNNSeed generalizes ExistsNNSeed to k nearest neighbors.
func (e *Engine) ExistsKNNSeed(q Query, ts, te, k int, tau float64, seed int64) ([]Result, Stats, error) {
	return e.nnQuery(q, ts, te, k, tau, fixedSeed(seed), false)
}

// ForAllKNNConf is ForAllKNNSeed under an adaptive sample-budget
// policy: sampling stops at the first deterministic chunk-round
// boundary at which every candidate's estimate separates from tau by
// more than the Hoeffding error, or escalates to conf's budget cap.
// Stats reports the worlds actually drawn and the error bound they
// guarantee. The zero Confidence draws the fixed budget exactly.
func (e *Engine) ForAllKNNConf(q Query, ts, te, k int, tau float64, seed int64, conf Confidence) ([]Result, Stats, error) {
	return e.nnQueryConf(q, ts, te, k, tau, fixedSeed(seed), true, conf)
}

// ExistsKNNConf is ExistsKNNSeed under an adaptive sample-budget
// policy; see ForAllKNNConf.
func (e *Engine) ExistsKNNConf(q Query, ts, te, k int, tau float64, seed int64, conf Confidence) ([]Result, Stats, error) {
	return e.nnQueryConf(q, ts, te, k, tau, fixedSeed(seed), false, conf)
}

// ForAllNN is ForAllNNSeed with the legacy generator signature: the
// base seed is one Int63 drawn from rng. The draw happens at the point
// the historical implementation consumed it -- after the empty-target
// early return -- so callers sharing one generator across queries
// observe byte-identical sequences.
func (e *Engine) ForAllNN(q Query, ts, te int, tau float64, rng *rand.Rand) ([]Result, Stats, error) {
	return e.nnQuery(q, ts, te, 1, tau, rng.Int63, true)
}

// ExistsNN is ExistsNNSeed with the legacy generator signature.
func (e *Engine) ExistsNN(q Query, ts, te int, tau float64, rng *rand.Rand) ([]Result, Stats, error) {
	return e.nnQuery(q, ts, te, 1, tau, rng.Int63, false)
}

// ForAllKNN is ForAllKNNSeed with the legacy generator signature.
func (e *Engine) ForAllKNN(q Query, ts, te, k int, tau float64, rng *rand.Rand) ([]Result, Stats, error) {
	return e.nnQuery(q, ts, te, k, tau, rng.Int63, true)
}

// ExistsKNN is ExistsKNNSeed with the legacy generator signature.
func (e *Engine) ExistsKNN(q Query, ts, te, k int, tau float64, rng *rand.Rand) ([]Result, Stats, error) {
	return e.nnQuery(q, ts, te, k, tau, rng.Int63, false)
}

// fixedSeed adapts an int64 seed to the lazy seed-provider shape shared
// with the legacy *rand.Rand wrappers.
func fixedSeed(seed int64) func() int64 { return func() int64 { return seed } }

// nnQuery answers the count-based semantics (∀/∃, any k) as a
// thin plan construction over the shared executor: prune, adapt
// samplers, attach a CountEvaluator, Execute. seed is consulted lazily
// -- only when worlds are actually drawn -- which keeps the legacy
// wrappers' generator consumption identical to the historical
// implementation.
func (e *Engine) nnQuery(q Query, ts, te, k int, tau float64, seed func() int64, forall bool) ([]Result, Stats, error) {
	return e.nnQueryConf(q, ts, te, k, tau, seed, forall, Confidence{})
}

// nnQueryConf is nnQuery with an adaptive sample-budget policy; the
// zero Confidence draws the engine's full fixed budget.
func (e *Engine) nnQueryConf(q Query, ts, te, k int, tau float64, seed func() int64, forall bool, conf Confidence) ([]Result, Stats, error) {
	var st Stats
	if q.Zero() {
		return nil, st, errZeroQuery
	}
	if te < ts {
		return nil, st, fmt.Errorf("query: inverted interval [%d, %d]", ts, te)
	}
	var pr ustree.Pruning
	if e.noPrune {
		pr = e.timePrune(ts, te)
	} else {
		pr = e.tree.PruneK(q.At, ts, te, k)
	}
	st.Candidates = len(pr.Candidates)
	st.Influencers = len(pr.Influencers)

	// For exists semantics every influencer is a potential result
	// (Section 6: "every pruner can be a valid result of the P∃NNQ
	// query").
	targets := pr.Candidates
	if !forall {
		targets = pr.Influencers
	}
	if len(targets) == 0 {
		return nil, st, nil
	}

	refine, samplers, adapt, built, err := e.buildSamplers(pr.Influencers)
	if err != nil {
		return nil, st, err
	}
	st.AdaptTime = adapt
	st.SamplerBuilds = built

	begin := time.Now()
	localIdx := make(map[int]int, len(refine))
	for li, oi := range refine {
		localIdx[oi] = li
	}
	tgtLocal := make([]int, len(targets))
	for ci, oi := range targets {
		tgtLocal[ci] = localIdx[oi]
	}
	ev := NewCountEvaluator(k, forall, tgtLocal)
	ev.SetBound(conf, tau)
	plan := e.NewPlan(q, ts, te, samplers, seed())
	plan.Confidence = conf
	plan.Attach(ev)
	es, err := e.Execute(plan)
	if err != nil {
		return nil, st, err
	}
	counts := ev.Counts()
	st.Worlds = es.Worlds
	st.ErrorBound = es.ErrorBound
	st.EarlyStopped = es.EarlyStopped
	st.RefineTime = time.Since(begin)

	var out []Result
	for ci, oi := range targets {
		p := float64(counts[ci]) / float64(es.Worlds)
		if p >= tau && p > 0 {
			out = append(out, Result{Obj: oi, Prob: p})
		}
	}
	return out, st, nil
}
