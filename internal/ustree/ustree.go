// Package ustree implements the UST-tree of Section 6 (Emrich et al.,
// CIKM 2012 — reference [25]): a spatio-temporal index over uncertain
// trajectories. For every observation gap of every object it materializes
// the reachability diamond and bounds it with per-timestep rectangles,
// kept as one run of gaps per object in time order. The paper's access
// method over the gap MBRs is deliberately absent: the filter step needs
// every object whose lifetime meets the query interval (its pruning
// distance is a k-th smallest dmax over all of them), which a lifetime
// test per object answers, and what Section 6 contributes to it — the
// diamond approximation and dmin/dmax pruning — lives in the rectangles.
// In exchange an observation append costs the one gap it adds.
//
// Each gap record also holds the gap's draw tables (Algorithm 2's output
// in sampling form, Section 5.2), and each object's run the sampler
// assembled from them (Tree.Sampler), both built on first use. A gap's
// rectangles and tables depend only on its two observations and the
// chain, so the one decision of what a write carries over — which gaps
// an updated object keeps — serves both.
//
// At query time the index produces, for a query position function q(t) and
// a time interval T:
//
//   - the candidate set C∀(q): objects that could be the nearest neighbor
//     of q at EVERY t ∈ T (no other object's dmax is below their dmin
//     anywhere), and
//   - the influence set I∀(q): objects that could be the nearest neighbor
//     at SOME t ∈ T. Influence objects cannot be ∀-results themselves but
//     can prune possible worlds of candidates, so refinement must retain
//     them (Section 6, Figure 5).
//
// For P∃NN queries the influence set doubles as the candidate set, since
// being NN at a single timestep already qualifies.
package ustree

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"pnn/internal/geo"
	"pnn/internal/inference"
	"pnn/internal/space"
	"pnn/internal/uncertain"
)

// gapApprox is the record of one observation gap: per-timestep bounding
// rectangles of the diamond, and the gap's draw tables. Once built the
// rectangles are immutable; the record is copied by value between every
// tree version that indexes the gap, so the copies share draw, and with
// it the tables, built at most once.
type gapApprox struct {
	t0    int // first timestep covered
	rects []geo.Rect
	draw  *gapDraw // nil for a single observation's instant
}

// gapDraw holds a gap's draw tables (inference.AdaptGapTable), or the
// error their build returned, once the first sampler needing them has
// built them. Observations are exact, so the tables are a function of
// the gap's two observations and the chain alone, like its rectangles.
type gapDraw struct {
	once  sync.Once
	table *inference.GapTable
	err   error
}

// objRun is one version of one object in the index: its gaps in time
// order, indexed by gap, and the sampler assembled from their tables,
// built on first use. A single-observation object has one gap record
// covering its instant and a sampler over no gaps.
type objRun struct {
	gaps []gapApprox
	once sync.Once
	smp  *inference.Sampler
	err  error
}

// Tree is a UST-tree over a database of uncertain objects.
//
// Concurrency contract: a Tree is safe for any number of concurrent
// readers once construction finishes, but Insert must never run
// concurrently with readers. Serving systems therefore Freeze a tree
// before publishing it and route every mutation through a private
// Clone (copy-on-write), swapping the frozen copy in atomically — the
// discipline implemented by internal/store.
type Tree struct {
	sp   *space.Space
	objs []*uncertain.Object
	// runs[oi] holds the current version of object oi; versions of the
	// tree share the runs of the objects they do not change.
	runs    []*objRun
	leaves  int    // total number of gaps across runs
	horizon [2]int // min/max observed timestamps across the database
	frozen  bool   // published to concurrent readers; Insert refused
}

// BuildLenient is Build for noisy databases: objects whose observations
// contradict their chain are skipped instead of failing the whole build.
// It returns the tree over the consistent objects plus the positions (in
// the input slice) of the skipped ones. Each object's gaps are swept once:
// the sweep that would find a contradiction is the one that builds the
// object's run.
func BuildLenient(sp *space.Space, objs []*uncertain.Object, reach *uncertain.Reach) (*Tree, []int, error) {
	if reach == nil {
		reach = uncertain.NewReach()
	}
	t := newTree(sp, len(objs))
	var skipped []int
	for i, o := range objs {
		if _, err := t.Insert(o, reach); err != nil {
			skipped = append(skipped, i)
		}
	}
	return t, skipped, nil
}

// Build computes diamonds for every observation gap of every object and
// assembles the index. Objects whose observations contradict their chain
// produce an error, naming the object.
func Build(sp *space.Space, objs []*uncertain.Object, reach *uncertain.Reach) (*Tree, error) {
	if reach == nil {
		reach = uncertain.NewReach()
	}
	t := newTree(sp, len(objs))
	for _, o := range objs {
		if _, err := t.Insert(o, reach); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// newTree returns an empty tree with room for n objects.
func newTree(sp *space.Space, n int) *Tree {
	return &Tree{
		sp:      sp,
		objs:    make([]*uncertain.Object, 0, n),
		runs:    make([]*objRun, 0, n),
		horizon: [2]int{math.MaxInt32, math.MinInt32},
	}
}

// computeRun materializes the per-timestep rectangle approximation of
// every observation gap of o — the expensive reachability sweeps of the
// index build. Gaps o shares with prev (same two observations, same
// chain; prev may be nil) take their records from prevRun, prev's run,
// so only gaps prev does not have are swept, and the shared gaps keep
// their draw tables, built or not. This is the one place that decides
// what a write carries over.
func computeRun(sp *space.Space, o *uncertain.Object, reach *uncertain.Reach, prev *uncertain.Object, prevRun *objRun) (*objRun, error) {
	if len(o.Obs) == 1 {
		ob := o.Obs[0]
		r := geo.RectFromPoint(sp.Point(ob.State))
		return &objRun{gaps: []gapApprox{{t0: ob.T, rects: []geo.Rect{r}}}}, nil
	}
	same := o.SameGaps(prev)
	run := make([]gapApprox, len(same))
	for g, pg := range same {
		if pg >= 0 {
			run[g] = prevRun.gaps[pg]
			continue
		}
		d, err := reach.Diamond(o, g)
		if err != nil {
			return nil, fmt.Errorf("ustree: %w", err)
		}
		rects := make([]geo.Rect, len(d))
		for k, states := range d {
			r := geo.EmptyRect()
			for _, s := range states {
				r = r.ExtendPoint(sp.Point(int(s)))
			}
			rects[k] = r
		}
		run[g] = gapApprox{t0: o.Obs[g].T, rects: rects, draw: &gapDraw{}}
	}
	return &objRun{gaps: run}, nil
}

// setRun registers run as the gaps of the object at index oi, which
// t.objs[oi] already names, in place of whatever run it had. The horizon
// is extended, never rescanned: observations are only ever added.
func (t *Tree) setRun(oi int, run *objRun) {
	if prev := t.runs[oi]; prev != nil {
		t.leaves -= len(prev.gaps)
	}
	t.leaves += len(run.gaps)
	t.runs[oi] = run
	o := t.objs[oi]
	t.horizon[0] = min(t.horizon[0], o.First().T)
	t.horizon[1] = max(t.horizon[1], o.Last().T)
}

// Freeze marks the tree as published to concurrent readers: any later
// Insert is refused with an error. Freezing is irreversible; to mutate a
// frozen tree, Clone it and insert into the private copy.
func (t *Tree) Freeze() { t.frozen = true }

// Frozen reports whether the tree has been published via Freeze.
func (t *Tree) Frozen() bool { return t.frozen }

// Clone returns an unfrozen deep-enough copy for copy-on-write
// mutation: the object table and the run pointers are copied (two words
// per object), while the immutable space, objects and runs — rectangles,
// draw tables and samplers — are shared. Inserting into the clone leaves
// the original — and any reader holding it — untouched.
func (t *Tree) Clone() *Tree {
	return &Tree{
		sp:      t.sp,
		objs:    append([]*uncertain.Object(nil), t.objs...),
		runs:    append([]*objRun(nil), t.runs...),
		leaves:  t.leaves,
		horizon: t.horizon,
	}
}

// Insert appends one more object to the index (streaming ingestion). The
// object's diamonds are computed and appended as its run; its index in
// Objects() is returned. Insert is not safe for use concurrently with
// queries: a tree published to readers must be frozen, and mutation then
// flows through Clone (see the Tree concurrency contract).
func (t *Tree) Insert(o *uncertain.Object, reach *uncertain.Reach) (int, error) {
	if t.frozen {
		return 0, errors.New("ustree: Insert into frozen tree (published to readers); Clone it and insert into the copy")
	}
	if reach == nil {
		reach = uncertain.NewReach()
	}
	// Validate all gaps before mutating any state, so a contradicting
	// object cannot leave the tree half-updated.
	run, err := computeRun(t.sp, o, reach, nil, nil)
	if err != nil {
		return 0, err
	}
	oi := len(t.objs)
	t.objs = append(t.objs, o)
	t.runs = append(t.runs, nil)
	t.setRun(oi, run)
	return oi, nil
}

// WithUpdatedObject returns a new unfrozen tree equal to t except that
// the object at index oi is replaced by upd, which must carry every
// observation of the object it replaces — the index path of an
// observation write. It costs the gaps the write adds: a gap whose two
// observations are unchanged keeps its rectangles and its draw tables,
// and the reachability sweep (the cost that dominates index builds) runs
// only for the others — one for an append or a prepend, two where a late
// observation splits a gap; their tables are adapted when the updated
// object's sampler is first asked for. Beyond that the derived tree is a
// copy of the per-object headers with one run replaced; every other
// object's run, sampler included, is shared with t, whose readers keep
// their frozen view. A contradicting upd returns an error and leaves t
// untouched.
func (t *Tree) WithUpdatedObject(oi int, upd *uncertain.Object, reach *uncertain.Reach) (*Tree, error) {
	if oi < 0 || oi >= len(t.objs) {
		return nil, fmt.Errorf("ustree: no object at index %d", oi)
	}
	if reach == nil {
		reach = uncertain.NewReach()
	}
	run, err := computeRun(t.sp, upd, reach, t.objs[oi], t.runs[oi])
	if err != nil {
		return nil, err
	}
	nt := t.Clone()
	nt.objs[oi] = upd
	nt.setRun(oi, run)
	return nt, nil
}

// Len returns the number of indexed objects.
func (t *Tree) Len() int { return len(t.objs) }

// NumLeaves returns the number of indexed gaps ("diamonds").
func (t *Tree) NumLeaves() int { return t.leaves }

// Objects returns the indexed objects (shared slice; do not modify).
func (t *Tree) Objects() []*uncertain.Object { return t.objs }

// Space returns the underlying state space.
func (t *Tree) Space() *space.Space { return t.sp }

// Horizon returns the smallest and largest observation timestamps across
// the database.
func (t *Tree) Horizon() (int, int) { return t.horizon[0], t.horizon[1] }

// RectAt returns the bounding rectangle of object oi's possible states at
// time tt, and whether the object is alive at tt. When tt is an interior
// observation timestamp shared by two gaps, the tighter of the two
// rectangles applies (both are valid bounds).
func (t *Tree) RectAt(oi, tt int) (geo.Rect, bool) {
	o := t.objs[oi]
	if !o.Alive(tt) {
		return geo.EmptyRect(), false
	}
	if s, ok := o.ObservedAt(tt); ok {
		return geo.RectFromPoint(t.sp.Point(s)), true
	}
	g, ok := o.GapAt(tt)
	if !ok {
		return geo.EmptyRect(), false
	}
	ga := &t.runs[oi].gaps[g]
	return ga.rects[tt-ga.t0], true
}

// Sampler returns the a-posteriori sampler of object oi (Section 5.2),
// assembled from the draw tables of its gaps and built on first use:
// at most once per object version, and each gap's tables at most once
// across every tree version that shares the gap. built reports whether
// this call performed the build. Errors are kept like samplers, and a
// build that panics is kept as an error, so a poisoned object cannot
// block or crash later lookups. reach is the chain-transpose cache the
// build adapts with; nil allocates one. Safe for concurrent use.
func (t *Tree) Sampler(oi int, reach *uncertain.Reach) (s *inference.Sampler, built bool, err error) {
	r, o := t.runs[oi], t.objs[oi]
	r.once.Do(func() {
		built = true
		gaps := make([]*inference.GapTable, len(o.Obs)-1)
		for g := range gaps {
			if gaps[g], r.err = r.gaps[g].table(o, g, reach); r.err != nil {
				return
			}
		}
		r.smp = inference.AssembleSampler(o, gaps)
	})
	return r.smp, built, r.err
}

// table returns the draw tables of ga, gap g of o, building them on
// first use.
func (ga *gapApprox) table(o *uncertain.Object, g int, reach *uncertain.Reach) (*inference.GapTable, error) {
	d := ga.draw
	d.once.Do(func() {
		// The once is spent even if the build panics; keep the panic as
		// the gap's error, or every later sampler would draw from nil.
		defer func() {
			if p := recover(); p != nil {
				d.table, d.err = nil, fmt.Errorf("ustree: adapting gap %d of object %d panicked: %v", g, o.ID, p)
			}
		}()
		d.table, d.err = inference.AdaptGapTable(o, g, reach)
	})
	return d.table, d.err
}

// MayInfluence reports whether object oi can come within bound[t-ts] of
// q(t) at some t ∈ [ts, te] where it is alive — i.e. whether it may enter
// the influence region described by a Pruning computed over the same
// window. bound must have length te-ts+1; shorter bounds treat missing
// entries as +Inf (conservatively touching). It is the write-path touch
// test for standing queries: a false return proves the object cannot be
// the NN at any window time and therefore cannot change the answer.
func (t *Tree) MayInfluence(oi int, q func(int) geo.Point, ts, te int, bound []float64) bool {
	if oi < 0 || oi >= len(t.objs) {
		return false
	}
	for tt := ts; tt <= te; tt++ {
		r, alive := t.RectAt(oi, tt)
		if !alive {
			continue
		}
		if tt-ts >= len(bound) {
			return true
		}
		if r.MinDist(q(tt)) <= bound[tt-ts] {
			return true
		}
	}
	return false
}

// Pruning is the result of the filter step for one query.
type Pruning struct {
	// Candidates holds indices of objects that may satisfy the ∀-semantics
	// (alive throughout T, never strictly dominated).
	Candidates []int
	// Influencers holds indices of objects that may be the NN at at least
	// one t ∈ T. It is a superset of Candidates restricted to the alive
	// requirement per timestep; for P∃NN queries it is the refinement set.
	Influencers []int
	// PruneDist[t-ts] is the pruning threshold at time t: the k-th smallest
	// dmax over alive objects (+Inf when fewer than k are alive). An object
	// is an influencer iff its dmin reaches PruneDist at some window time,
	// so the thresholds describe the query's influence region: an updated
	// object whose rectangles stay strictly outside them at every t cannot
	// change the answer.
	PruneDist []float64
}

// Prune runs the UST-tree filter step for a query position function q
// (defined on [ts, te]) and the query interval T = [ts, te]. It walks the
// objects whose lifetime meets T, computes per-timestep dmin/dmax between
// each one's rectangle and q(t), and derives the candidate and influence
// sets of Section 6.
func (t *Tree) Prune(q func(int) geo.Point, ts, te int) Pruning {
	return t.PruneK(q, ts, te, 1)
}

// PruneK generalizes Prune to k-nearest-neighbor queries (Section 8): the
// per-timestep pruning distance becomes the k-th smallest dmax over alive
// objects, since an object whose dmin exceeds it is dominated by at least k
// objects in every possible world.
func (t *Tree) PruneK(q func(int) geo.Point, ts, te, k int) Pruning {
	if te < ts || k < 1 {
		return Pruning{}
	}
	nT := te - ts + 1

	// One pass over the objects whose lifetime meets the window, in index
	// order: dmins holds nT dmin values per such object (NaN where it is
	// not alive), and kth[i] the k smallest dmax seen at window offset i.
	var met []int
	var dmins []float64
	dmax := make([]float64, nT)
	kth := make([][]float64, nT)
	for oi, o := range t.objs {
		if o.Last().T < ts || o.First().T > te {
			continue
		}
		met = append(met, oi)
		for i := range dmax {
			dmins = append(dmins, math.NaN())
			dmax[i] = math.NaN()
		}
		dmin := dmins[len(dmins)-nT:]
		run := t.runs[oi].gaps
		for gi := range run {
			g := &run[gi]
			lo := max(ts, g.t0)
			hi := min(te, g.t0+len(g.rects)-1)
			for tt := lo; tt <= hi; tt++ {
				r := g.rects[tt-g.t0]
				qp := q(tt)
				dn, dx := r.MinDist(qp), r.MaxDist(qp)
				i := tt - ts
				// Two gaps may share a boundary timestep; both bounds hold, so
				// keep the tighter ones.
				if math.IsNaN(dmin[i]) || dn > dmin[i] {
					dmin[i] = dn
				}
				if math.IsNaN(dmax[i]) || dx < dmax[i] {
					dmax[i] = dx
				}
			}
		}
		for i, d := range dmax {
			if !math.IsNaN(d) {
				kth[i] = insertKSmallest(kth[i], d, k)
			}
		}
	}

	// Per-timestep pruning distance: the k-th smallest dmax over alive
	// objects (+Inf when fewer than k are alive).
	pruneDist := make([]float64, nT)
	for i := range pruneDist {
		pruneDist[i] = math.Inf(1)
		if len(kth[i]) == k {
			pruneDist[i] = kth[i][k-1]
		}
	}

	out := Pruning{PruneDist: pruneDist}
	for n, oi := range met {
		everNN := false
		alwaysNN := true
		for i, d := range dmins[n*nT : (n+1)*nT] {
			if d <= pruneDist[i] {
				everNN = true
			} else {
				// Dominated at i, or (NaN) not alive there.
				alwaysNN = false
			}
		}
		if everNN {
			out.Influencers = append(out.Influencers, oi)
		}
		if alwaysNN {
			out.Candidates = append(out.Candidates, oi)
		}
	}
	return out
}

// insertKSmallest maintains a sorted slice of the k smallest values seen.
func insertKSmallest(s []float64, v float64, k int) []float64 {
	pos := len(s)
	for pos > 0 && s[pos-1] > v {
		pos--
	}
	if pos >= k {
		return s
	}
	if len(s) < k {
		s = append(s, 0)
	}
	copy(s[pos+1:], s[pos:])
	s[pos] = v
	return s
}
