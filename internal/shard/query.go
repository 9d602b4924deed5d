package shard

import (
	"fmt"
	"math"
	"sync"
	"time"

	"pnn/internal/inference"
	"pnn/internal/query"
)

// Result is one probabilistic query answer, keyed by the caller-chosen
// object ID (engine indices are shard-local and meaningless across the
// set). Results are sorted by ID — the only order that is stable under
// re-partitioning.
type Result struct {
	ID   int
	Prob float64
}

// IntervalResult is one PCNN answer: a maximal timestamp set during
// which the object stays the likely (k-)NN.
type IntervalResult struct {
	ID    int
	Times []int
	Prob  float64
}

// entry is one influencer object of a scatter-gather query: where it
// lives, its stable ID, and its adapted sampler. Its possible worlds
// are drawn from a private generator seeded by mcrand.SubSeed(request
// seed, object ID) — keying on the object ID (never on shard or engine
// index) is what makes answers independent of the shard count: an
// object's sampled trajectories for a given request seed are the same
// whether it shares an engine with every other object or with none of
// them.
type entry struct {
	shard int
	oi    int // engine index within the shard
	id    int
	smp   *inference.Sampler
}

// exec is the scatter output of one scatter-gather query: the merged
// influencer entries (grouped by shard for the sampling phase) plus the
// merged candidate rows. Evaluation happens in Gather, which consumes
// this through a GatherInput.
type exec struct {
	samples int
	workers int

	entries   []entry
	byShard   [][]int   // entry indices per shard
	cands     []int     // entry indices that survived the ∀-filter
	pruneDist []float64 // per-timestep influence threshold, loosest over shards
	stats     query.Stats
}

// Influence summarizes the influence region of one evaluated spec: the
// influencer object IDs (ascending) and the per-timestep pruning
// threshold, taken as the elementwise loosest (largest) over shards so
// it bounds every shard's own threshold. An object that stays strictly
// outside PruneDist at every window time where it is alive cannot be
// among the k nearest at any time and therefore cannot change the
// spec's answer — the contract behind write-path subscription
// invalidation.
type Influence struct {
	IDs       []int
	PruneDist []float64
}

// scatter runs the filter step and sampler adaptation on every shard in
// parallel and merges the per-shard candidate/influence sets. Per-shard
// pruning distances are computed over fewer objects and are therefore
// only looser than the global ones, so the merged sets are supersets of
// the single-tree sets; because pruning is lossless (a pruned object is
// dominated by >= k objects in every possible world), the extra objects
// can neither win the NN predicate themselves nor flip it for anyone
// else — they surface as zero-probability rows that the tau/p>0 filter
// drops, keeping answers byte-identical across shard counts.
func (s *Snap) scatter(spec GroupSpec) (*exec, error) {
	begin := time.Now()
	x := &exec{
		samples: s.Parts[0].Engine.SampleCount(),
		workers: s.Parts[0].Engine.Parallelism(),
		byShard: make([][]int, len(s.Parts)),
	}
	q, ts, te, k := spec.Q, spec.Ts, spec.Te, spec.K
	// The scatter phase already runs one goroutine per shard; giving the
	// gather-phase world evaluation the same fan-out keeps the whole
	// pipeline at one concurrency budget, so a sharded set speeds up
	// queries even when no explicit parallelism was configured.
	if x.workers < len(s.Parts) {
		x.workers = len(s.Parts)
	}
	type shardPlan struct {
		influencers []int
		candidates  []int
		prune       []float64
		samplers    []*inference.Sampler
		built       int
		err         error
	}
	plans := make([]shardPlan, len(s.Parts))
	var wg sync.WaitGroup
	for si, p := range s.Parts {
		wg.Add(1)
		go func(si int, eng *query.Engine) {
			defer wg.Done()
			pl := &plans[si]
			pr, err := eng.PruneWindow(q, ts, te, k)
			if err != nil {
				pl.err = err
				return
			}
			pl.influencers = pr.Influencers
			pl.candidates = pr.Candidates
			pl.prune = pr.PruneDist
			if len(pl.prune) != te-ts+1 {
				// Unknown thresholds are no constraint at all: +Inf keeps
				// the merged region conservative.
				pl.prune = make([]float64, te-ts+1)
				for i := range pl.prune {
					pl.prune[i] = math.Inf(1)
				}
			}
			pl.samplers = make([]*inference.Sampler, len(pr.Influencers))
			for i, oi := range pr.Influencers {
				smp, built, err := eng.SamplerCached(oi)
				if err != nil {
					pl.err = err
					return
				}
				if built {
					pl.built++
				}
				pl.samplers[i] = smp
			}
		}(si, p.Engine)
	}
	wg.Wait()
	for si := range plans {
		pl := &plans[si]
		if pl.err != nil {
			return nil, pl.err
		}
		isCand := make(map[int]bool, len(pl.candidates))
		for _, oi := range pl.candidates {
			isCand[oi] = true
		}
		for i, oi := range pl.influencers {
			id := s.Parts[si].IDs[oi]
			ei := len(x.entries)
			x.entries = append(x.entries, entry{
				shard: si,
				oi:    oi,
				id:    id,
				smp:   pl.samplers[i],
			})
			x.byShard[si] = append(x.byShard[si], ei)
			if isCand[oi] {
				x.cands = append(x.cands, ei)
			}
		}
		x.stats.SamplerBuilds += pl.built
		// Per-shard thresholds are computed over fewer objects and are
		// therefore only looser; the elementwise max bounds them all.
		if x.pruneDist == nil {
			x.pruneDist = append([]float64(nil), pl.prune...)
		} else {
			for i := range x.pruneDist {
				if i < len(pl.prune) && pl.prune[i] > x.pruneDist[i] {
					x.pruneDist[i] = pl.prune[i]
				}
			}
		}
	}
	x.stats.Candidates = len(x.cands)
	x.stats.Influencers = len(x.entries)
	x.stats.AdaptTime = time.Since(begin)
	return x, nil
}

// GroupOp selects the predicate of one member of a shared-world group.
type GroupOp int

const (
	// OpForAll is P∀kNNQ: the object is among the k nearest at every
	// time in the window.
	OpForAll GroupOp = iota
	// OpExists is P∃kNNQ: the object is among the k nearest at some
	// time in the window.
	OpExists
	// OpCNN is PCkNNQ: maximal timestamp sets on which the object
	// stays among the k likely nearest. Tau must be positive.
	OpCNN
)

// GroupItem is one member of a shared-world group: a predicate plus its
// probability threshold. The sampled worlds are shared by every member;
// only the per-world predicate evaluation and the final tau filter
// differ.
type GroupItem struct {
	Op  GroupOp
	Tau float64
}

// GroupAnswer is the answer to one GroupItem, in the same position.
// Results is set for OpForAll/OpExists, Intervals for OpCNN. A
// per-item failure (e.g. the PCNN lattice cap) lands in Err without
// disturbing the other members.
type GroupAnswer struct {
	Results   []Result
	Intervals []IntervalResult
	Err       error
}

// GroupSpec is the shared part of a coalesced world-sharing group: the
// query reference, window, k, base seed, and the adaptive sample-budget
// policy. Everything in the spec is part of the group's coalescing key
// — two requests may share worlds only when their specs are identical,
// because the drawn worlds (and, under a policy, the early-stop point)
// are a pure function of the spec and the snapshot.
type GroupSpec struct {
	Q      query.Query
	Ts, Te int
	K      int
	Seed   int64
	Conf   query.Confidence
	// MinWorlds floors an adaptive group's early-stop decision (see
	// query.Plan.MinWorlds): Bound polls are skipped below the floor, so
	// the stop point is a function of (snapshot, spec) including the
	// floor. Like everything else in the spec it is part of the
	// coalescing key — requests with different floors stop at different
	// points and must not share worlds. Ignored when Conf is disabled.
	MinWorlds int
}

// RunShared answers every item of a shared-world group over ONE set of
// sampled possible worlds: the snapshot is pruned once for the union of
// the members' targets, samplers are adapted once, each world chunk is
// drawn once through the columnar kernel, and every member's evaluator
// consumes it. It is the batching primitive behind
// pnn.Processor.RunBatch's world sharing; the single-query paths are
// the one-member special case.
//
// Determinism: answers depend only on (snapshot, spec, the item's own
// Op and Tau) — adding or removing other members of the group changes
// nothing, because the worlds are a function of the influencer set and
// seed alone. Under an enabled spec.Conf the group additionally makes
// ONE shared early-stop decision: sampling continues until every
// member's predicate is decided (every Op's evaluator separates each
// member tau from its estimates, see query.CountEvaluator.SetBound), so
// a member may see more worlds inside a group than it would alone —
// never fewer, and extra worlds only tighten its estimate. The stop
// point is a deterministic function of (snapshot, spec, the set of
// member Ops and Taus).
func (s *Snap) RunShared(spec GroupSpec, items []GroupItem) ([]GroupAnswer, query.Stats, error) {
	answers, st, _, _, err := s.RunSharedInfluence(spec, items, nil)
	return answers, st, err
}

// RunSharedInfluence is RunShared, additionally reporting the influence
// region of the spec at this snapshot: which objects were sampled and
// how close an object must come to the query to matter. Standing
// subscriptions store it to decide, on each write, whether the updated
// object can possibly change their answer.
//
// It also returns the evaluation as a Carry for the next call, and
// takes the previous one (nil: none). The scatter always runs, so the
// candidates, influencers, sampler builds and influence region are
// fresh; the gather is skipped when prev was evaluated over the same
// inputs (see Carry), and the answers and sampling outcome are then
// prev's — byte-identical to what the gather would have produced.
func (s *Snap) RunSharedInfluence(spec GroupSpec, items []GroupItem, prev *Carry) ([]GroupAnswer, query.Stats, Influence, *Carry, error) {
	// Validate before paying for the scatter (Gather re-checks, so the
	// remote path rejects the same specs).
	for _, it := range items {
		if it.Op == OpCNN && it.Tau <= 0 {
			return nil, query.Stats{}, Influence{}, nil, fmt.Errorf("shard: PCNN requires tau > 0, got %v", it.Tau)
		}
	}
	if err := spec.Conf.Validate(); err != nil {
		return nil, query.Stats{}, Influence{}, nil, err
	}
	x, err := s.scatter(spec)
	if err != nil {
		return nil, query.Stats{}, Influence{}, nil, err
	}
	rows := make([]GatherRow, len(x.entries))
	for i, e := range x.entries {
		rows[i] = GatherRow{ID: e.id, Smp: e.smp}
	}
	next := newCarry(spec, items, x)
	if next.sameInputs(prev) {
		answers, st := next.replay(prev, x.stats)
		return answers, st, influenceOf(rows, x.pruneDist), next, nil
	}
	answers, st, inf, err := Gather(spec, items, GatherInput{
		Space:      s.Parts[0].Engine.Tree().Space(),
		Samples:    x.samples,
		Workers:    x.workers,
		Rows:       rows,
		FillGroups: x.byShard,
		Cands:      x.cands,
		PruneDist:  x.pruneDist,
		Stats:      x.stats,
	})
	if err != nil {
		return nil, st, inf, nil, err
	}
	next.answers, next.stats = answers, st
	answers, st = next.result(st)
	return answers, st, inf, next, nil
}

// ForAllKNN answers P∀kNNQ(q, D, [ts..te], tau) over the composite
// snapshot: all objects whose probability of being among the k nearest
// neighbors of q at every t in the interval is at least tau, sorted by
// object ID.
func (s *Snap) ForAllKNN(q query.Query, ts, te, k int, tau float64, seed int64) ([]Result, query.Stats, error) {
	return s.countQuery(GroupSpec{Q: q, Ts: ts, Te: te, K: k, Seed: seed}, GroupItem{Op: OpForAll, Tau: tau})
}

// ExistsKNN answers P∃kNNQ(q, D, [ts..te], tau) over the composite
// snapshot.
func (s *Snap) ExistsKNN(q query.Query, ts, te, k int, tau float64, seed int64) ([]Result, query.Stats, error) {
	return s.countQuery(GroupSpec{Q: q, Ts: ts, Te: te, K: k, Seed: seed}, GroupItem{Op: OpExists, Tau: tau})
}

func (s *Snap) countQuery(spec GroupSpec, item GroupItem) ([]Result, query.Stats, error) {
	ans, st, err := s.RunShared(spec, []GroupItem{item})
	if err != nil {
		return nil, st, err
	}
	return ans[0].Results, st, ans[0].Err
}

// CNNK answers PCkNNQ(q, D, [ts..te], tau) over the composite snapshot:
// per object the maximal timestamp sets on which it stays among the k
// likely nearest, sorted by (object ID, times).
func (s *Snap) CNNK(q query.Query, ts, te, k int, tau float64, seed int64) ([]IntervalResult, query.Stats, error) {
	ans, st, err := s.RunShared(GroupSpec{Q: q, Ts: ts, Te: te, K: k, Seed: seed}, []GroupItem{{Op: OpCNN, Tau: tau}})
	if err != nil {
		return nil, st, err
	}
	if ans[0].Err != nil {
		return nil, st, ans[0].Err
	}
	return ans[0].Intervals, st, nil
}

func lessIntSlice(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
