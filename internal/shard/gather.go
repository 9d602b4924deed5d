package shard

import (
	"fmt"
	"sort"
	"time"

	"pnn/internal/inference"
	"pnn/internal/mcrand"
	"pnn/internal/query"
	"pnn/internal/space"
)

// GatherRow is one influencer row of a gather: the object's stable ID
// plus exactly one draw source. Local gathers carry the adapted sampler
// (worlds are drawn during evaluation from the row's private
// generator); cross-process gathers carry the state columns a peer
// pre-drew from that same generator (see Snap.Scatter), replayed
// through the shared executor. Either way the evaluated worlds are
// identical, which is what keeps distributed answers byte-identical to
// single-process ones.
type GatherRow struct {
	ID     int
	Smp    *inference.Sampler
	States []int32
}

// GatherInput is the merged scatter output one gather evaluates: the
// influencer rows, the candidate subset, the merged pruning thresholds,
// and the execution knobs. It is the RPC boundary of cluster mode — a
// coordinator builds one from peer scatter responses exactly like
// RunSharedInfluence builds one from its in-process shards.
type GatherInput struct {
	// Engine, when set, executes the plan (local path: engine defaults
	// fill Space). When nil, Space must be set and the plan runs through
	// query.ExecutePlan.
	Engine *query.Engine
	Space  *space.Space

	// Samples is the fixed per-query world budget; Workers the
	// evaluation fan-out (answers never depend on it).
	Samples int
	Workers int

	// Rows holds the merged influencers; Cands indexes the rows that
	// survived the ∀-filter. FillGroups optionally partitions row
	// indices for the parallel fill phase (nil: one group).
	Rows       []GatherRow
	FillGroups [][]int
	Cands      []int

	// PruneDist is the merged per-timestep influence threshold
	// (elementwise loosest over all shards of all peers).
	PruneDist []float64

	// Stats carries the scatter-phase accounting (candidates,
	// influencers, sampler builds, adapt time) into the answer.
	Stats query.Stats
}

// gather is the execution state of one Gather call.
type gather struct {
	spec  GroupSpec
	in    *GatherInput
	drawn int
	stats query.Stats
}

// Gather answers every item of a shared-world group over the merged
// scatter output in `in`. It is the second half of RunSharedInfluence,
// exported so a cluster coordinator can evaluate rows scattered by
// remote peers through the identical evaluator setup, executor, and
// refinement as a single-process query: given equal rows, candidates
// and spec, the answers (and the adaptive stop point) are
// byte-identical by construction.
func Gather(spec GroupSpec, items []GroupItem, in GatherInput) ([]GroupAnswer, query.Stats, Influence, error) {
	for _, it := range items {
		if it.Op == OpCNN && it.Tau <= 0 {
			return nil, in.Stats, Influence{}, fmt.Errorf("shard: PCNN requires tau > 0, got %v", it.Tau)
		}
	}
	if err := spec.Conf.Validate(); err != nil {
		return nil, in.Stats, Influence{}, err
	}
	g := &gather{spec: spec, in: &in, stats: in.Stats}
	inf := influenceOf(in.Rows, in.PruneDist)
	ts, te, k := spec.Ts, spec.Te, spec.K
	answers := make([]GroupAnswer, len(items))
	if len(in.Rows) == 0 {
		return answers, g.stats, inf, nil
	}
	begin := time.Now()

	// Attach at most one evaluator per predicate shape — members with
	// the same Op share counts/masks and differ only in their tau
	// filter. Under a confidence policy each evaluator's bound must
	// separate EVERY member tau of its Op, so the taus are collected
	// per shape and armed together; the group stops only when all
	// evaluators (hence all members) are decided.
	allRows := make([]int, len(in.Rows))
	for i := range allRows {
		allRows[i] = i
	}
	var faTaus, exTaus []float64
	for _, it := range items {
		switch it.Op {
		case OpForAll:
			faTaus = append(faTaus, it.Tau)
		case OpExists:
			exTaus = append(exTaus, it.Tau)
		}
	}
	var faEv, exEv *query.CountEvaluator
	var maskEv *query.MaskEvaluator
	var evs []query.Evaluator
	for _, it := range items {
		switch it.Op {
		case OpForAll:
			// For ∀ semantics only the merged candidates can answer; with
			// a fixed budget an empty candidate set needs no sampling for
			// this member. Under a confidence policy the evaluator is
			// attached even then: per-shard pruning supersets mean another
			// layout may carry extra (always-zero) candidate rows, and
			// only the always-attached evaluator's virtual-zero-row rule
			// keeps the group's stop decision identical across layouts.
			if faEv == nil && (len(in.Cands) > 0 || spec.Conf.Enabled()) {
				faEv = query.NewCountEvaluator(k, true, in.Cands)
				faEv.SetBound(spec.Conf, faTaus...)
				evs = append(evs, faEv)
			}
		case OpExists:
			if exEv == nil {
				exEv = query.NewCountEvaluator(k, false, allRows)
				exEv.SetBound(spec.Conf, exTaus...)
				evs = append(evs, exEv)
			}
		case OpCNN:
			if maskEv == nil {
				maskEv = query.NewMaskEvaluator(k, len(in.Rows), te-ts+1, spec.Conf.Budget(in.Samples))
				maskEv.SetBound(spec.Conf)
				evs = append(evs, maskEv)
			}
		}
	}
	if len(evs) > 0 {
		if err := g.execute(evs); err != nil {
			return nil, g.stats, inf, err
		}
	}

	var faCounts, exCounts []int
	if faEv != nil {
		faCounts = faEv.Counts()
	}
	if exEv != nil {
		exCounts = exEv.Counts()
	}
	// The lattice walk is the dominant refine cost at low tau, so mined
	// results are memoized per distinct tau: duplicate PCNN members
	// (standing subscriptions) pay for one walk, and LatticeSets counts
	// each walk once.
	type mined struct {
		ivs []IntervalResult
		err error
	}
	minedByTau := make(map[float64]mined)
	for i, it := range items {
		switch it.Op {
		case OpForAll:
			if faEv != nil {
				answers[i].Results = g.countResults(in.Cands, faCounts, it.Tau)
			}
		case OpExists:
			answers[i].Results = g.countResults(allRows, exCounts, it.Tau)
		case OpCNN:
			m, hit := minedByTau[it.Tau]
			if !hit {
				var lattice int
				// Only the worlds actually drawn were written; mining the
				// sliced prefix normalizes frequencies by drawn worlds.
				m.ivs, lattice, m.err = g.mineIntervals(maskEv.Masks()[:g.drawn], it.Tau)
				g.stats.LatticeSets += lattice
				minedByTau[it.Tau] = m
			}
			answers[i].Err = m.err
			if m.err != nil {
				continue
			}
			if !hit {
				answers[i].Intervals = m.ivs
				continue
			}
			// Memo hits get their own deep copy: two answers must never
			// share Times backing arrays, or a caller editing one
			// response in place would corrupt its twin.
			cp := make([]IntervalResult, len(m.ivs))
			for j, iv := range m.ivs {
				cp[j] = IntervalResult{ID: iv.ID, Times: append([]int(nil), iv.Times...), Prob: iv.Prob}
			}
			answers[i].Intervals = cp
		}
	}
	g.stats.RefineTime = time.Since(begin)
	return answers, g.stats, inf, nil
}

// influenceOf is the influence region of a gather over rows: their IDs,
// ascending, and the merged thresholds.
func influenceOf(rows []GatherRow, pruneDist []float64) Influence {
	inf := Influence{PruneDist: pruneDist}
	for _, r := range rows {
		inf.IDs = append(inf.IDs, r.ID)
	}
	sort.Ints(inf.IDs)
	return inf
}

// execute builds the plan of this gather — sampler rows drawing from
// their private (request seed, object ID) generators, or pre-drawn
// columns replayed at the same world indices — attaches the evaluators
// and runs it on the shared executor.
func (g *gather) execute(evs []query.Evaluator) error {
	in := g.in
	pl := &query.Plan{
		Query:      g.spec.Q,
		Ts:         g.spec.Ts,
		Te:         g.spec.Te,
		Samples:    in.Samples,
		Workers:    in.Workers,
		Confidence: g.spec.Conf,
		MinWorlds:  g.spec.MinWorlds,
		FillGroups: in.FillGroups,
	}
	if len(in.Rows) > 0 && in.Rows[0].States != nil {
		cols := make([][]int32, len(in.Rows))
		for i, r := range in.Rows {
			if r.States == nil {
				return fmt.Errorf("shard: gather mixes replay and sampler rows")
			}
			cols[i] = r.States
		}
		pl.Replay = cols
	} else {
		smps := make([]*inference.Sampler, len(in.Rows))
		rngs := make([]mcrand.RNG, len(in.Rows))
		for i, r := range in.Rows {
			if r.Smp == nil {
				return fmt.Errorf("shard: gather row %d has neither sampler nor replay columns", i)
			}
			smps[i] = r.Smp
			rngs[i] = mcrand.New(mcrand.SubSeed(g.spec.Seed, r.ID))
		}
		pl.Samplers = smps
		pl.RowRngs = rngs
	}
	for _, ev := range evs {
		pl.Attach(ev)
	}
	var es query.ExecStats
	var err error
	if in.Engine != nil {
		es, err = in.Engine.Execute(pl)
	} else {
		pl.Space = in.Space
		es, err = query.ExecutePlan(pl)
	}
	if err != nil {
		return err
	}
	g.drawn = es.Worlds
	g.stats.Worlds = es.Worlds
	g.stats.ErrorBound = es.ErrorBound
	g.stats.EarlyStopped = es.EarlyStopped
	return nil
}

// idOrder returns the given row indices sorted by object ID — the only
// report order that is stable under re-partitioning.
func (g *gather) idOrder(rows []int) []int {
	order := append([]int(nil), rows...)
	sort.Slice(order, func(a, b int) bool { return g.in.Rows[order[a]].ID < g.in.Rows[order[b]].ID })
	return order
}

// countResults converts per-target world counts into the tau-filtered,
// ID-ordered result set. targets[i] is the row index counted in
// counts[i].
func (g *gather) countResults(targets, counts []int, tau float64) []Result {
	targetOf := make(map[int]int, len(targets)) // row index -> target row
	for ci, ri := range targets {
		targetOf[ri] = ci
	}
	var out []Result
	for _, ri := range g.idOrder(targets) {
		p := float64(counts[targetOf[ri]]) / float64(g.drawn)
		if p >= tau && p > 0 {
			out = append(out, Result{ID: g.in.Rows[ri].ID, Prob: p})
		}
	}
	return out
}

// mineIntervals runs the Apriori lattice walk over the accumulated
// per-world masks for every row, in ID order, returning the maximal
// qualifying timestamp sets at threshold tau plus the number of
// qualifying lattice sets examined.
func (g *gather) mineIntervals(masks [][]bool, tau float64) ([]IntervalResult, int, error) {
	nT := g.spec.Te - g.spec.Ts + 1
	all := make([]int, len(g.in.Rows))
	for i := range all {
		all[i] = i
	}
	lattice := 0
	var out []IntervalResult
	for _, ri := range g.idOrder(all) {
		sets, qualifying, err := query.MineTimeSets(masks, ri, nT, tau)
		if err != nil {
			return nil, lattice, err
		}
		lattice += qualifying
		for _, ts2 := range sets {
			times := make([]int, len(ts2.Offsets))
			for i, off := range ts2.Offsets {
				times[i] = g.spec.Ts + off
			}
			out = append(out, IntervalResult{ID: g.in.Rows[ri].ID, Times: times, Prob: ts2.Prob})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].ID != out[b].ID {
			return out[a].ID < out[b].ID
		}
		return lessIntSlice(out[a].Times, out[b].Times)
	})
	return out, lattice, nil
}
