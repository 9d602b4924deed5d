package shard

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"pnn/internal/mcrand"
)

// ScatterRow is one influencer of a remote scatter: the object's stable
// ID and its pre-drawn state columns. States holds Worlds consecutive
// columns of nT = Te-Ts+1 little int32 states each (-1 marking a dead
// timestep), drawn from the object's private (request seed, object ID)
// generator in world order — exactly the sequence the local evaluation
// loop would draw, which is what lets a coordinator replay them through
// Gather and obtain byte-identical answers.
type ScatterRow struct {
	ID     int
	States []int32
}

// ScatterResult is the answer of one peer's scatter phase: everything a
// coordinator needs to merge this peer's shard view into a gather — the
// influencer rows with their drawn worlds, the candidate IDs, the
// pruning thresholds, plus the snapshot version the scatter was served
// at (the torn-read detector) and scatter-phase accounting.
type ScatterResult struct {
	// Version and Versions pin the snapshot this scatter saw; a gather
	// combining scatters is consistent only if every peer's versions
	// match the coordinator's routing view.
	Version  int64
	Versions []int64

	// Samples is the peer's fixed per-query world budget; Worlds the
	// number of worlds actually drawn per row, spec.Conf.Budget(Samples).
	// Peers of one cluster must agree on Samples or answers would
	// normalize differently — the coordinator rejects mismatches.
	Samples int
	Worlds  int

	// Rows lists this peer's influencers; CandIDs (ascending) the
	// object IDs that survived the peer's ∀-filter; PruneDist the
	// per-timestep influence threshold, loosest over the peer's shards.
	Rows      []ScatterRow
	CandIDs   []int
	PruneDist []float64

	// SamplerBuilds and AdaptTime report the peer's scatter cost.
	SamplerBuilds int
	AdaptTime     time.Duration
}

// Scatter runs the filter step, sampler adaptation, and world drawing
// for one query spec over this snapshot and returns the result in wire
// form: per-influencer state columns instead of live samplers. It is
// the peer half of the cluster RPC boundary — Snap.RunSharedInfluence
// is exactly Scatter (minus the eager drawing) piped into Gather, so a
// coordinator that merges peers' ScatterResults and replays them
// through Gather computes the same answer a single process holding all
// objects would.
//
// The columns are drawn eagerly up to the worst-case budget
// spec.Conf.Budget(samples) because the adaptive early-stop decision is
// global to the gather: only the coordinator, seeing every peer's rows,
// can know where sampling stops, and it must be free to consume any
// prefix. Under a confidence policy this makes the shipped payload
// proportional to MaxSamples — the price of keeping the stop decision
// layout-independent.
//
// Any prefix it consumes is byte-identical to what a shorter draw would
// have produced: a row's worlds come from the row's own generator in
// world order, world w occupying States[w*nT:(w+1)*nT], so neither the
// other rows nor the worlds after w can reach those bytes. That is also
// what the wire relies on. The cluster package carries a result either
// as JSON or as a binary frame (layout in its package comment: a fixed
// header, then per row its ID, the distinct states of its column and
// the column as 1-, 2- or 4-byte indices into them); both are lossless
// per state and keep rows and worlds in this order, so a decoded result
// replays through Gather exactly like the one drawn here, and a future
// frame that stops after fewer worlds would carry a prefix of this one.
func (s *Snap) Scatter(spec GroupSpec) (*ScatterResult, error) {
	if err := spec.Conf.Validate(); err != nil {
		return nil, err
	}
	x, err := s.scatter(spec)
	if err != nil {
		return nil, err
	}
	nT := spec.Te - spec.Ts + 1
	maxN := spec.Conf.Budget(x.samples)
	res := &ScatterResult{
		Version:       s.Version,
		Versions:      s.ShardVersions(),
		Samples:       x.samples,
		Worlds:        maxN,
		Rows:          make([]ScatterRow, len(x.entries)),
		PruneDist:     x.pruneDist,
		SamplerBuilds: x.stats.SamplerBuilds,
		AdaptTime:     x.stats.AdaptTime,
	}
	for _, ei := range x.cands {
		res.CandIDs = append(res.CandIDs, x.entries[ei].id)
	}
	sort.Ints(res.CandIDs)
	// Draw with the same per-shard fan-out as the scatter itself. Row
	// draws are independent (each entry owns its generator), so groups
	// can run concurrently; within a row, worlds are drawn in order —
	// the invariant replay depends on.
	var wg sync.WaitGroup
	for _, group := range x.byShard {
		if len(group) == 0 {
			continue
		}
		wg.Add(1)
		go func(group []int) {
			defer wg.Done()
			for _, ei := range group {
				e := x.entries[ei]
				col := make([]int32, maxN*nT)
				rng := mcrand.New(mcrand.SubSeed(spec.Seed, e.id))
				for w := 0; w < maxN; w++ {
					e.smp.SampleWindowInto(&rng, spec.Ts, spec.Te, col[w*nT:(w+1)*nT])
				}
				res.Rows[ei] = ScatterRow{ID: e.id, States: col}
			}
		}(group)
	}
	wg.Wait()
	return res, nil
}

// MergeScatters combines per-peer scatter results (in a fixed peer
// order) into the GatherInput of the coordinator-side evaluation, plus
// the spec-level stats of the merged scatter. Rows keep peer order —
// answer construction orders by object ID, so row order never shows in
// responses — while candidates are re-indexed against the merged rows
// and pruning thresholds merge elementwise-loosest, mirroring how a
// single process merges its in-process shards. FillGroups gets one
// group per peer so the replay fill phase parallelizes the same way.
func MergeScatters(parts []*ScatterResult) (GatherInput, error) {
	var in GatherInput
	rowOf := make(map[int]int)
	var candIDs []int
	for pi, p := range parts {
		if p.Samples != parts[0].Samples {
			return GatherInput{}, fmt.Errorf("shard: scatter sample budgets disagree: peer 0 has %d, peer %d has %d", parts[0].Samples, pi, p.Samples)
		}
		var group []int
		for _, r := range p.Rows {
			if _, dup := rowOf[r.ID]; dup {
				return GatherInput{}, fmt.Errorf("shard: object %d scattered by more than one peer", r.ID)
			}
			ri := len(in.Rows)
			rowOf[r.ID] = ri
			in.Rows = append(in.Rows, GatherRow{ID: r.ID, States: r.States})
			group = append(group, ri)
		}
		in.FillGroups = append(in.FillGroups, group)
		candIDs = append(candIDs, p.CandIDs...)
		in.Stats.SamplerBuilds += p.SamplerBuilds
		if p.AdaptTime > in.Stats.AdaptTime {
			in.Stats.AdaptTime = p.AdaptTime
		}
		// Per-peer thresholds are computed over fewer objects and are
		// therefore only looser; the elementwise max bounds them all.
		if in.PruneDist == nil {
			in.PruneDist = append([]float64(nil), p.PruneDist...)
		} else {
			for i := range in.PruneDist {
				if i < len(p.PruneDist) && p.PruneDist[i] > in.PruneDist[i] {
					in.PruneDist[i] = p.PruneDist[i]
				}
			}
		}
	}
	if len(parts) > 0 {
		in.Samples = parts[0].Samples
	}
	sort.Ints(candIDs)
	for _, id := range candIDs {
		ri, ok := rowOf[id]
		if !ok {
			return GatherInput{}, fmt.Errorf("shard: candidate %d has no scattered row", id)
		}
		in.Cands = append(in.Cands, ri)
	}
	in.Stats.Candidates = len(in.Cands)
	in.Stats.Influencers = len(in.Rows)
	return in, nil
}
