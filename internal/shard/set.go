// Package shard partitions a live PNN database across S independent
// (UST-tree, query.Engine) snapshot stores and executes queries against
// all of them scatter-gather style. The paper's filter-refine pipeline
// decomposes cleanly over disjoint object sets: spatial pruning and
// Monte-Carlo refinement per candidate are independent across objects,
// so each shard prunes and samples its own partition in parallel and
// only the cheap per-world NN evaluation runs over the merged candidate
// sets.
//
// Sharding buys two things:
//
//   - Ingestion cost drops by a factor of S: AddObject/Observe route to
//     exactly one shard, so the copy-on-write clone behind every
//     published version touches 1/S of the index instead of all of it.
//   - Queries use S cores for the expensive scatter phase (model
//     adaptation and trajectory sampling).
//
// Objects are hash-partitioned by their caller-chosen ID, so routing is
// stateless and deterministic: the shard owning an object never depends
// on arrival order. Query answers are independent of the shard count —
// refinement draws every object's possible worlds from a sub-seed
// derived from the request seed and the object's ID alone (see
// query.go), and lossless pruning guarantees per-shard candidate
// supersets change no predicate. S-shard result sets are byte-identical
// to 1-shard result sets for the same seed.
//
// Version publication stays atomic across shards: the Set keeps a
// composite snapshot (the vector of per-shard snapshots plus a total
// version) behind one atomic pointer. Readers load the vector lock-free
// and keep a consistent cross-shard view for their whole lifetime;
// writers serialize on the Set, route the write to its shard, and
// publish the successor vector with one store.
package shard

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"pnn/internal/mcrand"
	"pnn/internal/query"
	"pnn/internal/space"
	"pnn/internal/store"
	"pnn/internal/uncertain"
)

// Snap is one immutable composite version of the sharded database: a
// consistent vector of per-shard snapshots. Like a store.Snapshot it
// stays valid forever; it just stops being current once a write lands.
type Snap struct {
	// Version increases by one with every published write, starting at 1
	// for the initial build (the sum over shards would jump by S at
	// startup and is useless as a client-visible write counter).
	Version int64
	// Parts holds one snapshot per shard, indexed by shard number. The
	// slice and its entries are read-only.
	Parts []*store.Snapshot
	// ChangedID tags the composite version with the object ID whose write
	// produced it (-1 for the initial build); see store.Snapshot.ChangedID.
	ChangedID int
	// shards is the routing fan-out the set was built with.
	shards int
}

// NumObjects returns the total object count across all shards of this
// composite version.
func (s *Snap) NumObjects() int {
	n := 0
	for _, p := range s.Parts {
		n += len(p.IDs)
	}
	return n
}

// ShardVersions returns the per-shard snapshot versions of this
// composite version, indexed by shard.
func (s *Snap) ShardVersions() []int64 {
	v := make([]int64, len(s.Parts))
	for i, p := range s.Parts {
		v[i] = p.Version
	}
	return v
}

// Locate returns the shard and engine index holding object id, or
// ok=false when the id is unknown to this version.
func (s *Snap) Locate(id int) (shard, oi int, ok bool) {
	shard = shardOf(id, s.shards)
	for i, oid := range s.Parts[shard].IDs {
		if oid == id {
			return shard, i, true
		}
	}
	return 0, 0, false
}

// Toucher resolves object id against this snapshot once and returns a
// predicate testing whether the object may enter the influence region
// of a window query (see Influence). It is the per-shard lookup on the
// write path of standing subscriptions: the returned closure captures
// the owning shard's tree and engine index, so testing one object
// against many subscriptions costs one rectangle sweep per window, no
// map lookups. Unknown IDs yield an always-true predicate — claiming
// influence is always safe.
func (s *Snap) Toucher(id int) func(q query.Query, ts, te int, bound []float64) bool {
	si, oi, ok := s.Locate(id)
	if !ok {
		return func(query.Query, int, int, []float64) bool { return true }
	}
	tree := s.Parts[si].Engine.Tree()
	return func(q query.Query, ts, te int, bound []float64) bool {
		if q.Zero() || te < ts {
			return true
		}
		return tree.MayInfluence(oi, q.At, ts, te, bound)
	}
}

// Set is a sharded store: S partitions, each an independent store.Store
// with its own RCU snapshot chain, glued together by composite
// versioning. It is safe for concurrent use: any number of goroutines
// may Snapshot/query while others AddObject/Observe.
type Set struct {
	shards []*store.Store

	mu  sync.Mutex // serializes writers; never held by readers
	cur atomic.Pointer[Snap]

	// dur is the write-ahead-log + spill state of a durable set (see
	// durable.go); nil for a volatile one.
	dur *durState
}

// shardOf routes an object ID to its shard. The hash must be stable
// across processes and shard-set rebuilds — the partition an object
// lands in is part of the system's observable behavior (per-shard
// versions, routing tests), so no per-process seeding. The mixer is
// the same splitmix64 finalizer the seed-derivation contract uses.
func shardOf(id, shards int) int {
	if shards <= 1 {
		return 0
	}
	return int(mcrand.Mix64(uint64(id)) % uint64(shards))
}

// New partitions objs across `shards` stores by object-ID hash and
// returns the set at composite version 1, each engine drawing `samples`
// possible worlds per query. shards < 1 is treated as 1. Object IDs
// must be unique; observations contradicting an object's chain fail the
// build.
func New(sp *space.Space, objs []*uncertain.Object, samples, shards int) (*Set, error) {
	set, _, err := build(sp, objs, samples, shards, false)
	return set, err
}

// NewLenient is New for noisy data: objects whose observations
// contradict their chain are dropped rather than failing the build. It
// returns the positions (in objs) of the skipped objects, ascending.
func NewLenient(sp *space.Space, objs []*uncertain.Object, samples, shards int) (*Set, []int, error) {
	return build(sp, objs, samples, shards, true)
}

// partition splits objs across shards by ID hash, preserving input
// order within each shard and remembering the original positions so
// lenient skips can be reported against the caller's slice.
func partition(objs []*uncertain.Object, shards int) (parts [][]*uncertain.Object, origin [][]int, err error) {
	parts = make([][]*uncertain.Object, shards)
	origin = make([][]int, shards)
	seen := make(map[int]bool, len(objs))
	for i, o := range objs {
		if seen[o.ID] {
			return nil, nil, fmt.Errorf("shard: duplicate object id %d", o.ID)
		}
		seen[o.ID] = true
		si := shardOf(o.ID, shards)
		parts[si] = append(parts[si], o)
		origin[si] = append(origin[si], i)
	}
	return parts, origin, nil
}

func build(sp *space.Space, objs []*uncertain.Object, samples, shards int, lenient bool) (*Set, []int, error) {
	if shards < 1 {
		shards = 1
	}
	parts, origin, err := partition(objs, shards)
	if err != nil {
		return nil, nil, err
	}
	s := &Set{shards: make([]*store.Store, shards)}
	snap := &Snap{Version: 1, Parts: make([]*store.Snapshot, shards), ChangedID: -1, shards: shards}
	var skipped []int
	for si := range s.shards {
		var st *store.Store
		var err error
		if lenient {
			var skippedLocal []int
			st, skippedLocal, err = store.NewLenient(sp, parts[si], samples)
			for _, li := range skippedLocal {
				skipped = append(skipped, origin[si][li])
			}
		} else {
			st, err = store.New(sp, parts[si], samples)
		}
		if err != nil {
			return nil, nil, err
		}
		s.shards[si] = st
		snap.Parts[si] = st.Snapshot()
	}
	sort.Ints(skipped)
	s.cur.Store(snap)
	return s, skipped, nil
}

// Snapshot returns the current composite version. The result is
// immutable and mutually consistent across shards.
func (s *Set) Snapshot() *Snap { return s.cur.Load() }

// Version returns the current composite version. Successive calls
// return non-decreasing values; each successful write advances it by
// exactly one.
func (s *Set) Version() int64 { return s.cur.Load().Version }

// NumShards returns the partition fan-out the set was built with.
func (s *Set) NumShards() int { return len(s.shards) }

// ShardFor returns the shard an object ID routes to.
func (s *Set) ShardFor(id int) int { return shardOf(id, len(s.shards)) }

// NumObjects returns the total object count of the current composite
// snapshot.
func (s *Set) NumObjects() int { return s.cur.Load().NumObjects() }

// SetParallelism sets the engine parallelism on every shard (and every
// engine derived from them by later writes): the worker count of
// PrepareAll and of the gather-phase world evaluation. Answers never
// depend on it.
func (s *Set) SetParallelism(workers int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, st := range s.shards {
		st.SetParallelism(workers)
	}
}

// AddObject routes a new object to its shard by ID hash, publishes the
// successor composite snapshot and returns it. Only the owning shard's
// index is cloned — the 1/S copy-on-write saving that motivates
// sharding ingestion-heavy deployments. The ID must be unused and the
// observations consistent with the object's chain; rejected writes
// leave the current composite snapshot untouched.
func (s *Set) AddObject(o *uncertain.Object) (*Snap, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dur != nil && s.dur.err != nil {
		return nil, s.dur.err
	}
	si := shardOf(o.ID, len(s.shards))
	part, err := s.shards[si].AddObject(o)
	if err != nil {
		return nil, err
	}
	if s.dur != nil {
		// Log after the store validated and applied the write, before the
		// composite version is published: every WAL record is replayable
		// and every acknowledged write is logged.
		rec := store.WALRecord{Version: part.Version, Op: store.OpAdd, ID: o.ID, Obs: o.Obs}
		if err := s.logWrite(si, rec); err != nil {
			return nil, err
		}
	}
	return s.publish(si, part), nil
}

// Observe routes an observation append to the shard owning id and
// publishes the successor composite snapshot, which it returns. The
// same acceptance rules as store.Store.Observe apply; rejected writes
// leave the current composite snapshot untouched.
func (s *Set) Observe(id int, obs []uncertain.Observation) (*Snap, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dur != nil && s.dur.err != nil {
		return nil, s.dur.err
	}
	si := shardOf(id, len(s.shards))
	part, err := s.shards[si].Observe(id, obs)
	if err != nil {
		return nil, err
	}
	if s.dur != nil {
		// The record carries only the delta: replay re-issues the exact
		// Observe call, and the merge happens in the store again.
		rec := store.WALRecord{Version: part.Version, Op: store.OpObserve, ID: id, Obs: obs}
		if err := s.logWrite(si, rec); err != nil {
			return nil, err
		}
	}
	return s.publish(si, part), nil
}

// publish installs the updated shard snapshot into a successor
// composite vector. Callers hold s.mu.
func (s *Set) publish(si int, part *store.Snapshot) *Snap {
	cur := s.cur.Load()
	next := &Snap{
		Version:   cur.Version + 1,
		Parts:     append([]*store.Snapshot(nil), cur.Parts...),
		ChangedID: part.ChangedID,
		shards:    cur.shards,
	}
	next.Parts[si] = part
	s.cur.Store(next)
	return next
}

// CacheStats sums the cumulative sampler-cache counters over all
// shards' engines.
func (s *Set) CacheStats() query.CacheStats {
	var out query.CacheStats
	for _, p := range s.cur.Load().Parts {
		cs := p.Engine.CacheStats()
		out.Builds += cs.Builds
		out.Hits += cs.Hits
	}
	return out
}

// PrepareAll adapts every object's model up front on all shards in
// parallel (the TS phase), so later queries pay only for sampling and
// evaluation.
func (s *Set) PrepareAll() error {
	snap := s.cur.Load()
	errs := make([]error, len(snap.Parts))
	var wg sync.WaitGroup
	for i, p := range snap.Parts {
		wg.Add(1)
		go func(i int, e *query.Engine) {
			defer wg.Done()
			_, errs[i] = e.PrepareAll()
		}(i, p.Engine)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
