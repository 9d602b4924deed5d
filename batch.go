package pnn

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"pnn/internal/mcrand"
	"pnn/internal/shard"
)

// Semantics selects the predicate of a batch Request.
type Semantics string

const (
	// ForAll is P∀NNQ: the object is the (k-)NN at every time in [Ts, Te].
	ForAll Semantics = "forall"
	// Exists is P∃NNQ: the object is the (k-)NN at some time in [Ts, Te].
	Exists Semantics = "exists"
	// Continuous is PCNNQ: maximal timestamp sets on which the object
	// stays the likely (k-)NN.
	Continuous Semantics = "cnn"
)

// Request is one independent query of a batch.
type Request struct {
	Semantics Semantics
	Query     Query
	Ts, Te    int
	K         int // k for kNN semantics; 0 means 1
	Tau       float64
	// Seed is the per-request RNG seed; with world sharing disabled,
	// results depend only on it, never on scheduling. With sharing
	// enabled the group seed takes over (see BatchOptions.SharedSeed)
	// and Seed is ignored.
	Seed int64
	// Confidence, when enabled, replaces the processor's fixed sample
	// budget with an adaptive one: sampling stops as soon as every
	// estimate separates from Tau by more than the Hoeffding error (or
	// the error itself reaches Confidence.Eps), escalating up to
	// Confidence.MaxSamples worlds. Under world sharing the policy joins
	// the group key — only requests with identical policies coalesce —
	// and the group stops only when every member is decided, so a member
	// may see more worlds than it would alone, never fewer. The zero
	// value keeps the fixed budget.
	Confidence Confidence
	// MinWorlds floors an adaptive query's early stop: it cannot decide
	// before this many worlds (rounded up to the executor's fixed
	// decision cadence). The floor is part of the determinism contract —
	// the answer is a pure function of (snapshot, seed, policy, floor) —
	// and joins the world-sharing group key. Standing queries set it
	// automatically to reuse their group's previously proven budget;
	// Response.Stats.WorldFloor reports the floor in effect. Ignored
	// when Confidence is disabled.
	MinWorlds int
}

// Response is the answer to one batch Request, in the same position.
// Results is set for ForAll/Exists, Intervals for Continuous.
//
// Stats.SamplerBuilds and adaptation time are reported at batch level
// (BatchStats), not per response: on a cold cache the single-flight
// sampler cache attributes each shared build to whichever request
// happened to win it, which depends on scheduling. The batch-level sum
// is scheduling-independent; the per-response field is always 0 here.
type Response struct {
	Results   []Result
	Intervals []IntervalResult
	Stats     Stats
	// Version identifies the snapshot the response answered from — the
	// per-shard version vector plus the composite maximum (see
	// VersionInfo). Every response path sets it, including failed ones:
	// an error is still an answer about a particular snapshot.
	Version VersionInfo
	Err     error
}

// BatchStats is the scheduling-independent work accounting of one
// RunBatch call. Unlike the per-response Stats of historical releases,
// every field is deterministic for a given processor state and batch:
// SamplerBuilds is the number of models the whole batch adapted (each
// shared build counted exactly once, no matter which request won it).
type BatchStats struct {
	// Requests is the number of requests answered (== len(reqs)).
	Requests int
	// SamplerBuilds is the number of model adaptations the batch
	// performed; 0 once the cache is warm for every influencer touched.
	SamplerBuilds int
	// AdaptTime is the summed model-adaptation wall time across the
	// batch's queries (the TS phase of the paper's experiments).
	AdaptTime time.Duration
	// Groups is the number of shared-world groups executed; 0 when
	// sharing was disabled. Requests-Groups sampling passes were saved
	// by coalescing.
	Groups int
}

// BatchOptions tunes RunBatchStats.
type BatchOptions struct {
	// Workers is the worker-pool size; 0 or less picks GOMAXPROCS.
	Workers int
	// ShareWorlds coalesces compatible requests — same query reference
	// over the window, same [Ts, Te], same k — into one plan that
	// prunes once, adapts samplers once and samples each possible world
	// once, evaluating every member's predicate per chunk. Responses
	// are then estimated from shared worlds: probabilities agree with
	// independent evaluation within Monte-Carlo tolerance but are not
	// bit-identical to it, and the members of a group are correlated
	// (they saw the same worlds).
	ShareWorlds bool
	// SharedSeed is the batch-level seed of the sharing contract: a
	// group's worlds are drawn from mcrand.SubSeed(SharedSeed,
	// hash(group key)), where the group key is (Ts, Te, k, the query's
	// positions over the window). A response under sharing therefore
	// depends only on (snapshot, SharedSeed, its request's own
	// parameters) — never on which other requests were batched with it,
	// their order, or the worker count. Per-request Seeds are ignored.
	SharedSeed int64
}

// RunBatch answers a slice of independent queries, fanning them across a
// pool of `workers` goroutines (0 or less: GOMAXPROCS). All queries share
// the sampler cache, so an object's model is adapted at most once for
// the whole batch. Each request draws its worlds from its own Seed,
// which makes every Response deterministic — independent of the worker
// count and of scheduling order. The whole batch runs against one view
// (on a processor, the engine snapshot current when RunBatch was
// called), so its responses are mutually consistent even while
// AddObject/Observe traffic lands concurrently. Responses align with
// requests by index; per-request failures land in Response.Err, never
// panic the batch.
//
// It is RunBatchStats with sharing disabled, discarding the batch-level
// accounting.
func (e *Executor) RunBatch(reqs []Request, workers int) []Response {
	out, _ := e.RunBatchStats(reqs, BatchOptions{Workers: workers})
	return out
}

// RunBatchStats is RunBatch with explicit options — most importantly
// shared-world coalescing (BatchOptions.ShareWorlds) — and returns the
// batch-level work accounting alongside the responses.
//
// A view that cannot pin one snapshot for the batch (a cluster router)
// may answer its units at different version vectors. The batch then
// re-runs the units that differ from the newest vector once, and fails
// the requests of any unit that still differs with the view's StaleErr:
// a batch never mixes snapshots silently.
func (e *Executor) RunBatchStats(reqs []Request, opts BatchOptions) ([]Response, BatchStats) {
	out := make([]Response, len(reqs))
	bst := BatchStats{Requests: len(reqs)}
	if len(reqs) == 0 {
		return out, bst
	}
	v := e.view()
	units := batchUnits(v, reqs, opts, out)
	if opts.ShareWorlds {
		bst.Groups = len(units)
	}
	workers := opts.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	vectors := make([][]int64, len(units))
	var mu sync.Mutex
	runUnit := func(u int) {
		b := units[u]
		run, err := runGroup(v, b.spec, b.items, nil)
		vectors[u] = run.Version.Vector
		mu.Lock()
		bst.SamplerBuilds += run.Stats.SamplerBuilds
		bst.AdaptTime += run.Stats.AdaptTime
		mu.Unlock()
		if err != nil {
			for _, i := range b.idx {
				out[i] = Response{Version: run.Version, Err: err}
			}
			return
		}
		for j, resp := range respond(b.spec, b.items, run) {
			out[b.idx[j]] = resp
		}
	}
	runPool(len(units), workers, runUnit)
	stale := staleUnits(vectors)
	if len(stale) == 0 {
		return out, bst
	}
	runPool(len(stale), workers, func(j int) { runUnit(stale[j]) })
	for _, u := range staleUnits(vectors) {
		vi := VersionInfo{Vector: vectors[u]}
		for _, x := range vectors[u] {
			vi.Max += x
		}
		if n := len(vectors[u]); n > 1 {
			// Per-shard versions each start at 1; the composite is the
			// vector sum minus the startup offset.
			vi.Max -= int64(n - 1)
		}
		err := fmt.Errorf("%w: batch gathered across concurrent writes twice", v.StaleErr())
		for _, i := range units[u].idx {
			out[i] = Response{Version: vi, Err: err}
		}
	}
	return out, bst
}

// batchUnit is one independently re-runnable slice of a batch — one
// request, or one shared-world group — and the response slots it fills.
type batchUnit struct {
	spec  shard.GroupSpec
	items []shard.GroupItem
	idx   []int
}

// batchUnits splits a batch into units: one per valid request, or under
// world sharing one per shared-world group, keyed and seeded by
// shareKey. Invalid requests fail individually without joining a unit.
func batchUnits(v View, reqs []Request, opts BatchOptions, out []Response) []*batchUnit {
	var units []*batchUnit
	groups := make(map[string]*batchUnit)
	for i, req := range reqs {
		spec, item, err := NormalizeRequest(req)
		if err != nil {
			out[i] = Response{Version: v.Version(), Err: err}
			continue
		}
		var u *batchUnit
		if opts.ShareWorlds {
			key, seed := shareKey(opts.SharedSeed, spec)
			if u = groups[key]; u == nil {
				spec.Seed = seed
				u = &batchUnit{spec: spec}
				groups[key] = u
				units = append(units, u)
			}
		} else {
			u = &batchUnit{spec: spec}
			units = append(units, u)
		}
		u.items = append(u.items, item)
		u.idx = append(u.idx, i)
	}
	return units
}

// staleUnits returns the units whose vector differs from the newest one
// (the highest composite sum).
func staleUnits(vectors [][]int64) []int {
	sum := func(v []int64) int64 {
		var s int64
		for _, x := range v {
			s += x
		}
		return s
	}
	best := 0
	for u := range vectors {
		if sum(vectors[u]) > sum(vectors[best]) {
			best = u
		}
	}
	var stale []int
	for u := range vectors {
		if !slices.Equal(vectors[u], vectors[best]) {
			stale = append(stale, u)
		}
	}
	return stale
}

// runPool fans fn over the item indices [0, n) on a pool of `workers`
// goroutines (clamped to n; one runs inline). fn must be safe for
// concurrent calls on distinct indices.
func runPool(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// NormalizeRequest validates req exactly like the one-shot, batch and
// standing paths (same k defaulting, same error messages) and returns
// the shared-world group spec plus the request's member item.
func NormalizeRequest(req Request) (shard.GroupSpec, shard.GroupItem, error) {
	k, op, err := normalizeRequest(req)
	if err != nil {
		return shard.GroupSpec{}, shard.GroupItem{}, err
	}
	spec := shard.GroupSpec{
		Q: req.Query, Ts: req.Ts, Te: req.Te, K: k, Seed: req.Seed, Conf: req.Confidence,
		MinWorlds: req.MinWorlds,
	}
	return spec, shard.GroupItem{Op: op, Tau: req.Tau}, nil
}

// ShareGroup returns the world-sharing coalescing key of req and the
// group seed it draws under sharedSeed — the key and seed RunBatchStats
// groups and draws by.
func ShareGroup(sharedSeed int64, req Request) (key string, seed int64, err error) {
	spec, _, err := NormalizeRequest(req)
	if err != nil {
		return "", 0, err
	}
	key, seed = shareKey(sharedSeed, spec)
	return key, seed, nil
}

// shareKey is the world-sharing key of a normalized spec and the group
// seed its hash selects under sharedSeed.
func shareKey(sharedSeed int64, spec shard.GroupSpec) (string, int64) {
	key := groupKey(spec)
	h := fnv.New64a()
	h.Write([]byte(key))
	return key, mcrand.SubSeed64(sharedSeed, h.Sum64())
}

// normalizeRequest is the single validation point of every request
// path: it checks the request fields that must hold before a request
// may join a shared-world group (the key walks the query over the
// window, so the window and reference must be sane) or run alone, and
// maps the semantics to its predicate. Keeping one copy means a given
// invalid request fails with the same error on every path, local or
// routed.
func normalizeRequest(req Request) (k int, op shard.GroupOp, err error) {
	k = req.K
	if k == 0 {
		k = 1
	}
	if k < 1 {
		return 0, 0, fmt.Errorf("pnn: batch request needs k >= 1, got %d", k)
	}
	switch req.Semantics {
	case ForAll:
		op = shard.OpForAll
	case Exists:
		op = shard.OpExists
	case Continuous:
		op = shard.OpCNN
		if req.Tau <= 0 {
			return 0, 0, fmt.Errorf("pnn: PCNN requires tau > 0, got %v", req.Tau)
		}
	default:
		return 0, 0, fmt.Errorf("pnn: unknown batch semantics %q (want %q, %q or %q)",
			req.Semantics, ForAll, Exists, Continuous)
	}
	if req.Query.Zero() {
		return 0, 0, fmt.Errorf("pnn: batch request has a zero Query (build one with AtPoint, AtState or Moving)")
	}
	if req.Te < req.Ts {
		return 0, 0, fmt.Errorf("pnn: inverted interval [%d, %d]", req.Ts, req.Te)
	}
	if err := req.Confidence.Validate(); err != nil {
		return 0, 0, err
	}
	if req.MinWorlds < 0 {
		return 0, 0, fmt.Errorf("pnn: batch request needs MinWorlds >= 0, got %d", req.MinWorlds)
	}
	return k, op, nil
}

// groupKey fingerprints what the sampled worlds of a spec depend on
// besides its seed: the interval, k, the confidence policy and its
// MinWorlds floor (an adaptive group's stop point is a function of
// policy and floor, so requests differing in either must not share
// worlds) and the query's position at every timestep of the window.
// Two requests with equal keys can share one world set; the key's hash
// also fixes the group's seed under the sharing contract.
func groupKey(spec shard.GroupSpec) string {
	ts, te, conf := spec.Ts, spec.Te, spec.Conf
	buf := make([]byte, 0, 56+16*(te-ts+1))
	var tmp [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(tmp[:], u)
		buf = append(buf, tmp[:]...)
	}
	put(uint64(ts))
	put(uint64(te))
	put(uint64(spec.K))
	put(math.Float64bits(conf.Eps))
	put(math.Float64bits(conf.Delta))
	put(uint64(conf.MaxSamples))
	put(uint64(spec.MinWorlds))
	for t := ts; t <= te; t++ {
		pt := spec.Q.At(t)
		put(math.Float64bits(pt.X))
		put(math.Float64bits(pt.Y))
	}
	return string(buf)
}
