// Package pnn answers probabilistic nearest-neighbor queries over uncertain
// moving-object trajectories, implementing Niedermayer et al.,
// "Probabilistic Nearest Neighbor Queries on Uncertain Moving Object
// Trajectories", PVLDB 7(3), 2013.
//
// An uncertain trajectory is a moving object observed only at a few
// timestamps; in between, its position is a random variable governed by a
// Markov chain over a discrete state space (a road network, an indoor
// floor plan, a grid). The package offers three query semantics against a
// certain query point or trajectory q and a time interval T:
//
//   - ForAllNN  (P∀NNQ): objects likely to be the nearest neighbor of q at
//     EVERY time in T — e.g. taxis that watched an entire incident.
//   - ExistsNN  (P∃NNQ): objects likely to be the NN at SOME time in T —
//     e.g. anyone who may have passed closest at least once.
//   - ContinuousNN (PCNNQ): per object, the maximal timestamp sets during
//     which it stays the likely NN — e.g. to group witnesses by phase.
//
// Queries are answered by Bayesian trajectory sampling: each object's
// a-priori chain is conditioned on all of its observations with a
// forward-backward sweep, possible worlds are drawn from the adapted
// model (every sample provably passes through every observation), and
// UST-tree pruning keeps the candidate sets small. Estimates carry
// Hoeffding error bounds; see SampleBound.
//
// # Quick start
//
//	net, _ := pnn.NewSyntheticNetwork(10000, 8, 42)
//	db := pnn.NewDB(net)
//	db.Add(1, []pnn.Observation{{T: 0, State: 17}, {T: 20, State: 93}})
//	db.Add(2, []pnn.Observation{{T: 0, State: 55}, {T: 20, State: 60}})
//	proc, _ := db.Build(10000)
//	res, _, _ := proc.ForAllNN(pnn.AtState(net, 17), 5, 15, 0.3, 7)
//
// See examples/ for complete programs.
package pnn

import (
	"fmt"
	"io"
	"math/rand"

	"pnn/internal/datagen"
	"pnn/internal/geo"
	"pnn/internal/markov"
	"pnn/internal/query"
	"pnn/internal/shard"
	"pnn/internal/space"
	"pnn/internal/store"
	"pnn/internal/uncertain"
)

// Write-rejection sentinels, re-exported from the store so API layers
// can classify ingest failures with errors.Is instead of matching
// message strings.
var (
	// ErrDuplicateID rejects an AddObject whose ID is already indexed.
	ErrDuplicateID = store.ErrDuplicateID
	// ErrUnknownID rejects an Observe for an unindexed object ID.
	ErrUnknownID = store.ErrUnknownID
)

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Observation is one certain (time, state) measurement of an object.
type Observation struct {
	T     int
	State int
}

// Network is a discrete state space plus the default a-priori Markov chain
// objects move by: states embedded in the plane, connected into a motion
// graph, with transition probabilities inversely proportional to edge
// length plus a self-loop for idling.
type Network struct {
	sp    *space.Space
	chain markov.Chain
}

// NewSyntheticNetwork builds the paper's artificial network: n uniform
// states in the unit square, edges between states within the radius that
// yields an average branching factor b.
func NewSyntheticNetwork(n int, b float64, seed int64) (*Network, error) {
	sp, err := space.Synthetic(n, b, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	return wrapSpace(sp)
}

// NewGridNetwork builds a w×h four-connected grid, a natural model for
// indoor tracking (rooms, RFID reader cells).
func NewGridNetwork(w, h int) (*Network, error) {
	sp, err := space.Grid(w, h)
	if err != nil {
		return nil, err
	}
	return wrapSpace(sp)
}

func wrapSpace(sp *space.Space) (*Network, error) {
	chain, err := markov.NewHomogeneous(sp.TransitionMatrix(0.5))
	if err != nil {
		return nil, err
	}
	return &Network{sp: sp, chain: chain}, nil
}

// NumStates returns the number of discrete locations.
func (n *Network) NumStates() int { return n.sp.Len() }

// StatePoint returns the planar location of a state.
func (n *Network) StatePoint(s int) Point {
	p := n.sp.Point(s)
	return Point{p.X, p.Y}
}

// NearestState returns the state closest to p.
func (n *Network) NearestState(p Point) int {
	return n.sp.NearestState(geo.Point{X: p.X, Y: p.Y})
}

// ShortestPath returns a minimum-length sequence of adjacent states from
// one state to another (inclusive), or nil if unreachable. It is the
// easiest way to fabricate observation sequences that are guaranteed
// consistent with the motion model: an object observed along a path every
// k tics can always have travelled it.
func (n *Network) ShortestPath(from, to int) []int {
	return n.sp.ShortestPath(from, to)
}

// ObservationsAlong fabricates a consistent observation sequence: the
// object follows the shortest path from one state to another, starting at
// tic start, advancing one hop every ticsPerHop tics (>= 1), observed every
// obsEvery hops. It returns nil when no path exists.
func (n *Network) ObservationsAlong(from, to, start, ticsPerHop, obsEvery int) []Observation {
	if ticsPerHop < 1 {
		ticsPerHop = 1
	}
	if obsEvery < 1 {
		obsEvery = 1
	}
	path := n.sp.ShortestPath(from, to)
	if path == nil {
		return nil
	}
	var obs []Observation
	for i := 0; i < len(path); i += obsEvery {
		obs = append(obs, Observation{T: start + i*ticsPerHop, State: path[i]})
	}
	if last := len(path) - 1; obs[len(obs)-1].State != path[last] || obs[len(obs)-1].T != start+last*ticsPerHop {
		if obs[len(obs)-1].T != start+last*ticsPerHop {
			obs = append(obs, Observation{T: start + last*ticsPerHop, State: path[last]})
		}
	}
	return obs
}

// DB collects uncertain objects before indexing. The zero value is not
// usable; create one with NewDB.
type DB struct {
	net  *Network
	ids  []int
	objs []*uncertain.Object
	byID map[int]int
}

// NewDB returns an empty database over the given network.
func NewDB(net *Network) *DB {
	return &DB{net: net, byID: make(map[int]int)}
}

// Add registers an object by caller-chosen ID with its observations, which
// must be non-contradicting under the network's motion model (checked at
// Build time). Duplicate IDs are rejected.
func (db *DB) Add(id int, obs []Observation) error {
	if _, dup := db.byID[id]; dup {
		return fmt.Errorf("pnn: duplicate object id %d", id)
	}
	conv := make([]uncertain.Observation, len(obs))
	for i, ob := range obs {
		conv[i] = uncertain.Observation{T: ob.T, State: ob.State}
	}
	o, err := uncertain.NewObject(id, conv, db.net.chain)
	if err != nil {
		return err
	}
	db.byID[id] = len(db.objs)
	db.ids = append(db.ids, id)
	db.objs = append(db.objs, o)
	return nil
}

// Len returns the number of registered objects.
func (db *DB) Len() int { return len(db.objs) }

// Build validates all objects, constructs the UST-tree index and returns a
// query processor drawing `samples` possible worlds per query (10 000 is
// the paper's default; see SampleBound for the accuracy this buys).
//
// Build requires the caller-chosen IDs passed to Add to match the object
// IDs, which Add guarantees; the returned processor answers queries and
// accepts live updates (AddObject, Observe). It is BuildSharded with a
// single shard.
func (db *DB) Build(samples int) (*Processor, error) {
	return db.BuildSharded(samples, 1)
}

// BuildSharded is Build with the index hash-partitioned by object ID
// across `shards` independent (UST-tree, engine) snapshot stores.
// Queries scatter across all shards and gather merged answers; writes
// route to exactly one shard, so the copy-on-write clone behind every
// published version touches only 1/shards of the index. Answers are
// deterministic in the request seed and independent of the shard count:
// every object's possible worlds are drawn from a sub-seed derived from
// the seed and the object's ID alone. shards < 1 is treated as 1.
func (db *DB) BuildSharded(samples, shards int) (*Processor, error) {
	set, err := shard.New(db.net.sp, db.objs, samples, shards)
	if err != nil {
		return nil, err
	}
	return newProcessor(db.net, set), nil
}

// BuildLenient is Build for noisy data: objects whose observations
// contradict the motion model (e.g. GPS glitches teleporting a vehicle)
// are dropped rather than failing the build. It returns the IDs of the
// skipped objects.
func (db *DB) BuildLenient(samples int) (*Processor, []int, error) {
	return db.BuildLenientSharded(samples, 1)
}

// BuildLenientSharded is BuildSharded with BuildLenient's tolerance for
// contradicting objects. It returns the IDs of the skipped objects.
func (db *DB) BuildLenientSharded(samples, shards int) (*Processor, []int, error) {
	set, skippedIdx, err := shard.NewLenient(db.net.sp, db.objs, samples, shards)
	if err != nil {
		return nil, nil, err
	}
	var skippedIDs []int
	for _, i := range skippedIdx {
		skippedIDs = append(skippedIDs, db.ids[i])
	}
	return newProcessor(db.net, set), skippedIDs, nil
}

// Processor answers probabilistic NN queries and ingests live updates.
// It is safe for concurrent use: every query runs against the immutable
// composite snapshot (one frozen engine per shard) current when it
// started, while AddObject and Observe publish successor snapshots
// without blocking readers (RCU). A query overlapping a write therefore
// answers from a consistent version — either entirely before or
// entirely after the update.
//
// Queries, batches and standing queries run through the embedded
// Executor, over a view that pins the snapshot current when each
// request, batch or standing evaluation starts.
type Processor struct {
	*Executor
	net *Network
	set *shard.Set
}

// newProcessor wires a processor around a built shard set, including
// the standing-query registry (its workers are idle until the first
// Subscribe).
func newProcessor(net *Network, set *shard.Set) *Processor {
	return &Processor{
		Executor: NewExecutor(func() View { return snapView{set.Snapshot()} }),
		net:      net,
		set:      set,
	}
}

// ShardSet exposes the processor's underlying shard set — the handle a
// peer's /internal RPC surface scatters from. It is an internal-package
// type: only code inside this module can do anything with it.
func (p *Processor) ShardSet() *shard.Set { return p.set }

// SetParallelism spreads the gather-phase world evaluation of ForAllNN /
// ExistsNN (and kNN variants) over p goroutines per query; the scatter
// phase additionally parallelizes across shards. Results stay
// deterministic for a fixed seed.
func (p *Processor) SetParallelism(workers int) { p.set.SetParallelism(workers) }

// NumShards returns the partition fan-out the processor was built with
// (1 unless BuildSharded was used).
func (p *Processor) NumShards() int { return p.set.NumShards() }

// SnapshotDetail returns the composite version, total object count and
// per-shard version vector of one and the same current snapshot — the
// view callers must use when the three values need to be mutually
// consistent under concurrent writes (each shard's version advances
// only with writes routed to it; the composite version advances with
// every write, so exactly one vector entry moves per version).
func (p *Processor) SnapshotDetail() (version int64, objects int, shardVersions []int64) {
	snap := p.set.Snapshot()
	return snap.Version, snap.NumObjects(), snap.ShardVersions()
}

// Ingest describes one published write: the snapshot version it created
// and the object count at exactly that version. The pair is consistent
// even under concurrent writes, unlike reading Version and NumObjects
// separately.
type Ingest struct {
	Version int64
	Objects int
}

// AddObject registers a new object with the given observations and makes
// it visible to all queries started afterwards, returning the published
// snapshot. The ID must be unused and the observations consistent with
// the network's motion model; invalid objects are rejected atomically,
// leaving the served database untouched.
func (p *Processor) AddObject(id int, obs []Observation) (Ingest, error) {
	conv := make([]uncertain.Observation, len(obs))
	for i, ob := range obs {
		conv[i] = uncertain.Observation{T: ob.T, State: ob.State}
	}
	o, err := uncertain.NewObject(id, conv, p.net.chain)
	if err != nil {
		return Ingest{}, err
	}
	snap, err := p.set.AddObject(o)
	if err != nil {
		return Ingest{}, err
	}
	p.NotifyWrite(id, snap.Toucher(id))
	return Ingest{Version: snap.Version, Objects: snap.NumObjects()}, nil
}

// Observe appends observations to an existing object — the live arrival
// of new measurements the paper's moving-object model is built around —
// and returns the published snapshot. Late (out-of-order) observations
// are accepted as long as the merged sequence stays non-contradicting;
// duplicates and impossible motions are rejected atomically. In-flight
// queries keep their pre-update snapshot, the object's adapted model is
// re-derived lazily, and every other object's cached model carries over.
func (p *Processor) Observe(id int, obs ...Observation) (Ingest, error) {
	conv := make([]uncertain.Observation, len(obs))
	for i, ob := range obs {
		conv[i] = uncertain.Observation{T: ob.T, State: ob.State}
	}
	snap, err := p.set.Observe(id, conv)
	if err != nil {
		return Ingest{}, err
	}
	p.NotifyWrite(id, snap.Toucher(id))
	return Ingest{Version: snap.Version, Objects: snap.NumObjects()}, nil
}

// Version returns the current composite snapshot version. It starts at
// 1 and increases by one with every successful AddObject or Observe;
// successive calls return non-decreasing values.
func (p *Processor) Version() int64 { return p.set.Version() }

// Query is a certain reference position per timestep.
type Query = query.Query

// AtPoint returns a query fixed at an arbitrary planar position.
func AtPoint(p Point) Query { return query.StateQuery(geo.Point{X: p.X, Y: p.Y}) }

// AtState returns a query fixed at a network state — e.g. the bank's
// location in the paper's running example.
func AtState(net *Network, state int) Query {
	return query.StateQuery(net.sp.Point(state))
}

// Moving returns a trajectory query: pts[i] is the position at time
// start+i (clamped outside). An empty pts yields a zero query that every
// engine call rejects with an error.
func Moving(start int, pts []Point) Query {
	conv := make([]geo.Point, len(pts))
	for i, p := range pts {
		conv[i] = geo.Point{X: p.X, Y: p.Y}
	}
	return query.TrajectoryQuery(start, conv)
}

// Confidence is the adaptive sample-budget policy of a query: instead
// of drawing the processor's fixed number of possible worlds, sampling
// stops as soon as every estimate separates from the threshold tau by
// more than the Hoeffding error bound (or the bound itself reaches
// Eps), escalating up to MaxSamples worlds while the answer is
// undecided. The stop point is deterministic — a pure function of
// (snapshot, seed, policy), never of worker count or scheduling. The
// zero value disables the policy and keeps the fixed budget. See
// query.Confidence for field semantics.
type Confidence = query.Confidence

// Result is one probabilistic query answer.
type Result struct {
	ObjectID int
	Prob     float64
}

// IntervalResult is one continuous-query answer: a maximal timestamp set
// (ascending, possibly with holes) on which the object remains the likely
// NN, with its probability.
type IntervalResult struct {
	ObjectID int
	Times    []int
	Prob     float64
}

// Stats summarizes the work done by one query.
type Stats struct {
	Candidates    int     // objects surviving the ∀ filter
	Influencers   int     // objects that may be NN at some time
	Worlds        int     // possible worlds actually drawn (samples_drawn)
	ErrorBound    float64 // Hoeffding ε those worlds guarantee; 0 when exact
	EarlyStopped  bool    // an adaptive query decided before its budget cap
	SamplerBuilds int     // models adapted by this query; 0 once the cache is warm
	// WorldFloor is the adaptive early-stop floor in effect (see
	// Request.MinWorlds): the query could not decide below this many
	// worlds. 0 when no floor applied. Standing queries raise it to
	// their group's previously proven budget, so events report the floor
	// a matching one-shot needs to reproduce their bytes.
	WorldFloor int
	// GroupSize is the number of compatible standing queries this answer
	// was evaluated together with (itself included); 0 for one-shot
	// answers, 1 for a standing query evaluated alone.
	GroupSize int
	// BudgetReused marks a standing re-evaluation whose WorldFloor was
	// raised to the group's previously proven adaptive budget instead of
	// escalating from the first round. Always false for one-shots.
	BudgetReused bool
}

// CacheStats reports the processor's cumulative sampler-cache traffic:
// Builds counts model adaptations — at most one per object per engine
// version, so on a static database it freezes at the number of distinct
// objects touched, while every Observe invalidates that object's
// sampler and costs one more build on next use. Hits counts lookups
// served from cache and keeps growing with repeat traffic.
type CacheStats = query.CacheStats

// ForAllNN returns every object whose probability of being the nearest
// neighbor of q at every t in [ts, te] is at least tau (P∀NNQ,
// Definition 2).
func (p *Processor) ForAllNN(q Query, ts, te int, tau float64, seed int64) ([]Result, Stats, error) {
	return p.ForAllKNN(q, ts, te, 1, tau, seed)
}

// ExistsNN returns every object whose probability of being the NN of q at
// at least one t in [ts, te] is at least tau (P∃NNQ, Definition 1).
func (p *Processor) ExistsNN(q Query, ts, te int, tau float64, seed int64) ([]Result, Stats, error) {
	return p.ExistsKNN(q, ts, te, 1, tau, seed)
}

// ForAllKNN generalizes ForAllNN to "among the k nearest" (Section 8).
func (p *Processor) ForAllKNN(q Query, ts, te, k int, tau float64, seed int64) ([]Result, Stats, error) {
	r := p.answer(shard.OpForAll, q, ts, te, k, tau, seed)
	return r.Results, r.Stats, r.Err
}

// ExistsKNN generalizes ExistsNN to "among the k nearest".
func (p *Processor) ExistsKNN(q Query, ts, te, k int, tau float64, seed int64) ([]Result, Stats, error) {
	r := p.answer(shard.OpExists, q, ts, te, k, tau, seed)
	return r.Results, r.Stats, r.Err
}

// ContinuousNN answers PCNNQ (Definition 3): for each object the maximal
// timestamp sets within [ts, te] on which it is always the NN with
// probability at least tau. tau must be positive — the result lattice is
// exponential as tau approaches 0 (Section 4.3).
func (p *Processor) ContinuousNN(q Query, ts, te int, tau float64, seed int64) ([]IntervalResult, Stats, error) {
	return p.ContinuousKNN(q, ts, te, 1, tau, seed)
}

// ContinuousKNN generalizes ContinuousNN to "among the k nearest"
// (PCkNNQ, Section 8).
func (p *Processor) ContinuousKNN(q Query, ts, te, k int, tau float64, seed int64) ([]IntervalResult, Stats, error) {
	r := p.answer(shard.OpCNN, q, ts, te, k, tau, seed)
	return r.Intervals, r.Stats, r.Err
}

// answer runs one fixed-budget query with k taken as given: unlike a
// Request, k = 0 is an error here, not a default.
func (p *Processor) answer(op shard.GroupOp, q Query, ts, te, k int, tau float64, seed int64) Response {
	spec := shard.GroupSpec{Q: q, Ts: ts, Te: te, K: k, Seed: seed}
	return runSpec(p.view(), spec, shard.GroupItem{Op: op, Tau: tau})
}

// SampleBudget returns the fixed per-query sample budget the processor
// was built with — the world count every query draws unless a
// Confidence policy stops it earlier or escalates past it via
// MaxSamples.
func (p *Processor) SampleBudget() int {
	return p.set.Snapshot().Parts[0].Engine.SampleCount()
}

// CacheStats returns the cumulative sampler-cache counters of this
// processor, summed across shards and carried across ingestion-induced
// engine versions.
func (p *Processor) CacheStats() CacheStats { return p.set.CacheStats() }

// PrepareAll adapts every object's model up front (the TS phase), so later
// queries pay only for sampling and evaluation. Shards warm in
// parallel; within each shard adaptation runs on the parallelism set by
// SetParallelism. It warms the snapshot current at the call; objects
// updated afterwards re-adapt lazily.
func (p *Processor) PrepareAll() error { return p.set.PrepareAll() }

// NumObjects returns the number of indexed objects in the current
// composite snapshot.
func (p *Processor) NumObjects() int { return p.set.NumObjects() }

// SampleTrajectory draws one possible trajectory of the object consistent
// with all of its observations (it passes through every one of them). The
// returned slice holds the state at each tic of the object's lifetime,
// starting at its first observation time.
func (p *Processor) SampleTrajectory(objectID int, seed int64) ([]int, error) {
	snap := p.set.Snapshot()
	si, oi, ok := snap.Locate(objectID)
	if !ok {
		return nil, fmt.Errorf("pnn: unknown object id %d", objectID)
	}
	s, _, err := snap.Parts[si].Engine.SamplerCached(oi)
	if err != nil {
		return nil, err
	}
	path := s.Sample(rand.New(rand.NewSource(seed)))
	out := make([]int, len(path.States))
	for i, st := range path.States {
		out[i] = int(st)
	}
	return out, nil
}

// SampleBound returns the worst-case estimation error ε such that a query
// probability estimated from n sampled worlds deviates from the truth by
// more than ε with probability at most delta (Hoeffding's inequality).
func SampleBound(n int, delta float64) float64 { return query.ErrorBound(n, delta) }

// SamplesFor returns the number of worlds needed to estimate any query
// probability within eps at confidence 1−delta.
func SamplesFor(eps, delta float64) int { return query.RequiredSamples(eps, delta) }

// SyntheticDataset generates a ready-made uncertain trajectory database:
// the paper's artificial workload with numObjects objects of the given
// lifetime, observed every obsInterval tics, scattered over [0, horizon).
// It returns the network and a populated DB.
func SyntheticDataset(states int, branching float64, numObjects, lifetime, horizon, obsInterval int, seed int64) (*Network, *DB, error) {
	cfg := datagen.SyntheticConfig{
		States:      states,
		Branching:   branching,
		Objects:     numObjects,
		Lifetime:    lifetime,
		Horizon:     horizon,
		ObsInterval: obsInterval,
		Lag:         0.5,
		SelfWeight:  0.5,
	}
	ds, err := datagen.Synthetic(cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, nil, err
	}
	return wrapDataset(ds)
}

// TaxiDataset generates the city-scale taxi workload (the T-Drive
// substitute): a center-skewed road network with a heterogeneous fleet.
func TaxiDataset(states, taxis, lifetime, horizon, obsInterval int, seed int64) (*Network, *DB, error) {
	cfg := datagen.DefaultTaxiConfig()
	cfg.States = states
	cfg.Taxis = taxis
	cfg.Lifetime = lifetime
	cfg.Horizon = horizon
	cfg.ObsInterval = obsInterval
	ds, err := datagen.Taxi(cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, nil, err
	}
	return wrapDataset(ds)
}

// LoadDataset reads a dataset previously persisted by `pnndata -out` (or
// datagen.Dataset.Save) and returns the reconstructed network and a
// populated DB ready to Build. It is how long-running services such as
// pnnserve load their workload at startup.
func LoadDataset(r io.Reader) (*Network, *DB, error) {
	ds, err := datagen.Load(r)
	if err != nil {
		return nil, nil, err
	}
	return wrapDataset(ds)
}

// Space exposes the network's embedded state space, which the
// router-side gather needs to compute distances without building an
// index of its own.
func (n *Network) Space() *space.Space { return n.sp }

// Retain drops every registered object whose ID fails keep, in place.
// It is the peer-startup filter of cluster mode: each peer loads the
// shared dataset, then retains only the IDs it owns on the consistent-
// hash ring before building its index.
func (db *DB) Retain(keep func(id int) bool) {
	var ids []int
	var objs []*uncertain.Object
	byID := make(map[int]int)
	for i, o := range db.objs {
		if !keep(db.ids[i]) {
			continue
		}
		byID[o.ID] = len(objs)
		ids = append(ids, db.ids[i])
		objs = append(objs, o)
	}
	db.ids, db.objs, db.byID = ids, objs, byID
}

func wrapDataset(ds *datagen.Dataset) (*Network, *DB, error) {
	net := &Network{sp: ds.Space, chain: ds.Chain}
	db := NewDB(net)
	db.objs = ds.Objects
	for i, o := range ds.Objects {
		db.byID[o.ID] = i
		db.ids = append(db.ids, o.ID)
	}
	return net, db, nil
}
