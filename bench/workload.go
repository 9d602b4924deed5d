package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"pnn"
	"pnn/internal/datagen"
	"pnn/internal/server"
	"pnn/internal/uncertain"
)

// Frozen benchmark parameters. Nothing here is derived at run time: the
// parent commit and a change must see the same dataset, the same
// operation pools and the same schedules.
//
// The dataset keeps the service's object density (lifetime 100 over a
// horizon that leaves ~100 objects alive at any tic) at 300 objects,
// and the servers draw 2 000 worlds per query instead of the default
// 10 000, so that one server boots in under 3 s and every workload
// completes at least 100 operations in a 10 s window. See README.md.
const (
	dsStates    = 10000
	dsBranching = 8
	dsObjects   = 300
	dsLifetime  = 100
	dsHorizon   = 300
	dsObsEvery  = 10
	datasetSeed = 1 // generator seed of the dataset; --seed orders the operations

	serverSamples = 2000
	serverShards  = 2

	poolSeed  = 1 // seeds the fixed operation pools every run draws from
	probeSeed = 1 // seeds the correctness probes (bench/golden/*.seed1.json)

	warmupSeconds = 2 // unmeasured replay before every measured window

	maxPCNNWindow = 10 // tics; a 30-tic PCNN exhausts the lattice cap on the seed commit
	maxObsGap     = 10 // tics; a far-future observation holds the store lock for a minute
)

// Workload names, in the order BENCHMARK.json lists them.
const (
	wlQueryWarm = "query_warm"
	wlChurn     = "churn_durable"
	wlFanout    = "subscribe_fanout"
	wlCluster   = "cluster_router"
)

// workloadRates are the frozen open-loop rates in operations per
// second, sized once on the seed commit for 35–45 % server CPU
// utilisation (README.md records the utilisation each was sized at).
var workloadRates = map[string]float64{
	wlQueryWarm: 200,
	wlChurn:     40,
	wlFanout:    10,
	wlCluster:   15,
}

var workloadNames = []string{wlQueryWarm, wlChurn, wlFanout, wlCluster}

// Subscription shape of subscribe_fanout.
const (
	fanoutShapes       = 8
	fanoutSubsPerShape = 30
	fanoutWindowStart  = 100
	fanoutWindowLen    = 8
	fanoutHotMovers    = 6
	fanoutColdMovers   = 2
	fanoutHotID        = 200000 // ids of the hot movers registered during set-up
	churnAddID         = 100000 // ids of objects churn_durable adds
	churnMovers        = 24
	churnQueriesPerW   = 4 // queries per write
)

type opKind int

const (
	opForAll opKind = iota
	opExists
	opPCNN
	opBatch
	opObserve
	opAdd
)

func (k opKind) isWrite() bool { return k == opObserve || k == opAdd }

func (k opKind) path() string {
	return [...]string{"/v1/forallnn", "/v1/existsnn", "/v1/pcnn", "/v1/batch", "/v1/observe", "/v1/objects"}[k]
}

// queryItem is one query in structured form: the JSON body sent over
// HTTP and the pnn.Request replayed in process are both derived from it.
type queryItem struct {
	Sem    pnn.Semantics
	State  int
	Ts, Te int
	K      int
	Tau    float64
	Seed   int64
	Eps    float64 // > 0: confidence{eps}
}

func (q queryItem) spec() server.QuerySpec {
	state := q.State
	qs := server.QuerySpec{
		Query:  &server.QueryRef{State: &state},
		Window: &server.Window{Ts: q.Ts, Te: q.Te},
		K:      q.K, Tau: q.Tau, Seed: q.Seed,
	}
	if q.Eps > 0 {
		qs.Confidence = &server.ConfidenceJSON{Eps: q.Eps}
	}
	return qs
}

func (q queryItem) request(net *pnn.Network) pnn.Request {
	req := pnn.Request{
		Semantics: q.Sem, Query: pnn.AtState(net, q.State),
		Ts: q.Ts, Te: q.Te, K: q.K, Tau: q.Tau, Seed: q.Seed,
	}
	if q.Eps > 0 {
		req.Confidence = pnn.Confidence{Eps: q.Eps}
	}
	return req
}

func (q queryItem) kind() opKind {
	switch q.Sem {
	case pnn.ForAll:
		return opForAll
	case pnn.Exists:
		return opExists
	}
	return opPCNN
}

// op is one pre-generated operation of a workload's list.
type op struct {
	Kind  opKind
	Body  []byte
	Items []queryItem // one for a one-shot query, several for a batch
	// SharedSeed is the batch-level seed of a share_worlds batch.
	SharedSeed int64
	// ID and Obs describe a write.
	ID  int
	Obs []pnn.Observation
	// Hot marks a subscribe_fanout write to a mover parked inside the
	// witness's influence region.
	Hot bool
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("bench: encoding %T: %v", v, err))
	}
	return b
}

func queryOp(q queryItem) op {
	return op{Kind: q.kind(), Body: mustJSON(q.spec()), Items: []queryItem{q}}
}

func batchOp(items []queryItem, sharedSeed int64) op {
	share := true
	req := server.BatchRequest{ShareWorlds: &share, SharedSeed: sharedSeed}
	for _, it := range items {
		req.Requests = append(req.Requests, server.BatchItem{Semantics: string(it.Sem), QuerySpec: it.spec()})
	}
	return op{Kind: opBatch, Body: mustJSON(req), Items: items, SharedSeed: sharedSeed}
}

func writeOp(kind opKind, id int, obs []pnn.Observation) op {
	req := server.IngestRequest{ID: id}
	for _, ob := range obs {
		req.Observations = append(req.Observations, server.ObservationJSON{T: ob.T, State: ob.State})
	}
	return op{Kind: kind, Body: mustJSON(req), ID: id, Obs: obs}
}

// dataset is the generated database in both of its forms: the file the
// servers load and the in-process structures the generators, the exact
// gate and the traced replay read.
type dataset struct {
	ds    *datagen.Dataset
	bytes []byte // Dataset.Save output
}

func newDataset() (*dataset, error) {
	cfg := datagen.SyntheticConfig{
		States: dsStates, Branching: dsBranching, Objects: dsObjects,
		Lifetime: dsLifetime, Horizon: dsHorizon, ObsInterval: dsObsEvery,
		Lag: 0.5, SelfWeight: 0.5,
	}
	ds, err := datagen.Synthetic(cfg, rand.New(rand.NewSource(datasetSeed)))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := ds.Save(&buf); err != nil {
		return nil, err
	}
	return &dataset{ds: ds, bytes: buf.Bytes()}, nil
}

// load returns a fresh facade view (network and unbuilt DB) of the
// dataset, exactly what a server gets from -data FILE.
func (d *dataset) load() (*pnn.Network, *pnn.DB, error) {
	return pnn.LoadDataset(bytes.NewReader(d.bytes))
}

// queryTemplate is a pool entry: the items of a query (one) or a batch
// (several), without their per-request seeds.
type queryTemplate []queryItem

// queryPoolSize templates make one cycle; every measured window replays
// whole cycles in a seed-shuffled order, so two seeds execute the same
// multiset of query shapes and differ in order and in the worlds drawn.
const queryPoolSize = 50

// newQueryPool builds the fixed query pool: 22 forallnn, 15 existsnn (a
// third with k=3), 5 pcnn, 5 with confidence{eps:0.05}, 3 share_worlds
// batches of 8 — query states uniform over the network, windows of 1, 5
// or 10 tics inside an object's lifetime.
func newQueryPool(d *dataset) []queryTemplate {
	rng := rand.New(rand.NewSource(poolSeed))
	lens := []int{1, 5, 10}
	taus := []float64{0.05, 0.1, 0.2, 0.3}
	n := 0
	shape := func() (state, ts, te int) {
		o := d.ds.Objects[rng.Intn(len(d.ds.Objects))]
		l := lens[n%len(lens)]
		n++
		ts = o.First().T + rng.Intn(o.Last().T-o.First().T-l+2)
		return rng.Intn(dsStates), ts, ts + l - 1
	}
	var pool []queryTemplate
	one := func(sem pnn.Semantics, k int, tau, eps float64) {
		state, ts, te := shape()
		pool = append(pool, queryTemplate{{Sem: sem, State: state, Ts: ts, Te: te, K: k, Tau: tau, Eps: eps}})
	}
	for i := 0; i < 22; i++ {
		one(pnn.ForAll, 0, taus[i%len(taus)], 0)
	}
	for i := 0; i < 15; i++ {
		k := 0
		if i%3 == 2 {
			k = 3
		}
		one(pnn.Exists, k, taus[i%len(taus)], 0)
	}
	for i := 0; i < 5; i++ {
		one(pnn.Continuous, 0, []float64{0.3, 0.5}[i%2], 0)
	}
	for i := 0; i < 5; i++ {
		one([]pnn.Semantics{pnn.ForAll, pnn.Exists}[i%2], 0, 0.3, 0.05)
	}
	for i := 0; i < 3; i++ {
		// Two shapes of four members each: share_worlds coalesces them
		// into two groups.
		var items queryTemplate
		for s := 0; s < 2; s++ {
			state, ts, te := shape()
			for _, m := range []struct {
				sem pnn.Semantics
				tau float64
			}{{pnn.ForAll, 0.1}, {pnn.Exists, 0.1}, {pnn.ForAll, 0.3}, {pnn.Exists, 0.3}} {
				items = append(items, queryItem{Sem: m.sem, State: state, Ts: ts, Te: te, Tau: m.tau})
			}
		}
		pool = append(pool, items)
	}
	return pool
}

// cycler hands out the indices 0..n-1 in whole seed-shuffled cycles.
type cycler struct {
	rng  *rand.Rand
	perm []int
	pos  int
}

func newCycler(rng *rand.Rand, n int) *cycler {
	return &cycler{rng: rng, perm: rng.Perm(n)}
}

func (c *cycler) next() int {
	if c.pos == len(c.perm) {
		c.perm, c.pos = c.rng.Perm(len(c.perm)), 0
	}
	c.pos++
	return c.perm[c.pos-1]
}

// queryOps is the operation list of query_warm and cluster_router: n
// queries drawn from the pool in shuffled whole cycles, each with its
// own request seed.
func queryOps(pool []queryTemplate, seed int64, n int) []op {
	rng := rand.New(rand.NewSource(seed))
	cyc := newCycler(rng, len(pool))
	ops := make([]op, 0, n)
	for len(ops) < n {
		items := append([]queryItem(nil), pool[cyc.next()]...)
		if len(items) == 1 {
			items[0].Seed = rng.Int63()
			ops = append(ops, queryOp(items[0]))
			continue
		}
		ops = append(ops, batchOp(items, rng.Int63()))
	}
	return ops
}

// mover is a pool object with a pre-generated itinerary: the successive
// observations a workload appends to it, each at most maxObsGap tics
// after the previous one and reachable along shortest-path hops.
type mover struct {
	id    int
	steps []pnn.Observation
	next  int
}

func (m *mover) step() pnn.Observation {
	ob := m.steps[m.next]
	m.next++
	return ob
}

// walk extends an itinerary from (t, state): every step advances
// between 5 and maxObsGap tics and at most half as many hops along a
// shortest path to a nearby state, which the a-priori chain (a
// self-loop plus every edge) can always realise.
func walk(d *dataset, rng *rand.Rand, t, state, steps int) []pnn.Observation {
	out := make([]pnn.Observation, 0, steps)
	for len(out) < steps {
		gap := 5 + rng.Intn(maxObsGap-4)
		near := d.ds.Space.StatesWithin(d.ds.Space.Point(state), 0.05)
		if path := d.ds.Space.ShortestPath(state, near[rng.Intn(len(near))]); len(path) > 1 {
			state = path[min(len(path)-1, gap/2)]
		}
		t += gap
		out = append(out, pnn.Observation{T: t, State: state})
	}
	return out
}

func lastObs(o *uncertain.Object) (t, state int) { return o.Last().T, o.Last().State }

// churnOps is the operation list of churn_durable: one write followed
// by churnQueriesPerW queries, n operations in all. Writes cycle
// through a fixed pool of movers (80 % /v1/observe appends) and add
// sites (20 % /v1/objects) in seed-shuffled order; every query is aimed
// at the state and time of one of the last four writes, so it finds
// that object's sampler invalidated.
func churnOps(d *dataset, seed int64, n int) []op {
	pool := rand.New(rand.NewSource(poolSeed))
	writes := (n + churnQueriesPerW) / (churnQueriesPerW + 1)
	perMover := writes/churnMovers + 2
	movers := make([]*mover, churnMovers)
	for i, oi := range pool.Perm(len(d.ds.Objects))[:churnMovers] {
		o := d.ds.Objects[oi]
		t, state := lastObs(o)
		movers[i] = &mover{id: o.ID, steps: walk(d, pool, t, state, perMover)}
	}
	type site struct{ obs []pnn.Observation }
	sites := make([]site, 16)
	for i := range sites {
		t0, s0 := pool.Intn(dsHorizon-maxObsGap), pool.Intn(dsStates)
		sites[i] = site{obs: append([]pnn.Observation{{T: t0, State: s0}}, walk(d, pool, t0, s0, 1)...)}
	}

	rng := rand.New(rand.NewSource(seed))
	moverCyc, siteCyc := newCycler(rng, len(movers)), newCycler(rng, len(sites))
	var recent []pnn.Observation // last observation of the newest writes
	ops := make([]op, 0, n)
	adds := 0
	for w := 0; len(ops) < n; w++ {
		var wr op
		if w%5 == 4 {
			wr = writeOp(opAdd, churnAddID+adds, sites[siteCyc.next()].obs)
			adds++
		} else {
			m := movers[moverCyc.next()]
			wr = writeOp(opObserve, m.id, []pnn.Observation{m.step()})
		}
		ops = append(ops, wr)
		recent = append(recent, wr.Obs[len(wr.Obs)-1])
		if len(recent) > 4 {
			recent = recent[1:]
		}
		for q := 0; q < churnQueriesPerW && len(ops) < n; q++ {
			at := recent[rng.Intn(len(recent))]
			sem := []pnn.Semantics{pnn.ForAll, pnn.Exists}[q%2]
			ops = append(ops, queryOp(queryItem{
				Sem: sem, State: at.State, Ts: at.T - 2, Te: at.T, Tau: 0.1, Seed: rng.Int63(),
			}))
		}
	}
	return ops
}

// fanoutPlan is the subscribe_fanout set-up: the standing queries to
// register, the hot movers to add, and the witness.
type fanoutPlan struct {
	subs    []server.SubscriptionSpec // poll transport, fanoutSubsPerShape per shape
	witness server.SubscriptionSpec   // SSE, shape 0
	hotAdds []op                      // /v1/objects writes parking the hot movers
	cold    []*mover
	hot     []*mover
}

func subscriptionSpec(state int, tau float64, seed int64, transport string) server.SubscriptionSpec {
	q := queryItem{Sem: pnn.Exists, State: state, Ts: fanoutWindowStart, Te: fanoutWindowStart + fanoutWindowLen - 1, Tau: tau, Seed: seed}
	return server.SubscriptionSpec{
		Semantics: string(q.Sem), QuerySpec: q.spec(),
		Delivery: &server.DeliveryJSON{Transport: transport},
	}
}

// newFanoutPlan lays out fanoutShapes query states at least 0.25 apart
// from shape 0 (so a hot write re-evaluates shape 0's group only), the
// subscriptions of each shape differing only in tau, hot movers parked
// at shape 0's query state across the whole window, and cold movers
// whose lifetime starts after every subscription window has ended.
func newFanoutPlan(d *dataset, steps int) *fanoutPlan {
	rng := rand.New(rand.NewSource(poolSeed))
	sp := d.ds.Space
	states := []int{rng.Intn(dsStates)}
	for len(states) < fanoutShapes {
		s := rng.Intn(dsStates)
		if sp.Dist(s, states[0]) >= 0.25 {
			states = append(states, s)
		}
	}
	p := &fanoutPlan{}
	for j, s := range states {
		seed := int64(1000 + j) // one seed per shape: equal seeds are what lets a shape's subscriptions group
		for i := 0; i < fanoutSubsPerShape; i++ {
			p.subs = append(p.subs, subscriptionSpec(s, 0.02+0.03*float64(i), seed, server.TransportPoll))
		}
		if j == 0 {
			p.witness = subscriptionSpec(s, 0.05, seed, server.TransportSSE)
		}
	}
	end := fanoutWindowStart + fanoutWindowLen
	for m := 0; m < fanoutHotMovers; m++ {
		park := []pnn.Observation{{T: fanoutWindowStart - 1, State: states[0]}, {T: end, State: states[0]}}
		p.hotAdds = append(p.hotAdds, writeOp(opAdd, fanoutHotID+m, park))
		mv := &mover{id: fanoutHotID + m}
		for i := 1; i <= steps; i++ {
			mv.steps = append(mv.steps, pnn.Observation{T: end + 5*i, State: states[0]})
		}
		p.hot = append(p.hot, mv)
	}
	for _, oi := range rng.Perm(len(d.ds.Objects)) {
		o := d.ds.Objects[oi]
		if len(p.cold) == fanoutColdMovers {
			break
		}
		if o.First().T <= end {
			continue
		}
		t, state := lastObs(o)
		mv := &mover{id: o.ID}
		for i := 1; i <= steps; i++ {
			mv.steps = append(mv.steps, pnn.Observation{T: t + 5*i, State: state})
		}
		p.cold = append(p.cold, mv)
	}
	return p
}

// fanoutOps is the write list of subscribe_fanout: n /v1/observe
// appends, three hot and one cold in every block of four, the block
// order and the mover chosen by seed.
func fanoutOps(p *fanoutPlan, seed int64, n int) []op {
	for _, m := range append(append([]*mover(nil), p.hot...), p.cold...) {
		m.next = 0 // a plan's itineraries restart with every list drawn from it
	}
	rng := rand.New(rand.NewSource(seed))
	hotCyc, coldCyc := newCycler(rng, len(p.hot)), newCycler(rng, len(p.cold))
	ops := make([]op, 0, n)
	for len(ops) < n {
		coldAt := rng.Intn(4)
		for b := 0; b < 4 && len(ops) < n; b++ {
			if b == coldAt {
				m := p.cold[coldCyc.next()]
				ops = append(ops, writeOp(opObserve, m.id, []pnn.Observation{m.step()}))
				continue
			}
			m := p.hot[hotCyc.next()]
			wr := writeOp(opObserve, m.id, []pnn.Observation{m.step()})
			wr.Hot = true
			ops = append(ops, wr)
		}
	}
	// End on a hot write: the witness's last event is then at the server's
	// final version, where a one-shot can reproduce it byte for byte.
	// Swapping two writes of different movers keeps each mover's own
	// observations in order.
	for i := len(ops) - 1; i >= 0 && !ops[len(ops)-1].Hot; i-- {
		if ops[i].Hot {
			ops[i], ops[len(ops)-1] = ops[len(ops)-1], ops[i]
		}
	}
	return ops
}

// workloadOps generates a workload's operation list — the warm-up
// replay (the first warm operations) followed by the measured window at
// the frozen rate — and, for subscribe_fanout, the set-up plan the list
// belongs to.
func workloadOps(d *dataset, workload string, seed int64, seconds int) (ops []op, warm int, plan *fanoutPlan) {
	rate := workloadRates[workload]
	warm = int(math.Round(rate * warmupSeconds))
	total := warm + int(math.Round(rate*float64(seconds)))
	switch workload {
	case wlChurn:
		return churnOps(d, seed, total), warm, nil
	case wlFanout:
		plan = newFanoutPlan(d, total)
		return fanoutOps(plan, seed, total), warm, plan
	}
	return queryOps(newQueryPool(d), seed, total), warm, nil
}

// probeQueries are the 16 fixed correctness probes every workload
// answers before (and, where the database is static, after) its window.
func probeQueries(d *dataset) []queryItem {
	rng := rand.New(rand.NewSource(probeSeed))
	var out []queryItem
	add := func(sem pnn.Semantics, k int, tau, eps float64, l int) {
		o := d.ds.Objects[rng.Intn(len(d.ds.Objects))]
		ts := o.First().T + rng.Intn(o.Last().T-o.First().T-l+2)
		out = append(out, queryItem{Sem: sem, State: rng.Intn(dsStates), Ts: ts, Te: ts + l - 1, K: k, Tau: tau, Seed: rng.Int63(), Eps: eps})
	}
	for i := 0; i < 6; i++ {
		add(pnn.ForAll, 0, 0.1, 0, []int{1, 5, 10}[i%3])
	}
	for i := 0; i < 5; i++ {
		add(pnn.Exists, []int{0, 0, 3}[i%3], 0.1, 0, []int{1, 5, 10}[i%3])
	}
	for i := 0; i < 3; i++ {
		add(pnn.Continuous, 0, 0.3, 0, []int{5, 10, 3}[i])
	}
	for i := 0; i < 2; i++ {
		add([]pnn.Semantics{pnn.ForAll, pnn.Exists}[i], 0, 0.3, 0.05, 5)
	}
	return out
}
