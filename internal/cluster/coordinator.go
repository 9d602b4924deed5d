package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"pnn"
	"pnn/internal/geo"
	"pnn/internal/query"
	"pnn/internal/ring"
	"pnn/internal/shard"
	"pnn/internal/sub"
)

// Peer names one shard peer and its /internal RPC base URL.
type Peer struct {
	Name string
	URL  string
}

// Config tunes a Coordinator.
type Config struct {
	// Peers are the shard peers in version-vector order: the merged
	// vector every response carries is the peers' vectors concatenated
	// in exactly this order, so the list must agree across restarts for
	// clients comparing vectors.
	Peers []Peer
	// VirtualNodes is the per-peer virtual node count of the consistent-
	// hash ring; 0 uses ring.DefaultVirtualNodes.
	VirtualNodes int
	// Timeout bounds each RPC attempt; 0 means 10s.
	Timeout time.Duration
	// HedgeDelay is how long a scatter waits on a straggling peer before
	// firing its one hedged retry; 0 means Timeout/4.
	HedgeDelay time.Duration
	// ProbeInterval paces the background health probes; 0 means 2s.
	ProbeInterval time.Duration
	// Workers is the parallelism of the coordinator-side gather
	// (evaluating merged worlds); 0 uses GOMAXPROCS. It never affects
	// answer bytes.
	Workers int
	// SweepInterval bounds how long routed writes may accumulate
	// standing-query invalidations before one grouped re-evaluation
	// sweep drains them; 0 uses pnn.DefaultSubscriptionSweepInterval,
	// negative sweeps on every write.
	SweepInterval time.Duration
}

// coordRegion is the coordinator's stored influence region of a
// standing query — the wire form of the peer-side influenceRegion, kept
// pre-encoded so every write-path touch RPC reuses it verbatim.
type coordRegion struct {
	q      QueryJSON
	ts, te int
	bound  []float64
}

// Coordinator is the router of cluster mode: it owns consistent-hash
// object routing for ingest, scatters query work to the shard peers and
// gathers merged answers that are byte-identical to a single-process
// shard.Set over the union of the peers' objects at the same snapshot
// versions and seed. It implements the same backend surface as
// pnn.Processor, so the HTTP server serves either without caring which.
type Coordinator struct {
	net     *pnn.Network
	cfg     Config
	ring    *ring.Ring
	order   []string // configured peer order = version-vector concat order
	clients map[string]*peerClient
	subs    *sub.Registry

	samples int // agreed per-query sample budget, set by Bootstrap

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewCoordinator wires a coordinator over the given peers. The network
// must be the same one every peer loaded — the gather computes
// distances against its state space. Call Bootstrap before serving.
func NewCoordinator(net *pnn.Network, cfg Config) (*Coordinator, error) {
	if len(cfg.Peers) == 0 {
		return nil, errors.New("cluster: no peers configured")
	}
	names := make([]string, len(cfg.Peers))
	clients := make(map[string]*peerClient, len(cfg.Peers))
	// Gathers in flight are bounded by the batch and sweep pools, each
	// GOMAXPROCS wide by default, and each gather may hedge.
	conns := 4 * runtime.GOMAXPROCS(0)
	for i, p := range cfg.Peers {
		if p.Name == "" || p.URL == "" {
			return nil, fmt.Errorf("cluster: peer %d needs both name and url", i)
		}
		if _, dup := clients[p.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate peer name %q", p.Name)
		}
		names[i] = p.Name
		clients[p.Name] = newPeerClient(p.Name, p.URL, cfg.Timeout, cfg.HedgeDelay, conns)
	}
	rg, err := ring.New(names, cfg.VirtualNodes)
	if err != nil {
		return nil, err
	}
	sweep := cfg.SweepInterval
	if sweep == 0 {
		sweep = pnn.DefaultSubscriptionSweepInterval
	} else if sweep < 0 {
		sweep = 0
	}
	c := &Coordinator{
		net:     net,
		cfg:     cfg,
		ring:    rg,
		order:   names,
		clients: clients,
		stop:    make(chan struct{}),
	}
	c.subs = sub.New(sub.Options{
		Workers:       runtime.GOMAXPROCS(0),
		GroupEval:     c.evalStandingGroup,
		SweepInterval: sweep,
	})
	return c, nil
}

// SetSweepInterval tunes the sweep scheduler's bounded delay, exactly
// like pnn.Processor.SetSweepInterval.
func (c *Coordinator) SetSweepInterval(d time.Duration) { c.subs.SetSweepInterval(d) }

// SetSubscriptionGrouping toggles grouped re-evaluation of compatible
// standing queries, exactly like pnn.Processor.SetSubscriptionGrouping.
func (c *Coordinator) SetSubscriptionGrouping(enabled bool) { c.subs.SetGrouping(enabled) }

// Bootstrap probes every peer until it answers (retrying until ctx
// expires), verifies the static parameters the determinism contract
// needs to agree — state-space size and sample budget — and starts the
// background health probe loop. It must succeed before the coordinator
// serves queries.
func (c *Coordinator) Bootstrap(ctx context.Context) error {
	for _, name := range c.order {
		pc := c.clients[name]
		for {
			h, err := pc.probe(ctx)
			if err == nil {
				if h.States != c.net.NumStates() {
					return fmt.Errorf("cluster: peer %s serves %d states, router network has %d",
						name, h.States, c.net.NumStates())
				}
				if c.samples == 0 {
					c.samples = h.Samples
				} else if h.Samples != c.samples {
					return fmt.Errorf("cluster: peer %s sample budget %d disagrees with %d",
						name, h.Samples, c.samples)
				}
				break
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("cluster: peer %s never became healthy: %w", name, err)
			case <-time.After(200 * time.Millisecond):
			}
		}
	}
	interval := c.cfg.ProbeInterval
	if interval <= 0 {
		interval = 2 * time.Second
	}
	c.wg.Add(1)
	go c.probeLoop(interval)
	return nil
}

func (c *Coordinator) probeLoop(interval time.Duration) {
	defer c.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			var wg sync.WaitGroup
			for _, name := range c.order {
				wg.Add(1)
				go func(pc *peerClient) {
					defer wg.Done()
					pc.probe(context.Background())
				}(c.clients[name])
			}
			wg.Wait()
		}
	}
}

// encodeQuery captures q's positions over [ts, te] for the wire.
func encodeQuery(q query.Query, ts, te int) QueryJSON {
	pts := make([]PointJSON, te-ts+1)
	for t := ts; t <= te; t++ {
		p := q.At(t)
		pts[t-ts] = PointJSON{X: p.X, Y: p.Y}
	}
	return QueryJSON{Start: ts, Points: pts}
}

// Decode rebuilds the query a peer evaluates from its wire positions.
// Pruning and evaluation only read positions inside the window, so the
// trajectory form reproduces any query reference bit-identically there.
func (q QueryJSON) Decode() query.Query {
	pts := make([]geo.Point, len(q.Points))
	for i, p := range q.Points {
		pts[i] = geo.Point{X: p.X, Y: p.Y}
	}
	return query.TrajectoryQuery(q.Start, pts)
}

// versionFromParts merges the per-peer snapshot identities of one
// gather. The vector is the concatenation in configured peer order; the
// composite maximum is Σ peer versions − (P−1), which equals 1 + total
// accepted writes — the same value a single process reports for the
// same write sequence, whatever the layout.
func versionFromParts(parts []*shard.ScatterResult) pnn.VersionInfo {
	var vi pnn.VersionInfo
	for _, p := range parts {
		vi.Vector = append(vi.Vector, p.Versions...)
		vi.Max += p.Version
	}
	vi.Max -= int64(len(parts) - 1)
	return vi
}

// cachedVersion is the last probed cluster version view — the identity
// attached to responses that fail before any scatter completes.
func (c *Coordinator) cachedVersion() pnn.VersionInfo {
	var vi pnn.VersionInfo
	for _, name := range c.order {
		_, _, _, h := c.clients[name].status()
		vi.Vector = append(vi.Vector, h.Versions...)
		vi.Max += h.Version
	}
	vi.Max -= int64(len(c.order) - 1)
	return vi
}

// scatterAll fans one shared-world group spec to every peer and merges
// the answers into a replayable gather input. Any peer failure (after
// the hedged retry) aborts the whole gather — never a partial answer.
func (c *Coordinator) scatterAll(ctx context.Context, spec shard.GroupSpec) (shard.GatherInput, pnn.VersionInfo, error) {
	wreq := &ScatterRequest{
		Query: encodeQuery(spec.Q, spec.Ts, spec.Te),
		Ts:    spec.Ts, Te: spec.Te, K: spec.K, Seed: spec.Seed,
	}
	if spec.Conf.Enabled() {
		wreq.Confidence = &ConfidenceJSON{Eps: spec.Conf.Eps, Delta: spec.Conf.Delta, MaxSamples: spec.Conf.MaxSamples}
	}
	parts := make([]*shard.ScatterResult, len(c.order))
	errs := make([]error, len(c.order))
	var wg sync.WaitGroup
	for i, name := range c.order {
		wg.Add(1)
		go func(i int, pc *peerClient) {
			defer wg.Done()
			errs[i] = pc.callHedged(ctx, "/internal/scatter", wreq, ScatterFrameType, intoScatter(&parts[i]))
		}(i, c.clients[name])
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return shard.GatherInput{}, c.cachedVersion(),
				fmt.Errorf("scatter to %s: %w", c.order[i], err)
		}
	}
	in, err := shard.MergeScatters(parts)
	if err != nil {
		// Peers answered but their views cannot be reconciled (e.g. an
		// object moved between peers mid-rebalance): unavailability, not
		// a partial answer.
		return shard.GatherInput{}, c.cachedVersion(), fmt.Errorf("%w: %v", ErrPeerUnavailable, err)
	}
	in.Space = c.net.Space()
	in.Workers = c.cfg.Workers
	if in.Workers < 1 {
		in.Workers = runtime.GOMAXPROCS(0)
	}
	return in, versionFromParts(parts), nil
}

// intoScatter decodes a scatter answer in whichever encoding the peer
// chose: the binary frame, or the JSON a peer that predates it sends.
func intoScatter(dst **shard.ScatterResult) decoder {
	return func(body []byte, contentType string) error {
		if contentType != ScatterFrameType {
			var resp ScatterResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				return err
			}
			*dst = ScatterFromWire(&resp)
			return nil
		}
		res, err := DecodeScatterFrame(body)
		*dst = res
		return err
	}
}

// runGroup is the remote RunSharedInfluence: scatter, merge, replay-
// gather. Answer bytes match the single-process path at the same
// snapshot versions and seed by construction.
func (c *Coordinator) runGroup(ctx context.Context, spec shard.GroupSpec, items []shard.GroupItem) ([]shard.GroupAnswer, query.Stats, shard.Influence, pnn.VersionInfo, error) {
	in, vi, err := c.scatterAll(ctx, spec)
	if err != nil {
		return nil, query.Stats{}, shard.Influence{}, vi, err
	}
	answers, stats, inf, err := shard.Gather(spec, items, in)
	return answers, stats, inf, vi, err
}

// runStanding answers one request, additionally reporting the influence
// region and the composite version for the subscription machinery.
func (c *Coordinator) runStanding(req pnn.Request) (pnn.Response, shard.Influence, int64) {
	spec, item, err := pnn.NormalizeRequest(req)
	if err != nil {
		vi := c.cachedVersion()
		return pnn.Response{Version: vi, Err: err}, shard.Influence{}, vi.Max
	}
	answers, raw, inf, vi, err := c.runGroup(context.Background(), spec, []shard.GroupItem{item})
	if err != nil {
		return pnn.Response{Version: vi, Err: err}, shard.Influence{}, vi.Max
	}
	resp := pnn.ResponseFromAnswer(item.Op, answers[0], raw)
	resp.Stats.SamplerBuilds = raw.SamplerBuilds
	resp.Version = vi
	return resp, inf, vi.Max
}

// Run answers one query through the scatter-gather path.
func (c *Coordinator) Run(req pnn.Request) pnn.Response {
	resp, _, _ := c.runStanding(req)
	return resp
}

// batchUnit is one independently re-runnable slice of a batch: a single
// request, or one shared-world group. run answers its requests into out
// and returns the version view it gathered at.
type batchUnit struct {
	idx []int
	run func(ctx context.Context) pnn.VersionInfo
}

// RunBatchStats mirrors pnn's batch contract over the cluster: the same
// grouping keys and group seeds (via pnn.ShareGroup), the same
// per-response SamplerBuilds zeroing, plus cross-request snapshot
// reconciliation — a single process pins one snapshot for the whole
// batch, a coordinator cannot, so units that gathered at a stale view
// are retried once against the newest and flagged peer_unavailable if
// they still disagree.
func (c *Coordinator) RunBatchStats(reqs []pnn.Request, opts pnn.BatchOptions) ([]pnn.Response, pnn.BatchStats) {
	out := make([]pnn.Response, len(reqs))
	bst := pnn.BatchStats{Requests: len(reqs)}
	if len(reqs) == 0 {
		return out, bst
	}
	workers := opts.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	ctx := context.Background()
	var mu sync.Mutex
	var units []*batchUnit
	if opts.ShareWorlds {
		units = c.shareUnits(reqs, opts.SharedSeed, out, &bst, &mu)
		bst.Groups = len(units)
	} else {
		units = c.soloUnits(reqs, out, &bst, &mu)
	}
	vectors := make([][]int64, len(units))
	fanOut(len(units), workers, func(u int) {
		vectors[u] = units[u].run(ctx).Vector
	})
	c.reconcile(ctx, workers, units, vectors, out)
	return out, bst
}

// soloUnits builds one unit per valid request (sharing disabled).
func (c *Coordinator) soloUnits(reqs []pnn.Request, out []pnn.Response, bst *pnn.BatchStats, mu *sync.Mutex) []*batchUnit {
	var units []*batchUnit
	for i := range reqs {
		spec, item, err := pnn.NormalizeRequest(reqs[i])
		if err != nil {
			out[i] = pnn.Response{Version: c.cachedVersion(), Err: err}
			continue
		}
		i := i
		units = append(units, &batchUnit{idx: []int{i}, run: func(ctx context.Context) pnn.VersionInfo {
			answers, raw, _, vi, err := c.runGroup(ctx, spec, []shard.GroupItem{item})
			if err != nil {
				out[i] = pnn.Response{Version: vi, Err: err}
				return vi
			}
			resp := pnn.ResponseFromAnswer(item.Op, answers[0], raw)
			resp.Version = vi
			out[i] = resp
			mu.Lock()
			bst.SamplerBuilds += raw.SamplerBuilds
			bst.AdaptTime += raw.AdaptTime
			mu.Unlock()
			return vi
		}})
	}
	return units
}

// shareUnits coalesces requests into shared-world groups using exactly
// the keys and seeds a single process uses, one unit per group.
func (c *Coordinator) shareUnits(reqs []pnn.Request, sharedSeed int64, out []pnn.Response, bst *pnn.BatchStats, mu *sync.Mutex) []*batchUnit {
	type bucket struct {
		seed int64
		idx  []int
	}
	groups := make(map[string]*bucket)
	var order []string
	for i := range reqs {
		key, seed, err := pnn.ShareGroup(sharedSeed, reqs[i])
		if err != nil {
			out[i] = pnn.Response{Version: c.cachedVersion(), Err: err}
			continue
		}
		b := groups[key]
		if b == nil {
			b = &bucket{seed: seed}
			groups[key] = b
			order = append(order, key)
		}
		b.idx = append(b.idx, i)
	}
	units := make([]*batchUnit, 0, len(order))
	for _, key := range order {
		b := groups[key]
		spec, _, _ := pnn.NormalizeRequest(reqs[b.idx[0]])
		spec.Seed = b.seed
		items := make([]shard.GroupItem, len(b.idx))
		for j, i := range b.idx {
			_, items[j], _ = pnn.NormalizeRequest(reqs[i])
		}
		idx := b.idx
		units = append(units, &batchUnit{idx: idx, run: func(ctx context.Context) pnn.VersionInfo {
			answers, raw, _, vi, err := c.runGroup(ctx, spec, items)
			if err != nil {
				for _, i := range idx {
					out[i] = pnn.Response{Version: vi, Err: err}
				}
				return vi
			}
			for j, i := range idx {
				resp := pnn.ResponseFromAnswer(items[j].Op, answers[j], raw)
				resp.Version = vi
				out[i] = resp
			}
			mu.Lock()
			bst.SamplerBuilds += raw.SamplerBuilds
			bst.AdaptTime += raw.AdaptTime
			mu.Unlock()
			return vi
		}})
	}
	return units
}

// reconcile enforces the batch's mutual-consistency contract: all units
// must have gathered at the same snapshot vector. Stale units (writes
// landed mid-batch) are re-run once against the now-newest view; a unit
// whose vector still disagrees afterwards gets peer_unavailable — a
// batch never mixes snapshots silently.
func (c *Coordinator) reconcile(ctx context.Context, workers int, units []*batchUnit, vectors [][]int64, out []pnn.Response) {
	stale := staleUnits(units, vectors)
	if len(stale) == 0 {
		return
	}
	fanOut(len(stale), workers, func(j int) {
		u := stale[j]
		vectors[u] = units[u].run(ctx).Vector
	})
	for _, u := range staleUnits(units, vectors) {
		vi := pnn.VersionInfo{Vector: vectors[u]}
		for _, v := range vectors[u] {
			vi.Max += v
		}
		if n := len(vectors[u]); n > 1 {
			// Per-shard versions each start at 1; the composite is the
			// vector sum minus the startup offset.
			vi.Max -= int64(n - 1)
		}
		for _, i := range units[u].idx {
			out[i] = pnn.Response{Version: vi,
				Err: fmt.Errorf("%w: batch gathered across concurrent writes twice", ErrPeerUnavailable)}
		}
	}
}

// staleUnits returns the units whose gather vector differs from the
// newest one seen (the vector with the highest composite sum).
func staleUnits(units []*batchUnit, vectors [][]int64) []int {
	sum := func(v []int64) int64 {
		var s int64
		for _, x := range v {
			s += x
		}
		return s
	}
	best := 0
	for u := range units {
		if sum(vectors[u]) > sum(vectors[best]) {
			best = u
		}
	}
	var stale []int
	for u := range units {
		if !equalVec(vectors[u], vectors[best]) {
			stale = append(stale, u)
		}
	}
	return stale
}

func equalVec(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// fanOut runs fn over [0, n) on up to `workers` goroutines.
func fanOut(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// sentinelError preserves a peer's error message while matching the
// facade's ingest sentinels under errors.Is, so the API layer classifies
// routed rejections exactly like local ones.
type sentinelError struct {
	msg string
	is  error
}

func (e *sentinelError) Error() string { return e.msg }
func (e *sentinelError) Unwrap() error { return e.is }

// mapIngestErr folds a routed write's RPC error back into the facade's
// error vocabulary.
func mapIngestErr(err error) error {
	var r *rpcError
	if errors.As(err, &r) {
		switch r.Code {
		case "duplicate_object":
			return &sentinelError{msg: r.Message, is: pnn.ErrDuplicateID}
		case "unknown_object":
			return &sentinelError{msg: r.Message, is: pnn.ErrUnknownID}
		}
		return errors.New(r.Message)
	}
	return err
}

// AddObject routes a new object to its ring owner.
func (c *Coordinator) AddObject(id int, obs []pnn.Observation) (pnn.Ingest, error) {
	return c.ingest("add", id, obs)
}

// Observe routes new observations to the object's ring owner.
func (c *Coordinator) Observe(id int, obs ...pnn.Observation) (pnn.Ingest, error) {
	return c.ingest("observe", id, obs)
}

func (c *Coordinator) ingest(kind string, id int, obs []pnn.Observation) (pnn.Ingest, error) {
	ctx := context.Background()
	owner := c.ring.OwnerID(id)
	wreq := IngestRPCRequest{Kind: kind, ID: id, Observations: make([]ObservationJSON, len(obs))}
	for i, ob := range obs {
		wreq.Observations[i] = ObservationJSON{T: ob.T, State: ob.State}
	}
	pc := c.clients[owner]
	var resp IngestRPCResponse
	// Writes are not idempotent (a duplicate add must 409 exactly once),
	// so no hedged retry here: one attempt, one verdict.
	if err := pc.callJSON(ctx, "/internal/ingest", wreq, &resp); err != nil {
		return pnn.Ingest{}, mapIngestErr(err)
	}
	pc.noteIngest(resp)
	ing := c.mergedIngest()
	c.notifyWrite(ctx, id, owner)
	return ing, nil
}

// noteIngest folds a routed write's published snapshot into the peer's
// cached health view, so merged versions advance without waiting for
// the next probe.
func (p *peerClient) noteIngest(resp IngestRPCResponse) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.health.Version = resp.Version
	p.health.Versions = resp.Versions
	p.health.Objects = resp.Objects
}

// mergedIngest reports the cluster-wide published state after a write.
func (c *Coordinator) mergedIngest() pnn.Ingest {
	var ing pnn.Ingest
	for _, name := range c.order {
		_, _, _, h := c.clients[name].status()
		ing.Version += h.Version
		ing.Objects += h.Objects
	}
	ing.Version -= int64(len(c.order) - 1)
	return ing
}

// notifyWrite classifies the routed write for the standing queries. The
// touch predicate asks the object's owner whether its (already written)
// rectangles can intersect the stored influence region; an RPC failure
// degrades to "touched" — a spurious re-evaluation, never a missed one.
func (c *Coordinator) notifyWrite(ctx context.Context, id int, owner string) {
	pc := c.clients[owner]
	c.subs.NotifyWrite(id, func(region any) bool {
		r, ok := region.(*coordRegion)
		if !ok {
			return true
		}
		treq := TouchRequest{ID: id, Query: r.q, Ts: r.ts, Te: r.te, Bound: PruneToWire(r.bound)}
		var tresp TouchResponse
		if err := pc.callHedged(ctx, "/internal/touch", &treq, "", intoJSON(&tresp)); err != nil {
			return true
		}
		return tresp.Touched
	})
}

// Subscribe registers a standing query evaluated through the scatter-
// gather path; its events carry the same Response bytes a single
// process would deliver at the same merged snapshot and seed.
// Compatible standing queries (equal pnn.StandingKey) group into one
// scatter-gather per sweep, exactly like a single process groups them
// into one RunShared.
func (c *Coordinator) Subscribe(req pnn.Request, d pnn.Delivery) (*pnn.Subscription, error) {
	if _, _, err := pnn.NormalizeRequest(req); err != nil {
		return nil, err
	}
	return c.subs.SubscribeKeyed(pnn.StandingKey(req), func() sub.Eval { return c.evalStanding(req) }, d, req), nil
}

func (c *Coordinator) evalStanding(req pnn.Request) sub.Eval {
	evals, _ := c.evalStandingGroup("", []any{req}, nil)
	return evals[0]
}

// groupState is a standing group's adaptive carry-over: the stop point
// (worlds drawn) its previous evaluation proved sufficient, used as the
// next evaluation's early-stop floor.
type groupState struct {
	worlds int
}

// evalStandingGroup is the registry's GroupEval hook: one scatter-
// gather answers every member of a compatible standing group. Members
// share the spec by construction of the key; the floor is raised to the
// group's previously proven budget before gathering, which never
// changes which worlds are drawn — only how early the replayed
// executor may stop — so no wire change is needed: peers always
// pre-draw the full budget.
func (c *Coordinator) evalStandingGroup(_ string, metas []any, state any) (evals []sub.Eval, newState any) {
	newState = state
	reqs := make([]pnn.Request, len(metas))
	for i, m := range metas {
		reqs[i], _ = m.(pnn.Request)
	}
	evals = make([]sub.Eval, len(reqs))
	fail := func(vi pnn.VersionInfo, err error) {
		for i := range evals {
			resp := pnn.Response{Version: vi, Err: err}
			evals[i] = sub.Eval{Version: vi.Max, Payload: resp, Fingerprint: pnn.FingerprintResponse(resp)}
		}
	}
	spec, _, err := pnn.NormalizeRequest(reqs[0])
	if err != nil {
		fail(c.cachedVersion(), err)
		return evals, newState
	}
	items := make([]shard.GroupItem, len(reqs))
	for i, req := range reqs {
		_, item, err := pnn.NormalizeRequest(req)
		if err != nil {
			fail(c.cachedVersion(), err)
			return evals, newState
		}
		items[i] = item
	}
	reused := false
	if st, ok := state.(*groupState); ok && spec.Conf.Enabled() && st.worlds > spec.MinWorlds {
		spec.MinWorlds = st.worlds
		reused = true
	}
	answers, raw, inf, vi, err := c.runGroup(context.Background(), spec, items)
	if err != nil {
		fail(vi, err)
		return evals, newState
	}
	if spec.Conf.Enabled() && raw.Worlds > 0 {
		newState = &groupState{worlds: raw.Worlds}
	}
	region := &coordRegion{q: encodeQuery(spec.Q, spec.Ts, spec.Te), ts: spec.Ts, te: spec.Te, bound: inf.PruneDist}
	for i, a := range answers {
		resp := pnn.ResponseFromAnswer(items[i].Op, a, raw)
		resp.Stats.SamplerBuilds = raw.SamplerBuilds
		resp.Stats.GroupSize = len(reqs)
		resp.Stats.BudgetReused = reused
		if spec.Conf.Enabled() {
			resp.Stats.WorldFloor = spec.MinWorlds
		}
		resp.Version = vi
		ev := sub.Eval{
			Version:      vi.Max,
			Payload:      resp,
			Fingerprint:  pnn.FingerprintResponse(resp),
			BudgetReused: reused,
		}
		if a.Err == nil {
			ev.Influencers = inf.IDs
			ev.Region = region
		}
		evals[i] = ev
	}
	return evals, newState
}

// Unsubscribe removes a standing query.
func (c *Coordinator) Unsubscribe(id int64) bool { return c.subs.Unsubscribe(id) }

// Subscription returns the standing query with the given ID.
func (c *Coordinator) Subscription(id int64) (*pnn.Subscription, bool) { return c.subs.Get(id) }

// Subscriptions lists the registered standing queries.
func (c *Coordinator) Subscriptions() []pnn.SubscriptionInfo { return c.subs.List() }

// NumSubscriptions returns the number of registered standing queries.
func (c *Coordinator) NumSubscriptions() int { return c.subs.Len() }

// SubscriptionStats returns the registry's cumulative counters.
func (c *Coordinator) SubscriptionStats() pnn.SubscriptionStats { return c.subs.Stats() }

// WaitSubscriptionsIdle blocks until pending re-evaluations drain.
func (c *Coordinator) WaitSubscriptionsIdle(timeout time.Duration) bool {
	return c.subs.WaitIdle(timeout)
}

// CloseSubscriptions shuts standing queries down, stops the health
// probe loop and drops the idle peer connections; the server's shutdown
// path calls it exactly like it does on a processor.
func (c *Coordinator) CloseSubscriptions() {
	c.subs.Close()
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
	for _, pc := range c.clients {
		pc.hc.CloseIdleConnections()
	}
}

// SnapshotDetail reports the merged cluster snapshot from the cached
// peer healths: composite version, total objects and the concatenated
// version vector.
func (c *Coordinator) SnapshotDetail() (version int64, objects int, shardVersions []int64) {
	vi := c.cachedVersion()
	for _, name := range c.order {
		_, _, _, h := c.clients[name].status()
		objects += h.Objects
	}
	return vi.Max, objects, vi.Vector
}

// NumShards returns the total shard count across peers.
func (c *Coordinator) NumShards() int {
	vi := c.cachedVersion()
	return len(vi.Vector)
}

// SampleBudget returns the cluster-wide per-query sample budget every
// peer agreed on at Bootstrap.
func (c *Coordinator) SampleBudget() int { return c.samples }

// CacheStats sums the peers' sampler-cache counters.
func (c *Coordinator) CacheStats() pnn.CacheStats {
	var cs pnn.CacheStats
	for _, name := range c.order {
		_, _, _, h := c.clients[name].status()
		cs.Builds += h.CacheBuilds
		cs.Hits += h.CacheHits
	}
	return cs
}

// PeerStatus is one peer's row in the /v1/cluster answer.
type PeerStatus struct {
	Name       string  `json:"name"`
	URL        string  `json:"url"`
	Role       string  `json:"role"`
	Healthy    bool    `json:"healthy"`
	LastError  string  `json:"last_error,omitempty"`
	ProbeAgeMS int64   `json:"probe_age_ms"`
	Version    int64   `json:"version"`
	Versions   []int64 `json:"versions"`
	Objects    int     `json:"objects"`
	// Durability is the peer's persistence mode from its last health
	// probe ("volatile", "wal", "wal+fsync"; empty before the first
	// answer), so a volatile node in a durable cluster is visible.
	Durability  string       `json:"durability,omitempty"`
	OwnedRanges []ring.Range `json:"owned_ranges"`
}

// Status is the cluster topology and health view served at /v1/cluster.
type Status struct {
	Role         string       `json:"role"`
	VirtualNodes int          `json:"virtual_nodes"`
	SampleBudget int          `json:"sample_budget"`
	Peers        []PeerStatus `json:"peers"`
	Vector       []int64      `json:"version_vector"`
	Version      int64        `json:"version_max"`
	// Durability is this node's own persistence mode; a router is
	// "stateless" (it indexes nothing), standalone nodes and peers
	// report volatile/wal/wal+fsync.
	Durability string `json:"durability,omitempty"`
}

// ClusterStatus reports the topology: peers in version-vector order,
// their health and snapshot identities, and each one's consistent-hash
// ownership arcs.
func (c *Coordinator) ClusterStatus() Status {
	st := Status{
		Role:         "router",
		VirtualNodes: c.ring.NumVirtual() / len(c.order),
		SampleBudget: c.samples,
		Durability:   "stateless", // the router indexes nothing to persist
	}
	for _, p := range c.cfg.Peers {
		healthy, lastErr, lastProbe, h := c.clients[p.Name].status()
		ps := PeerStatus{
			Name: p.Name, URL: p.URL, Role: "peer",
			Healthy: healthy, LastError: lastErr,
			Version: h.Version, Versions: h.Versions, Objects: h.Objects,
			Durability:  h.Durability,
			OwnedRanges: c.ring.Ranges(p.Name),
		}
		if !lastProbe.IsZero() {
			ps.ProbeAgeMS = time.Since(lastProbe).Milliseconds()
		}
		st.Peers = append(st.Peers, ps)
		st.Vector = append(st.Vector, h.Versions...)
		st.Version += h.Version
	}
	st.Version -= int64(len(c.order) - 1)
	return st
}

// HealthyPeers counts peers whose last probe succeeded.
func (c *Coordinator) HealthyPeers() int {
	n := 0
	for _, name := range c.order {
		if healthy, _, _, _ := c.clients[name].status(); healthy {
			n++
		}
	}
	return n
}
