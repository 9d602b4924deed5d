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
}

// Coordinator is the router of cluster mode: it owns consistent-hash
// object routing for ingest, scatters query work to the shard peers and
// gathers merged answers that are byte-identical to a single-process
// shard.Set over the union of the peers' objects at the same snapshot
// versions and seed. Queries, batches and standing queries run through
// the embedded pnn.Executor over the remote view, exactly as on a
// pnn.Processor, so the HTTP server serves either without caring which.
type Coordinator struct {
	*pnn.Executor
	net     *pnn.Network
	cfg     Config
	ring    *ring.Ring
	order   []string // configured peer order = version-vector concat order
	clients map[string]*peerClient

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
	c := &Coordinator{
		net:     net,
		cfg:     cfg,
		ring:    rg,
		order:   names,
		clients: clients,
		stop:    make(chan struct{}),
	}
	c.Executor = pnn.NewExecutor(func() pnn.View { return remoteView{c} })
	return c, nil
}

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

// remoteView is the executor's view of the cluster: each group
// scatters to every peer and replay-gathers on the router. It pins
// nothing — every group reports the merged version it gathered at — and
// cannot replay a previous evaluation, so it ignores the carry.
type remoteView struct{ c *Coordinator }

func (v remoteView) Version() pnn.VersionInfo { return v.c.cachedVersion() }

// RunGroup is the remote RunSharedInfluence: scatter, merge, replay-
// gather. Answer bytes match the single-process path at the same
// snapshot versions and seed by construction.
func (v remoteView) RunGroup(spec shard.GroupSpec, items []shard.GroupItem, _ *shard.Carry) (pnn.GroupRun, error) {
	in, vi, err := v.c.scatterAll(context.Background(), spec)
	if err != nil {
		return pnn.GroupRun{Version: vi}, err
	}
	answers, st, inf, err := shard.Gather(spec, items, in)
	return pnn.GroupRun{Answers: answers, Stats: st, Influence: inf, Version: vi}, err
}

// StaleErr marks a batch unit that gathered across concurrent writes
// twice as unavailability, never a partial answer.
func (remoteView) StaleErr() error { return ErrPeerUnavailable }

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
	c.NotifyWrite(id, func(q pnn.Query, ts, te int, bound []float64) bool {
		treq := TouchRequest{ID: id, Query: encodeQuery(q, ts, te), Ts: ts, Te: te, Bound: PruneToWire(bound)}
		var tresp TouchResponse
		if err := pc.callHedged(ctx, "/internal/touch", &treq, "", intoJSON(&tresp)); err != nil {
			return true
		}
		return tresp.Touched
	})
}

// CloseSubscriptions shuts standing queries down, stops the health
// probe loop and drops the idle peer connections; the server's shutdown
// path calls it exactly like it does on a processor.
func (c *Coordinator) CloseSubscriptions() {
	c.Executor.CloseSubscriptions()
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
