package server

// Cluster conformance: a router over two single-shard peer processes
// must answer /v1 queries byte-identical to one process holding the
// same objects in two shards — same results, sampling, stats and
// version blocks at the same snapshot version and seed — and must fail
// structurally (peer_unavailable), never partially, when a peer dies.

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pnn"
	"pnn/internal/cluster"
)

var clusterPeerNames = []string{"alpha", "beta"}

// clusterDB builds the conformance dataset: six route objects. keep
// filters which objects are added, so peers load exactly the slice
// they own — the same state pnnserve -role peer reaches via DB.Retain.
func clusterDB(t *testing.T, net *pnn.Network, keep func(id int) bool) *pnn.DB {
	t.Helper()
	db := pnn.NewDB(net)
	routes := [][2]pnn.Point{
		{{X: 0.1, Y: 0.1}, {X: 0.9, Y: 0.9}},
		{{X: 0.9, Y: 0.1}, {X: 0.1, Y: 0.9}},
		{{X: 0.1, Y: 0.5}, {X: 0.9, Y: 0.5}},
		{{X: 0.5, Y: 0.1}, {X: 0.5, Y: 0.9}},
		{{X: 0.2, Y: 0.8}, {X: 0.8, Y: 0.2}},
		{{X: 0.3, Y: 0.3}, {X: 0.7, Y: 0.7}},
	}
	for i, r := range routes {
		id := 100 + 7*i
		if keep != nil && !keep(id) {
			continue
		}
		a, b := net.NearestState(r[0]), net.NearestState(r[1])
		if err := db.Add(id, net.ObservationsAlong(a, b, 0, 2, 4)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// clusterRig is the full conformance topology: one single-process
// two-shard reference server and its processor, two one-shard peers
// behind /internal, a coordinator over them and the router server it
// backs.
type clusterRig struct {
	net    *pnn.Network
	proc   *pnn.Processor
	single *httptest.Server
	router *httptest.Server
	coord  *cluster.Coordinator
	peers  map[string]*httptest.Server
	// touches counts the /internal/touch requests the peers served.
	touches *atomic.Int64
}

func newClusterRig(t *testing.T, workers int) *clusterRig {
	t.Helper()
	net, err := pnn.NewGridNetwork(8, 8)
	if err != nil {
		t.Fatal(err)
	}

	proc, err := clusterDB(t, net, nil).BuildSharded(300, 2)
	if err != nil {
		t.Fatal(err)
	}
	single := httptest.NewServer(New(net, proc, Config{BatchWorkers: 2, Ingest: true}))
	t.Cleanup(single.Close)

	// Peers hold exactly the reference processor's shards (peer i =
	// shard i), so every response byte — including the layout-dependent
	// pruning diagnostics stats.candidates/influencers/sampler_builds —
	// must match, not just the layout-free answer. A production peer
	// retains by ring arc instead (a different but equally valid
	// partition); the cross-process tier under cmd/pnnserve covers that
	// shape, comparing answers modulo the layout diagnostics.
	peers := make(map[string]*httptest.Server, len(clusterPeerNames))
	cpeers := make([]cluster.Peer, 0, len(clusterPeerNames))
	touches := new(atomic.Int64)
	for i, name := range clusterPeerNames {
		shard := i
		pdb := clusterDB(t, net, func(id int) bool { return proc.ShardSet().ShardFor(id) == shard })
		if pdb.Len() == 0 {
			t.Fatalf("peer %s owns no objects; respread the dataset IDs", name)
		}
		pproc, err := pdb.Build(300)
		if err != nil {
			t.Fatal(err)
		}
		peer := New(net, pproc, Config{Role: RolePeer})
		pts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/internal/touch" {
				touches.Add(1)
			}
			peer.ServeHTTP(w, r)
		}))
		t.Cleanup(pts.Close)
		peers[name] = pts
		cpeers = append(cpeers, cluster.Peer{Name: name, URL: pts.URL})
	}

	coord, err := cluster.NewCoordinator(net, cluster.Config{
		Peers: cpeers, Timeout: 5 * time.Second, Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := coord.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.CloseSubscriptions)
	router := httptest.NewServer(New(net, coord, Config{BatchWorkers: 2, Ingest: true, Role: RoleRouter}))
	t.Cleanup(router.Close)
	return &clusterRig{net: net, proc: proc, single: single, router: router, coord: coord, peers: peers, touches: touches}
}

// TestClusterWorldFloorEveryPath sends one confidence request with a
// MinWorlds floor through Run, a solo batch and a shared batch, on the
// reference processor and on the coordinator. Each pair must give equal
// Response values, and every one reports the floor in effect. The peers
// hold exactly the processor's shards, so the version vector and the
// pruning diagnostics match too.
func TestClusterWorldFloorEveryPath(t *testing.T) {
	rig := newClusterRig(t, 2)
	center := rig.net.NearestState(pnn.Point{X: 0.5, Y: 0.5})
	req := pnn.Request{
		Semantics: pnn.Exists, Query: pnn.AtState(rig.net, center), Ts: 1, Te: 6, Tau: 0.05, Seed: 42,
		Confidence: pnn.Confidence{Eps: 0.05, MaxSamples: 2000}, MinWorlds: 1024,
	}
	batch := func(opts pnn.BatchOptions) func(Backend) pnn.Response {
		return func(b Backend) pnn.Response {
			out, _ := b.RunBatchStats([]pnn.Request{req}, opts)
			return out[0]
		}
	}
	paths := []struct {
		name string
		run  func(Backend) pnn.Response
	}{
		{"run", func(b Backend) pnn.Response { return b.Run(req) }},
		{"batch-solo", batch(pnn.BatchOptions{Workers: 2})},
		{"batch-shared", batch(pnn.BatchOptions{Workers: 2, ShareWorlds: true, SharedSeed: 9})},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			want := p.run(rig.proc)
			got := p.run(rig.coord)
			if want.Err != nil || len(want.Results) == 0 {
				t.Fatalf("processor answered %+v; the check needs a non-empty answer", want)
			}
			if want.Stats.WorldFloor != req.MinWorlds {
				t.Errorf("processor WorldFloor = %d, want %d", want.Stats.WorldFloor, req.MinWorlds)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("router and processor answers differ:\nrouter:    %+v\nprocessor: %+v", got, want)
			}
		})
	}
}

// TestClusterQueryConformance is the determinism contract of cluster
// mode: every /v1 query endpoint answers byte-identical bodies from the
// router and from the single-process reference — including the
// sampling and version blocks — at both gather parallelism levels.
func TestClusterQueryConformance(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			rig := newClusterRig(t, workers)
			center := rig.net.NearestState(pnn.Point{X: 0.5, Y: 0.5})
			cases := []struct{ name, path, body string }{
				{"forall", "/v1/forallnn",
					fmt.Sprintf(`{"query": {"state": %d}, "window": {"ts": 1, "te": 6}, "tau": 0.05, "seed": 42}`, center)},
				{"exists-k2", "/v1/existsnn",
					fmt.Sprintf(`{"query": {"state": %d}, "window": {"ts": 1, "te": 6}, "tau": 0.05, "seed": 7, "k": 2}`, center)},
				{"point-exists", "/v1/existsnn",
					`{"query": {"point": {"x": 0.5, "y": 0.5}}, "window": {"ts": 1, "te": 5}, "tau": 0.05, "seed": 3}`},
				{"trajectory-cnn", "/v1/pcnn",
					`{"query": {"trajectory": {"start": 1, "points": [{"x": 0.4, "y": 0.5}, {"x": 0.5, "y": 0.5}]}}, "window": {"ts": 1, "te": 4}, "tau": 0.3, "seed": 9}`},
				{"confidence-adaptive", "/v1/forallnn",
					fmt.Sprintf(`{"query": {"state": %d}, "window": {"ts": 1, "te": 6}, "tau": 0.3, "seed": 42, "confidence": {"eps": 0.05, "max_samples": 2000}}`, center)},
			}
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					sCode, sRaw := post(t, rig.single.URL+tc.path, tc.body)
					rCode, rRaw := post(t, rig.router.URL+tc.path, tc.body)
					if sCode != http.StatusOK || rCode != http.StatusOK {
						t.Fatalf("single = %d (%s), router = %d (%s)", sCode, sRaw, rCode, rRaw)
					}
					if !bytes.Equal(sRaw, rRaw) {
						t.Errorf("router answer diverges from single process:\nsingle: %s\nrouter: %s", sRaw, rRaw)
					}
					var qr QueryResponse
					if err := json.Unmarshal(rRaw, &qr); err != nil {
						t.Fatal(err)
					}
					if len(qr.Version.Vector) != 2 || qr.Version.Max != 1 {
						t.Errorf("fresh-build version block = %+v, want {[1 1] 1}", qr.Version)
					}
				})
			}
		})
	}
}

// TestClusterBatchConformance checks /v1/batch parity — solo and
// shared-world grouping — comparing everything except the wall-clock
// adapt_ms figure.
func TestClusterBatchConformance(t *testing.T) {
	rig := newClusterRig(t, 2)
	center := rig.net.NearestState(pnn.Point{X: 0.5, Y: 0.5})
	for _, share := range []bool{false, true} {
		t.Run(fmt.Sprintf("share-%v", share), func(t *testing.T) {
			body := fmt.Sprintf(`{"share_worlds": %v, "shared_seed": 9, "requests": [
				{"semantics": "forall", "query": {"state": %d}, "window": {"ts": 1, "te": 6}, "tau": 0.05, "seed": 1},
				{"semantics": "exists", "query": {"state": %d}, "window": {"ts": 1, "te": 6}, "tau": 0.05, "seed": 2},
				{"semantics": "exists", "query": {"state": %d}, "window": {"ts": 2, "te": 5}, "tau": 0.05, "seed": 3}
			]}`, share, center, center, center)
			sCode, sRaw := post(t, rig.single.URL+"/v1/batch", body)
			rCode, rRaw := post(t, rig.router.URL+"/v1/batch", body)
			if sCode != http.StatusOK || rCode != http.StatusOK {
				t.Fatalf("single = %d (%s), router = %d (%s)", sCode, sRaw, rCode, rRaw)
			}
			var sb, rb BatchResponse
			if err := json.Unmarshal(sRaw, &sb); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(rRaw, &rb); err != nil {
				t.Fatal(err)
			}
			sb.BatchStats.AdaptMillis, rb.BatchStats.AdaptMillis = 0, 0
			se, _ := json.Marshal(sb)
			re, _ := json.Marshal(rb)
			if !bytes.Equal(se, re) {
				t.Errorf("batch diverges (adapt_ms excluded):\nsingle: %s\nrouter: %s", se, re)
			}
			if len(rb.Version.Vector) != 2 || rb.Version.Max != 1 {
				t.Errorf("batch version block = %+v, want {[1 1] 1}", rb.Version)
			}
		})
	}
}

// TestClusterPeerDown kills one peer mid-flight: the router must answer
// 503 with the structured peer_unavailable code and no results — a
// gather is all-or-nothing, never a partial answer.
func TestClusterPeerDown(t *testing.T) {
	rig := newClusterRig(t, 4)
	center := rig.net.NearestState(pnn.Point{X: 0.5, Y: 0.5})
	rig.peers[clusterPeerNames[1]].Close()

	body := fmt.Sprintf(`{"query": {"state": %d}, "window": {"ts": 1, "te": 6}, "tau": 0.05, "seed": 42}`, center)
	code, raw := post(t, rig.router.URL+"/v1/forallnn", body)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("query with a dead peer = %d, want 503 (%s)", code, raw)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("error envelope undecodable: %s", raw)
	}
	if env.Error.Code != CodePeerUnavailable {
		t.Errorf("error.code = %q, want %q (%s)", env.Error.Code, CodePeerUnavailable, raw)
	}
	if bytes.Contains(raw, []byte(`"results"`)) {
		t.Errorf("dead-peer answer leaked partial results: %s", raw)
	}

	// Batch items all fail the same structured way.
	code, raw = post(t, rig.router.URL+"/v1/batch", fmt.Sprintf(
		`{"requests": [{"semantics": "exists", "query": {"state": %d}, "window": {"ts": 1, "te": 6}, "tau": 0.05}]}`, center))
	if code != http.StatusOK {
		t.Fatalf("batch with a dead peer = %d (%s)", code, raw)
	}
	var br BatchResponse
	if err := json.Unmarshal(raw, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Responses) != 1 || br.Responses[0].Error == nil {
		t.Fatalf("batch item did not fail: %s", raw)
	}
	if br.Responses[0].Error.Code != CodePeerUnavailable {
		t.Errorf("batch item code = %q, want %q", br.Responses[0].Error.Code, CodePeerUnavailable)
	}
	if len(br.Responses[0].Results) != 0 {
		t.Errorf("failed batch item carries partial results: %s", raw)
	}
}

// TestClusterIngestParity drives the routed write path: the same write
// lands on both deployments, the composite version.max advances
// identically, and post-write answers agree on everything but the
// vector layout (a single process shards by object hash, the ring by
// peer arc — the composite version is defined to be layout-free).
func TestClusterIngestParity(t *testing.T) {
	rig := newClusterRig(t, 2)
	corner := rig.net.NearestState(pnn.Point{X: 0.95, Y: 0.05})

	add := fmt.Sprintf(`{"id": 200, "observations": [{"t": 0, "state": %d}, {"t": 6, "state": %d}]}`, corner, corner)
	sCode, sRaw := post(t, rig.single.URL+"/v1/objects", add)
	rCode, rRaw := post(t, rig.router.URL+"/v1/objects", add)
	if sCode != http.StatusOK || rCode != http.StatusOK {
		t.Fatalf("single = %d (%s), router = %d (%s)", sCode, sRaw, rCode, rRaw)
	}
	var sing, rout IngestResponse
	if err := json.Unmarshal(sRaw, &sing); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(rRaw, &rout); err != nil {
		t.Fatal(err)
	}
	if sing != rout {
		t.Errorf("ingest responses diverge: single %+v, router %+v", sing, rout)
	}
	if rout.Version != 2 || rout.Objects != 7 {
		t.Errorf("routed ingest = %+v, want version 2 with 7 objects", rout)
	}

	// Appending through /v1/observe advances both the same way again.
	obs := fmt.Sprintf(`{"id": 200, "observations": [{"t": 12, "state": %d}]}`, corner)
	if code, raw := post(t, rig.single.URL+"/v1/observe", obs); code != http.StatusOK {
		t.Fatalf("single observe = %d (%s)", code, raw)
	}
	rCode, rRaw = post(t, rig.router.URL+"/v1/observe", obs)
	if rCode != http.StatusOK {
		t.Fatalf("router observe = %d (%s)", rCode, rRaw)
	}
	if err := json.Unmarshal(rRaw, &rout); err != nil {
		t.Fatal(err)
	}
	if rout.Version != 3 {
		t.Errorf("routed observe version = %d, want 3", rout.Version)
	}

	// Post-write queries agree modulo layout: the single process placed
	// the new object by shard hash, the router by ring arc, so the
	// vector and the pruning diagnostics may differ — results, worlds,
	// sampling and the composite version.max must not.
	body := fmt.Sprintf(`{"query": {"state": %d}, "window": {"ts": 7, "te": 11}, "tau": 0.5, "seed": 3}`, corner)
	sCode, sRaw = post(t, rig.single.URL+"/v1/forallnn", body)
	rCode, rRaw = post(t, rig.router.URL+"/v1/forallnn", body)
	if sCode != http.StatusOK || rCode != http.StatusOK {
		t.Fatalf("post-write single = %d (%s), router = %d (%s)", sCode, sRaw, rCode, rRaw)
	}
	var sq, rq QueryResponse
	if err := json.Unmarshal(sRaw, &sq); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(rRaw, &rq); err != nil {
		t.Fatal(err)
	}
	if sq.Version.Max != 3 || rq.Version.Max != 3 {
		t.Errorf("post-write version.max: single %d, router %d, want 3", sq.Version.Max, rq.Version.Max)
	}
	if sq.Stats.Worlds != rq.Stats.Worlds {
		t.Errorf("post-write worlds: single %d, router %d", sq.Stats.Worlds, rq.Stats.Worlds)
	}
	sq.Version.Vector, rq.Version.Vector = nil, nil
	sq.Stats, rq.Stats = StatsJSON{}, StatsJSON{}
	se, _ := json.Marshal(sq)
	re, _ := json.Marshal(rq)
	if !bytes.Equal(se, re) {
		t.Errorf("post-write answers diverge (vector and layout diagnostics excluded):\nsingle: %s\nrouter: %s", se, re)
	}

	// Write rejections keep their stable codes through the RPC boundary.
	dup := `{"id": 200, "observations": [{"t": 0, "state": 1}]}`
	code, raw := post(t, rig.router.URL+"/v1/objects", dup)
	if code != http.StatusConflict {
		t.Fatalf("routed duplicate add = %d, want 409 (%s)", code, raw)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != CodeDuplicateObject {
		t.Errorf("routed duplicate code = %q, want %q", env.Error.Code, CodeDuplicateObject)
	}
	code, raw = post(t, rig.router.URL+"/v1/observe", `{"id": 999, "observations": [{"t": 50, "state": 1}]}`)
	if code != http.StatusConflict {
		t.Fatalf("routed unknown observe = %d, want 409 (%s)", code, raw)
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != CodeUnknownObject {
		t.Errorf("routed unknown-object code = %q, want %q", env.Error.Code, CodeUnknownObject)
	}
}

// TestClusterStatusEndpoints checks the /v1/cluster topology answer on
// every role and the /healthz cluster block.
func TestClusterStatusEndpoints(t *testing.T) {
	rig := newClusterRig(t, 2)
	getJSON := func(url string, out any) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", url, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}

	var st cluster.Status
	getJSON(rig.router.URL+"/v1/cluster", &st)
	if st.Role != RoleRouter || st.SampleBudget != 300 || st.VirtualNodes <= 0 {
		t.Errorf("router cluster status = %+v", st)
	}
	if len(st.Vector) != 2 || st.Version != 1 {
		t.Errorf("router cluster vector = %v max %d, want [1 1] 1", st.Vector, st.Version)
	}
	if len(st.Peers) != len(clusterPeerNames) {
		t.Fatalf("peers = %d, want %d", len(st.Peers), len(clusterPeerNames))
	}
	for i, p := range st.Peers {
		if p.Name != clusterPeerNames[i] {
			t.Errorf("peer %d = %q, out of version-vector order %v", i, p.Name, clusterPeerNames)
		}
		if !p.Healthy || p.Role != RolePeer || p.Objects <= 0 || len(p.OwnedRanges) == 0 {
			t.Errorf("peer %s status = %+v", p.Name, p)
		}
	}

	// A standalone node answers the same shape about itself.
	var solo cluster.Status
	getJSON(rig.single.URL+"/v1/cluster", &solo)
	if solo.Role != RoleStandalone || len(solo.Vector) != 2 || solo.Version != 1 || solo.SampleBudget != 300 {
		t.Errorf("standalone cluster status = %+v", solo)
	}
	var peer cluster.Status
	getJSON(rig.peers[clusterPeerNames[0]].URL+"/v1/cluster", &peer)
	if peer.Role != RolePeer || len(peer.Vector) != 1 {
		t.Errorf("peer cluster status = %+v", peer)
	}

	var rh, sh HealthResponse
	getJSON(rig.router.URL+"/healthz", &rh)
	if !rh.Cluster.Enabled || rh.Cluster.Role != RoleRouter ||
		rh.Cluster.Peers != 2 || rh.Cluster.HealthyPeers != 2 {
		t.Errorf("router healthz cluster block = %+v", rh.Cluster)
	}
	getJSON(rig.single.URL+"/healthz", &sh)
	if sh.Cluster.Enabled || sh.Cluster.Role != RoleStandalone {
		t.Errorf("standalone healthz cluster block = %+v", sh.Cluster)
	}
}

// TestClusterSubscription registers a standing query through the
// router and checks its events: the initial answer carries the
// cluster version block, and a routed write that touches the query
// re-evaluates it at the advanced version.
func TestClusterSubscription(t *testing.T) {
	rig := newClusterRig(t, 2)
	center := rig.net.NearestState(pnn.Point{X: 0.5, Y: 0.5})

	code, raw := post(t, rig.router.URL+"/v1/subscribe", fmt.Sprintf(
		`{"semantics": "exists", "query": {"state": %d}, "window": {"ts": 1, "te": 6},
		  "tau": 0.05, "seed": 11, "delivery": {"transport": "poll"}}`, center))
	if code != http.StatusOK {
		t.Fatalf("subscribe through router = %d (%s)", code, raw)
	}
	var sr SubscribeResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatal(err)
	}

	poll := func(wantVersion int64) SubEventJSON {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			resp, err := http.Get(fmt.Sprintf("%s/v1/subscriptions/%d/events?timeout_ms=500", rig.router.URL, sr.SubscriptionID))
			if err != nil {
				t.Fatal(err)
			}
			var ev SubEventsResponse
			err = json.NewDecoder(resp.Body).Decode(&ev)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ev.Events {
				if e.Event == "answer" && e.Version >= wantVersion {
					return e
				}
			}
		}
		t.Fatalf("no answer event at version >= %d within deadline", wantVersion)
		return SubEventJSON{}
	}

	first := poll(1)
	if first.Response == nil {
		t.Fatal("answer event without embedded response")
	}
	if len(first.Response.Version.Vector) != 2 || first.Response.Version.Max != 1 {
		t.Errorf("initial event version block = %+v, want {[1 1] 1}", first.Response.Version)
	}

	// A routed write at the query center must touch the standing query
	// and re-evaluate it against the advanced snapshot.
	code, raw = post(t, rig.router.URL+"/v1/objects", fmt.Sprintf(
		`{"id": 300, "observations": [{"t": 0, "state": %d}, {"t": 8, "state": %d}]}`, center, center))
	if code != http.StatusOK {
		t.Fatalf("routed write = %d (%s)", code, raw)
	}
	next := poll(2)
	if next.Response == nil {
		t.Fatal("re-evaluation event without embedded response")
	}
	if next.Response.Version.Max != 2 {
		t.Errorf("re-evaluation version.max = %d, want 2", next.Response.Version.Max)
	}
	found := false
	for _, r := range next.Response.Results {
		found = found || r.ObjectID == 300
	}
	if !found {
		t.Errorf("re-evaluated answer misses the written object: %+v", next.Response.Results)
	}
}

// TestClusterTouchPerGroup pins the router's write-path cost: standing
// queries in G compatibility groups of m members each cost one
// /internal/touch RPC per group on a routed write, not one per member.
func TestClusterTouchPerGroup(t *testing.T) {
	rig := newClusterRig(t, 2)
	center := rig.net.NearestState(pnn.Point{X: 0.5, Y: 0.5})
	const groups, members = 3, 4
	for g := 0; g < groups; g++ {
		for m := 0; m < members; m++ {
			// Members of a group differ only in tau; groups in seed.
			code, raw := post(t, rig.router.URL+"/v1/subscribe", fmt.Sprintf(
				`{"semantics": "exists", "query": {"state": %d}, "window": {"ts": 1, "te": 6},
				  "tau": %g, "seed": %d, "delivery": {"transport": "poll"}}`, center, 0.05*float64(m+1), 20+g))
			if code != http.StatusOK {
				t.Fatalf("subscribe through router = %d (%s)", code, raw)
			}
		}
	}
	if !rig.coord.WaitSubscriptionsIdle(10 * time.Second) {
		t.Fatal("initial passes did not quiesce")
	}
	// A new object: no group indexes it, so every group runs its touch
	// test, and only that.
	before := rig.touches.Load()
	code, raw := post(t, rig.router.URL+"/v1/objects", fmt.Sprintf(
		`{"id": 301, "observations": [{"t": 0, "state": %d}, {"t": 8, "state": %d}]}`, center, center))
	if code != http.StatusOK {
		t.Fatalf("routed write = %d (%s)", code, raw)
	}
	if got := rig.touches.Load() - before; got == 0 || got > groups {
		t.Errorf("routed write made %d /internal/touch requests for %d groups of %d members, want 1..%d",
			got, groups, members, groups)
	}
}

// TestScatterGzipNegotiation pins the /internal/scatter transport
// contract: a caller advertising gzip gets a Content-Encoding: gzip
// body measurably smaller than the identity payload, and it inflates
// to the identical JSON bytes; a caller without the header still gets
// plain JSON — the RPC degrades to identity, never errors.
func TestScatterGzipNegotiation(t *testing.T) {
	rig := newClusterRig(t, 1)
	peer := rig.peers[clusterPeerNames[0]]

	var pts bytes.Buffer
	for i := 1; i <= 6; i++ {
		if i > 1 {
			pts.WriteByte(',')
		}
		pts.WriteString(`{"x": 0.5, "y": 0.5}`)
	}
	body := fmt.Sprintf(`{"query": {"start": 1, "points": [%s]}, "ts": 1, "te": 6, "k": 1, "seed": 42}`, pts.String())

	fetch := func(acceptGzip bool) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, peer.URL+"/internal/scatter", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if acceptGzip {
			req.Header.Set("Accept-Encoding", "gzip")
		}
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scatter = %d (%s)", resp.StatusCode, raw)
		}
		return resp, raw
	}

	plainResp, plain := fetch(false)
	if enc := plainResp.Header.Get("Content-Encoding"); enc != "" {
		t.Fatalf("identity scatter answered Content-Encoding %q", enc)
	}
	gzResp, compressed := fetch(true)
	if enc := gzResp.Header.Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("gzip-accepting scatter answered Content-Encoding %q, want gzip", enc)
	}
	// The world-column payload is hundreds of repetitive base64 rows;
	// anything less than a 2x saving means compression is not actually
	// applied to the bulk of the body.
	if len(compressed)*2 >= len(plain) {
		t.Fatalf("gzip scatter body = %d bytes, want < half of identity's %d", len(compressed), len(plain))
	}
	zr, err := gzip.NewReader(bytes.NewReader(compressed))
	if err != nil {
		t.Fatal(err)
	}
	inflated, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	// The two fetches are separate scatters, so the wall-clock adapt_ns
	// figure and the sampler-cache warmth (sampler_builds) may differ;
	// everything else — versions, worlds, the drawn state columns — is
	// deterministic and must match exactly.
	canon := func(raw []byte) cluster.ScatterResponse {
		t.Helper()
		var sr cluster.ScatterResponse
		if err := json.Unmarshal(raw, &sr); err != nil {
			t.Fatal(err)
		}
		sr.AdaptNanos = 0
		sr.SamplerBuilds = 0
		return sr
	}
	want, got := canon(plain), canon(inflated)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("gzip scatter body inflates to a different answer:\nidentity: %+v\ninflated: %+v", want, got)
	}
	if got.Worlds == 0 || len(got.Rows) == 0 {
		t.Fatalf("scatter answer carries no worlds/rows: worlds=%d rows=%d", got.Worlds, len(got.Rows))
	}
}

// TestScatterFrameNegotiation pins the media-type contract of
// /internal/scatter: a caller that accepts the binary frame gets it with
// a Content-Length and no Content-Encoding, whatever else it accepts; a
// caller that does not gets exactly the JSON body it always did; and a
// router over peers that only speak JSON answers /v1 byte for byte like
// one over peers that speak the frame.
func TestScatterFrameNegotiation(t *testing.T) {
	rig := newClusterRig(t, 1)
	peer := rig.peers[clusterPeerNames[0]]
	body := `{"query": {"start": 1, "points": [{"x": 0.5, "y": 0.5}, {"x": 0.5, "y": 0.5}, {"x": 0.5, "y": 0.5}]}, "ts": 1, "te": 3, "k": 1, "seed": 42}`
	fetch := func(header http.Header) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, peer.URL+"/internal/scatter", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header = header
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scatter = %d (%s)", resp.StatusCode, raw)
		}
		return resp, raw
	}

	resp, frame := fetch(http.Header{"Accept": {cluster.ScatterFrameType}, "Accept-Encoding": {"gzip"}})
	if ct, ce := resp.Header.Get("Content-Type"), resp.Header.Get("Content-Encoding"); ct != cluster.ScatterFrameType || ce != "" {
		t.Fatalf("frame answer: Content-Type %q, Content-Encoding %q", ct, ce)
	}
	if resp.ContentLength != int64(len(frame)) {
		t.Errorf("frame answer: Content-Length %d for a %d-byte body", resp.ContentLength, len(frame))
	}
	res, err := cluster.DecodeScatterFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if res.Worlds == 0 || len(res.Rows) == 0 {
		t.Fatalf("frame carries no worlds/rows: worlds=%d rows=%d", res.Worlds, len(res.Rows))
	}

	// The JSON answer is the encoding of the same result; only the
	// scatter-cost fields (cache warmth, wall clock) differ between two
	// scatters, so they are taken from the answer being checked.
	resp, plain := fetch(http.Header{"Accept": {"application/json"}})
	if ct, ce := resp.Header.Get("Content-Type"), resp.Header.Get("Content-Encoding"); ct != "application/json" || ce != "" {
		t.Fatalf("JSON answer: Content-Type %q, Content-Encoding %q", ct, ce)
	}
	var sr cluster.ScatterResponse
	if err := json.Unmarshal(plain, &sr); err != nil {
		t.Fatal(err)
	}
	res.SamplerBuilds, res.AdaptTime = sr.SamplerBuilds, time.Duration(sr.AdaptNanos)
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(cluster.ScatterToWire(res)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, want.Bytes()) {
		t.Errorf("JSON answer is not the JSON encoding of the frame's result:\n got %s\nwant %s", plain, want.Bytes())
	}

	// "Old" peers: the same peers behind a front that drops Accept, so
	// every scatter leg comes back as JSON.
	var jsonLegs atomic.Int32
	oldPeers := make([]cluster.Peer, len(clusterPeerNames))
	for i, name := range clusterPeerNames {
		inner := rig.peers[name].Config.Handler
		old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			r.Header.Del("Accept")
			inner.ServeHTTP(w, r)
			if r.URL.Path == "/internal/scatter" && w.Header().Get("Content-Type") == "application/json" {
				jsonLegs.Add(1)
			}
		}))
		t.Cleanup(old.Close)
		oldPeers[i] = cluster.Peer{Name: name, URL: old.URL}
	}
	coord, err := cluster.NewCoordinator(rig.net, cluster.Config{Peers: oldPeers, Timeout: 5 * time.Second, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := coord.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.CloseSubscriptions)
	oldRouter := httptest.NewServer(New(rig.net, coord, Config{BatchWorkers: 2, Role: RoleRouter}))
	t.Cleanup(oldRouter.Close)

	center := rig.net.NearestState(pnn.Point{X: 0.5, Y: 0.5})
	for _, tc := range []struct{ path, body string }{
		{"/v1/forallnn", fmt.Sprintf(`{"query": {"state": %d}, "window": {"ts": 1, "te": 6}, "tau": 0.05, "seed": 42}`, center)},
		{"/v1/existsnn", fmt.Sprintf(`{"query": {"state": %d}, "window": {"ts": 1, "te": 6}, "tau": 0.05, "seed": 7, "k": 2}`, center)},
		{"/v1/pcnn", `{"query": {"point": {"x": 0.5, "y": 0.5}}, "window": {"ts": 1, "te": 4}, "tau": 0.3, "seed": 9}`},
		{"/v1/forallnn", fmt.Sprintf(`{"query": {"state": %d}, "window": {"ts": 1, "te": 6}, "tau": 0.3, "seed": 42, "confidence": {"eps": 0.05, "max_samples": 2000}}`, center)},
	} {
		// stats.sampler_builds counts cache warm-up on the shared peers:
		// the first answer pays it, the two compared find it paid.
		post(t, rig.router.URL+tc.path, tc.body)
		before := jsonLegs.Load()
		newCode, newRaw := post(t, rig.router.URL+tc.path, tc.body)
		oldCode, oldRaw := post(t, oldRouter.URL+tc.path, tc.body)
		if newCode != http.StatusOK || oldCode != http.StatusOK {
			t.Fatalf("%s: frame peers = %d (%s), JSON peers = %d (%s)", tc.path, newCode, newRaw, oldCode, oldRaw)
		}
		if !bytes.Equal(newRaw, oldRaw) {
			t.Errorf("%s: answer depends on the scatter encoding:\nframe peers: %s\n JSON peers: %s", tc.path, newRaw, oldRaw)
		}
		if got := jsonLegs.Load() - before; got != int32(len(clusterPeerNames)) {
			t.Errorf("%s: %d scatter legs came back as JSON, want %d", tc.path, got, len(clusterPeerNames))
		}
	}
}
