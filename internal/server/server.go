// Package server exposes the three probabilistic nearest-neighbor query
// semantics of package pnn over HTTP/JSON, turning the library into a
// standing service: the database is indexed once at startup and a warm
// sampler cache answers a stream of concurrent queries.
//
// Endpoints:
//
//	GET  /healthz      liveness plus snapshot version, object count,
//	                   cache counters and the supported confidence range
//	POST /v1/forallnn  P∀NNQ  (ForAllKNN)
//	POST /v1/existsnn  P∃NNQ  (ExistsKNN)
//	POST /v1/pcnn      PCNNQ  (ContinuousKNN)
//	POST /v1/batch     a slice of independent requests, answered by
//	                   Processor.RunBatchStats on the server's worker
//	                   pool; set "share_worlds" to coalesce compatible
//	                   requests (same reference, window, k and
//	                   confidence) into shared-world groups that sample
//	                   once per group
//	POST /v1/objects   live ingestion: register a new object
//	POST /v1/observe   live ingestion: append observations to an object
//	POST /v1/subscribe register a standing query; "sse" transport streams
//	                   versioned answer events on the same connection,
//	                   "poll" returns a subscription id for long-polling
//	GET  /v1/subscriptions            list registered standing queries
//	GET  /v1/subscriptions/{id}/events long-poll a poll-transport
//	                   subscription's queued events
//	DELETE /v1/subscriptions/{id}     cancel a standing query (its stream
//	                   receives a terminal bye event)
//
// Ingestion is snapshot-versioned (RCU): a write never disturbs
// in-flight queries — they finish on the version they started on — and
// every query issued after the write's response sees it. Both ingest
// endpoints return the published version.
//
// # Request schema
//
// The three query endpoints and every /v1/batch item share one request
// shape, QuerySpec: a query reference, a window, and the knobs.
//
//	{"query": {"state": 17}, "window": {"ts": 5, "te": 15},
//	 "tau": 0.3, "seed": 7,
//	 "confidence": {"eps": 0.05, "delta": 0.05, "max_samples": 20000}}
//
// The reference is exactly one of "state", "point" or "trajectory";
// "confidence" is optional and switches the query from the fixed sample
// budget to adaptive early-stopping sampling. The legacy flat spellings
// (top-level "state", "x"/"y", "trajectory", "ts", "te") are rejected
// on every endpoint with code "use_query_spec".
//
// # Errors
//
// Every error response carries a structured envelope with a stable
// machine-readable code:
//
//	{"error": {"code": "invalid_window", "message": "inverted interval [5, 1]", "field": "window"}}
//
// Malformed requests return 400; writes the database itself rejects —
// duplicate or unknown object IDs, observations the motion model cannot
// realize — return 409 (codes duplicate_object, unknown_object,
// rejected_write) and leave the served snapshot untouched. Query
// responses repeat the query's work statistics plus a "sampling" block
// (samples_drawn, error_bound, early_stopped) so callers can see what
// each answer cost and guarantees.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"pnn"
	"pnn/internal/cluster"
	"pnn/internal/query"
)

// APIVersion tags every query response; it advances only when the wire
// schema changes incompatibly.
const APIVersion = "v1.1"

// Stable machine-readable error codes of the /v1 API. Clients dispatch
// on these, never on message text.
const (
	CodeInvalidBody        = "invalid_body"
	CodeMethodNotAllowed   = "method_not_allowed"
	CodeUnknownSemantics   = "unknown_semantics"
	CodeInvalidQuery       = "invalid_query"
	CodeInvalidWindow      = "invalid_window"
	CodeInvalidK           = "invalid_k"
	CodeInvalidTau         = "invalid_tau"
	CodeInvalidConfidence  = "invalid_confidence"
	CodeInvalidObservation = "invalid_observation"
	CodeEmptyBatch         = "empty_batch"
	CodeBatchTooLarge      = "batch_too_large"
	CodeIngestDisabled     = "ingest_disabled"
	CodeDuplicateObject    = "duplicate_object"
	CodeUnknownObject      = "unknown_object"
	CodeRejectedWrite      = "rejected_write"
	CodeUseQuerySpec       = "use_query_spec"
	CodeInvalidDelivery    = "invalid_delivery"
	CodeUnknownSub         = "unknown_subscription"
	CodeSubLimit           = "subscription_limit"
	CodePeerUnavailable    = "peer_unavailable"
	CodeInternal           = "internal"
)

// Node roles of Config.Role. A peer additionally serves the /internal
// RPC surface a router scatters to; the role is advertised by /healthz
// and /v1/cluster either way.
const (
	RoleStandalone = "standalone"
	RoleRouter     = "router"
	RolePeer       = "peer"
)

// Config tunes a Server. The zero value is usable.
type Config struct {
	// BatchWorkers is the worker-pool size of /v1/batch; 0 picks
	// GOMAXPROCS.
	BatchWorkers int
	// MaxBatch caps the number of requests a single /v1/batch call may
	// carry; 0 means 1024.
	MaxBatch int
	// Ingest enables the write endpoints /v1/objects and /v1/observe.
	// When false they answer 403, making a read-only replica explicit
	// rather than a missing route.
	Ingest bool
	// ShareBatch makes /v1/batch coalesce compatible requests into
	// shared-world groups by default; a request body's "share_worlds"
	// field overrides it either way. See pnn.BatchOptions.ShareWorlds
	// for the semantics and determinism contract.
	ShareBatch bool
	// MaxObservations caps the observations one ingest call may carry;
	// 0 means 4096.
	MaxObservations int
	// MaxSamplesCap caps the confidence.max_samples escalation budget a
	// request may ask for; 0 means 10x the processor's fixed sample
	// budget. /healthz advertises the effective cap.
	MaxSamplesCap int
	// MaxSubscriptions caps the number of concurrently registered
	// standing queries; 0 means 10000. /healthz advertises the cap.
	MaxSubscriptions int
	// Role names this node's place in a cluster: RoleStandalone (or
	// empty), RoleRouter, or RolePeer. RolePeer additionally registers
	// the /internal RPC surface — only meaningful when the backend is a
	// local *pnn.Processor.
	Role string
}

// Backend is the query/ingest surface the server fronts: either a local
// *pnn.Processor (standalone and peer roles) or a cluster.Coordinator
// scatter-gathering over remote peers (router role). Both satisfy it
// structurally; the HTTP layer never cares which answers.
type Backend interface {
	Run(req pnn.Request) pnn.Response
	RunBatchStats(reqs []pnn.Request, opts pnn.BatchOptions) ([]pnn.Response, pnn.BatchStats)
	AddObject(id int, obs []pnn.Observation) (pnn.Ingest, error)
	Observe(id int, obs ...pnn.Observation) (pnn.Ingest, error)
	Subscribe(req pnn.Request, d pnn.Delivery) (*pnn.Subscription, error)
	Unsubscribe(id int64) bool
	Subscription(id int64) (*pnn.Subscription, bool)
	Subscriptions() []pnn.SubscriptionInfo
	NumSubscriptions() int
	SubscriptionStats() pnn.SubscriptionStats
	CloseSubscriptions()
	SnapshotDetail() (version int64, objects int, shardVersions []int64)
	NumShards() int
	SampleBudget() int
	CacheStats() pnn.CacheStats
}

// clusterBackend is the optional extension a router backend implements.
type clusterBackend interface {
	ClusterStatus() cluster.Status
	HealthyPeers() int
}

// durableBackend is the optional extension a durably-built local
// processor implements; routers and volatile processors report the
// zero (disabled) status.
type durableBackend interface {
	DurabilityStatus() pnn.DurabilityStatus
}

// Server answers PNN queries for one built database. It implements
// http.Handler and is safe for concurrent use (the underlying Processor
// is).
type Server struct {
	proc  Backend
	net   *pnn.Network
	cfg   Config
	mux   *http.ServeMux
	start time.Time
}

// New wraps a backend — a built processor, or a cluster coordinator —
// and its network in an HTTP server.
func New(net *pnn.Network, proc Backend, cfg Config) *Server {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 1024
	}
	if cfg.MaxObservations <= 0 {
		cfg.MaxObservations = 4096
	}
	if cfg.MaxSamplesCap <= 0 {
		cfg.MaxSamplesCap = 10 * proc.SampleBudget()
	}
	if cfg.MaxSubscriptions <= 0 {
		cfg.MaxSubscriptions = 10000
	}
	s := &Server{proc: proc, net: net, cfg: cfg, mux: http.NewServeMux(), start: time.Now()}
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/v1/forallnn", s.queryHandler(pnn.ForAll))
	s.mux.HandleFunc("/v1/existsnn", s.queryHandler(pnn.Exists))
	s.mux.HandleFunc("/v1/pcnn", s.queryHandler(pnn.Continuous))
	s.mux.HandleFunc("/v1/batch", s.handleBatch)
	s.mux.HandleFunc("/v1/objects", s.handleAddObject)
	s.mux.HandleFunc("/v1/observe", s.handleObserve)
	s.mux.HandleFunc("/v1/subscribe", s.handleSubscribe)
	s.mux.HandleFunc("/v1/subscriptions", s.handleSubscriptions)
	s.mux.HandleFunc("/v1/subscriptions/{id}", s.handleSubscription)
	s.mux.HandleFunc("/v1/subscriptions/{id}/events", s.handleSubEvents)
	s.mux.HandleFunc("/v1/cluster", s.handleCluster)
	if cfg.Role == RolePeer {
		if local, ok := proc.(*pnn.Processor); ok {
			s.registerInternal(local)
		}
	}
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Run serves on addr until ctx is cancelled, then drains in-flight
// requests for up to grace before forcing connections closed. It returns
// nil on a clean shutdown.
func (s *Server) Run(ctx context.Context, addr string, grace time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.serve(ctx, ln, grace)
}

// Connection timeouts of the listener: a client gets readHeaderTimeout
// to finish its request headers, and a keep-alive connection idleTimeout
// between requests, so neither a stalled nor an abandoned connection
// pins a goroutine and a descriptor forever.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// httpServer builds the http.Server that serves s. It sets no
// WriteTimeout: SSE streams and long-polls are responses that stay open
// far longer than any bound that would suit a query, and IdleTimeout
// only runs between requests, never during one.
func (s *Server) httpServer() *http.Server {
	return &http.Server{Handler: s, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// serve runs the accept loop on ln until ctx is cancelled. Shutdown
// closes the subscription registry first: every active SSE stream
// receives its terminal bye frame and returns, so the graceful
// http.Server.Shutdown drain below isn't held open (or force-killed
// mid-frame) by standing streams.
func (s *Server) serve(ctx context.Context, ln net.Listener, grace time.Duration) error {
	hs := s.httpServer()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.proc.CloseSubscriptions()
	shCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := hs.Shutdown(shCtx); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// Point is a planar position in request/response JSON.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Trajectory is a moving query reference: Points[i] is the position at
// time Start+i.
type Trajectory struct {
	Start  int     `json:"start"`
	Points []Point `json:"points"`
}

// QueryRef is the query reference of a QuerySpec; exactly one field may
// be set.
type QueryRef struct {
	State      *int        `json:"state,omitempty"`
	Point      *Point      `json:"point,omitempty"`
	Trajectory *Trajectory `json:"trajectory,omitempty"`
}

// Window is the closed query time interval [Ts, Te].
type Window struct {
	Ts int `json:"ts"`
	Te int `json:"te"`
}

// ConfidenceJSON is the adaptive sample-budget policy of a QuerySpec:
// sampling stops as soon as every estimate separates from tau by more
// than the Hoeffding error (or the error reaches eps), escalating up to
// max_samples worlds. Mirrors pnn.Confidence.
type ConfidenceJSON struct {
	Eps        float64 `json:"eps"`
	Delta      float64 `json:"delta,omitempty"`       // 0 means the default (0.05)
	MaxSamples int     `json:"max_samples,omitempty"` // 0 means the fixed budget
}

// QuerySpec is the one request schema of every query endpoint: the JSON
// body of /v1/forallnn, /v1/existsnn and /v1/pcnn, and (tagged with a
// semantics) each item of /v1/batch. The canonical shape nests the
// reference under "query" and the interval under "window"; the legacy
// flat spellings (top-level state/x/y/trajectory/ts/te) decode as
// aliases and mean exactly the same request. When both spellings appear,
// the canonical field wins.
type QuerySpec struct {
	Query      *QueryRef       `json:"query,omitempty"`
	Window     *Window         `json:"window,omitempty"`
	K          int             `json:"k,omitempty"` // 0 means 1
	Tau        float64         `json:"tau"`
	Seed       int64           `json:"seed,omitempty"`
	Confidence *ConfidenceJSON `json:"confidence,omitempty"`

	// Legacy aliases of the nested fields, decoded only so that a request
	// spelling them is refused with code use_query_spec instead of a
	// generic unknown-field error.
	State      *int        `json:"state,omitempty"`
	X          *float64    `json:"x,omitempty"`
	Y          *float64    `json:"y,omitempty"`
	Trajectory *Trajectory `json:"trajectory,omitempty"`
	Ts         *int        `json:"ts,omitempty"`
	Te         *int        `json:"te,omitempty"`
}

// ResultJSON is one probabilistic answer.
type ResultJSON struct {
	ObjectID int     `json:"object_id"`
	Prob     float64 `json:"prob"`
}

// IntervalJSON is one PCNN answer: a maximal timestamp set.
type IntervalJSON struct {
	ObjectID int     `json:"object_id"`
	Times    []int   `json:"times"`
	Prob     float64 `json:"prob"`
}

// StatsJSON mirrors pnn.Stats.
type StatsJSON struct {
	Candidates    int `json:"candidates"`
	Influencers   int `json:"influencers"`
	Worlds        int `json:"worlds"`
	SamplerBuilds int `json:"sampler_builds"`
}

// SamplingJSON reports what one answer's Monte-Carlo estimate paid and
// guarantees: the worlds actually drawn, the Hoeffding error bound they
// buy, and whether an adaptive policy stopped before its budget cap.
type SamplingJSON struct {
	SamplesDrawn int     `json:"samples_drawn"`
	ErrorBound   float64 `json:"error_bound"`
	EarlyStopped bool    `json:"early_stopped"`
}

// VersionJSON identifies the snapshot state an answer was computed
// from: the per-shard version vector (in cluster mode, the peers'
// vectors concatenated in configured peer order) and the composite
// maximum, which is layout-independent — 1 at build plus one per
// accepted write, whatever the shard or peer count. Two responses with
// the same vector answered from exactly the same database state; a
// gather is never served across mixed versions (see "peer_unavailable").
type VersionJSON struct {
	Vector []int64 `json:"vector"`
	Max    int64   `json:"max"`
}

// QueryResponse is the body of a successful single-query call and the
// per-item shape of a batch response. Results is set for
// forallnn/existsnn, Intervals for pcnn.
type QueryResponse struct {
	APIVersion string         `json:"api_version"`
	Results    []ResultJSON   `json:"results,omitempty"`
	Intervals  []IntervalJSON `json:"intervals,omitempty"`
	Stats      StatsJSON      `json:"stats"`
	Sampling   SamplingJSON   `json:"sampling"`
	Version    VersionJSON    `json:"version"`
	Error      *ErrorBody     `json:"error,omitempty"` // batch items only
}

// BatchRequest is the body of /v1/batch.
type BatchRequest struct {
	Requests []BatchItem `json:"requests"`
	// ShareWorlds coalesces compatible requests (same query reference
	// over the window, same interval, k and confidence policy) into
	// groups that sample one shared world set; omitted, the server
	// default (Config.ShareBatch) applies. Under sharing, per-request
	// seeds are ignored in favor of SharedSeed — see
	// pnn.BatchOptions.SharedSeed for the group-seed contract.
	ShareWorlds *bool `json:"share_worlds,omitempty"`
	SharedSeed  int64 `json:"shared_seed,omitempty"`
}

// BatchItem is one request of a batch, tagged with its semantics.
type BatchItem struct {
	Semantics string `json:"semantics"` // "forall" | "exists" | "cnn"
	QuerySpec
}

// BatchStatsJSON mirrors pnn.BatchStats: the scheduling-independent
// work accounting of the whole batch. Per-item sampler_builds are
// always 0 in batch responses; this is the authoritative sum.
type BatchStatsJSON struct {
	Requests      int     `json:"requests"`
	SamplerBuilds int     `json:"sampler_builds"`
	AdaptMillis   float64 `json:"adapt_ms"`
	Groups        int     `json:"groups,omitempty"` // shared-world groups executed; 0 unless sharing
}

// BatchResponse aligns with BatchRequest.Requests by index.
type BatchResponse struct {
	APIVersion string          `json:"api_version"`
	Responses  []QueryResponse `json:"responses"`
	BatchStats BatchStatsJSON  `json:"batch_stats"`
	// Version is the snapshot the batch answered from: a single process
	// pins one snapshot for the whole batch, and a router reconciles its
	// gathers to one vector (items that could not be reconciled carry a
	// "peer_unavailable" error instead of an answer). It equals the
	// newest per-item version block.
	Version VersionJSON `json:"version"`
}

// ConfidenceRangeJSON advertises, via /healthz, the adaptive-sampling
// policy space this server accepts.
type ConfidenceRangeJSON struct {
	// EpsMin/EpsMax bound the accepted accuracy knob (exclusive).
	EpsMin float64 `json:"eps_min"`
	EpsMax float64 `json:"eps_max"`
	// DefaultDelta is the confidence level assumed when delta is 0.
	DefaultDelta float64 `json:"default_delta"`
	// DefaultBudget is the fixed per-query world budget (and the
	// adaptive cap when max_samples is 0).
	DefaultBudget int `json:"default_budget"`
	// MaxSamplesCap is the largest max_samples a request may ask for.
	MaxSamplesCap int `json:"max_samples_cap"`
}

// SubCapsJSON advertises, via /healthz, the standing-query capability:
// whether /v1/subscribe is served, how many subscriptions are live, the
// registration cap, the delivery transports the server speaks, and the
// registry's cumulative fanout counters — evaluation passes run,
// invalidation sweeps drained, grouped passes (one evaluation covering
// several compatible subscriptions), passes that started from a reused
// adaptive world budget, and passes that replayed the previous answer
// because none of their sampled inputs changed.
type SubCapsJSON struct {
	Enabled          bool     `json:"enabled"`
	Active           int      `json:"active"`
	MaxSubscriptions int      `json:"max_subscriptions"`
	Transports       []string `json:"transports"`
	Evaluations      int64    `json:"evaluations"`
	Sweeps           int64    `json:"sweeps"`
	Groups           int64    `json:"groups"`
	ReusedBudget     int64    `json:"reused_budget"`
	Carried          int64    `json:"carried"`
}

// ClusterHealthJSON advertises, via /healthz, this node's cluster
// capability: its role and, on a router, the peer fan-out and how many
// peers answered their last health probe.
type ClusterHealthJSON struct {
	Enabled      bool   `json:"enabled"`
	Role         string `json:"role"`
	Peers        int    `json:"peers,omitempty"`
	HealthyPeers int    `json:"healthy_peers,omitempty"`
}

// DurabilityJSON advertises, via /healthz, whether (and how) this
// node's writes survive a restart: the mode ("volatile", "wal",
// "wal+fsync"), the newest spill version per shard, and how many log
// bytes a restart right now would replay.
type DurabilityJSON struct {
	Enabled            bool    `json:"enabled"`
	Mode               string  `json:"mode"`
	SpillVersions      []int64 `json:"spill_versions,omitempty"`
	WALBytesSinceSpill int64   `json:"wal_bytes_since_spill,omitempty"`
	ReplayedRecords    int     `json:"replayed_records,omitempty"`
	TornBytes          int64   `json:"torn_bytes,omitempty"`
}

// durabilityHealth builds the /healthz durability block from the
// backend, when it is a durably-built processor.
func (s *Server) durabilityHealth() DurabilityJSON {
	db, ok := s.proc.(durableBackend)
	if !ok {
		return DurabilityJSON{Mode: "volatile"}
	}
	st := db.DurabilityStatus()
	return DurabilityJSON{
		Enabled:            st.Enabled,
		Mode:               st.Mode(),
		SpillVersions:      st.SpillVersions,
		WALBytesSinceSpill: st.WALBytesSinceSpill,
		ReplayedRecords:    st.ReplayedRecords,
		TornBytes:          st.TornBytes,
	}
}

// HealthResponse is the body of /healthz.
type HealthResponse struct {
	Status        string              `json:"status"`
	APIVersion    string              `json:"api_version"`
	Version       int64               `json:"version"` // current composite snapshot version
	Objects       int                 `json:"objects"`
	States        int                 `json:"states"`
	Shards        int                 `json:"shards"`
	ShardVersions []int64             `json:"shard_versions"` // per-shard snapshot versions, by shard
	Ingest        bool                `json:"ingest"`         // write endpoints enabled
	Confidence    ConfidenceRangeJSON `json:"confidence"`
	Subscriptions SubCapsJSON         `json:"subscriptions"`
	Cluster       ClusterHealthJSON   `json:"cluster"`
	Durability    DurabilityJSON      `json:"durability"`
	UptimeSeconds float64             `json:"uptime_seconds"`
	CacheBuilds   int64               `json:"cache_builds"`
	CacheHits     int64               `json:"cache_hits"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "", "use GET")
		return
	}
	cs := s.proc.CacheStats()
	ss := s.proc.SubscriptionStats()
	// One snapshot: version, objects and the shard vector stay mutually
	// consistent even when writes land between here and the encode.
	version, objects, shardVersions := s.proc.SnapshotDetail()
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:        "ok",
		APIVersion:    APIVersion,
		Version:       version,
		Objects:       objects,
		States:        s.net.NumStates(),
		Shards:        s.proc.NumShards(),
		ShardVersions: shardVersions,
		Ingest:        s.cfg.Ingest,
		Confidence: ConfidenceRangeJSON{
			EpsMin:        0,
			EpsMax:        1,
			DefaultDelta:  query.DefaultDelta,
			DefaultBudget: s.proc.SampleBudget(),
			MaxSamplesCap: s.cfg.MaxSamplesCap,
		},
		Subscriptions: SubCapsJSON{
			Enabled:          true,
			Active:           s.proc.NumSubscriptions(),
			MaxSubscriptions: s.cfg.MaxSubscriptions,
			Transports:       []string{TransportSSE, TransportPoll},
			Evaluations:      ss.Evaluations,
			Sweeps:           ss.Sweeps,
			Groups:           ss.Groups,
			ReusedBudget:     ss.ReusedBudget,
			Carried:          ss.Carried,
		},
		Cluster:       s.clusterHealth(),
		Durability:    s.durabilityHealth(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		CacheBuilds:   cs.Builds,
		CacheHits:     cs.Hits,
	})
}

// ObservationJSON is one certain (time, state) measurement in ingest
// request bodies.
type ObservationJSON struct {
	T     int `json:"t"`
	State int `json:"state"`
}

// IngestRequest is the body of both write endpoints: for /v1/objects a
// new object with its initial observations, for /v1/observe
// observations to append to an existing object.
type IngestRequest struct {
	ID           int               `json:"id"`
	Observations []ObservationJSON `json:"observations"`
}

// IngestResponse reports a successful write: the published snapshot
// version (every query from now on sees the update) and the object
// count at exactly that version — consistent even when writes race.
type IngestResponse struct {
	Version int64 `json:"version"`
	Objects int   `json:"objects"`
}

func (s *Server) handleAddObject(w http.ResponseWriter, r *http.Request) {
	req, obs, ok := s.decodeIngest(w, r)
	if !ok {
		return
	}
	ing, err := s.proc.AddObject(req.ID, obs)
	if err != nil {
		writeErr(w, http.StatusConflict, writeCode(err), "id", err)
		return
	}
	writeJSON(w, http.StatusOK, IngestResponse{Version: ing.Version, Objects: ing.Objects})
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	req, obs, ok := s.decodeIngest(w, r)
	if !ok {
		return
	}
	ing, err := s.proc.Observe(req.ID, obs...)
	if err != nil {
		writeErr(w, http.StatusConflict, writeCode(err), "id", err)
		return
	}
	writeJSON(w, http.StatusOK, IngestResponse{Version: ing.Version, Objects: ing.Objects})
}

// writeCode classifies a write rejection into its stable error code.
func writeCode(err error) string {
	switch {
	case errors.Is(err, pnn.ErrDuplicateID):
		return CodeDuplicateObject
	case errors.Is(err, pnn.ErrUnknownID):
		return CodeUnknownObject
	default:
		// The motion model rejected the observations (contradiction,
		// duplicate timestamp against the stored sequence, ...).
		return CodeRejectedWrite
	}
}

// decodeIngest decodes and validates a write request, answering 400 for
// everything wrong with the request body itself (malformed JSON, no or
// too many observations, out-of-range states, duplicate timestamps
// within the payload). It has already written the error response when
// it returns ok=false; 409 is reserved for writes the database rejects.
func (s *Server) decodeIngest(w http.ResponseWriter, r *http.Request) (IngestRequest, []pnn.Observation, bool) {
	var req IngestRequest
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "", "use POST")
		return req, nil, false
	}
	if !s.cfg.Ingest {
		httpError(w, http.StatusForbidden, CodeIngestDisabled, "",
			"ingestion disabled (start the server with ingest enabled)")
		return req, nil, false
	}
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, CodeInvalidBody, "", err)
		return req, nil, false
	}
	if len(req.Observations) == 0 {
		httpError(w, http.StatusBadRequest, CodeInvalidObservation, "observations",
			"need at least one observation")
		return req, nil, false
	}
	if len(req.Observations) > s.cfg.MaxObservations {
		httpError(w, http.StatusBadRequest, CodeInvalidObservation, "observations",
			fmt.Sprintf("%d observations exceed limit %d", len(req.Observations), s.cfg.MaxObservations))
		return req, nil, false
	}
	obs := make([]pnn.Observation, len(req.Observations))
	times := make(map[int]bool, len(req.Observations))
	for i, ob := range req.Observations {
		if ob.State < 0 || ob.State >= s.net.NumStates() {
			httpError(w, http.StatusBadRequest, CodeInvalidObservation, "observations", fmt.Sprintf(
				"observation %d: state %d out of range [0, %d)", i, ob.State, s.net.NumStates()))
			return req, nil, false
		}
		if times[ob.T] {
			httpError(w, http.StatusBadRequest, CodeInvalidObservation, "observations", fmt.Sprintf(
				"observation %d: duplicate timestamp %d within the request", i, ob.T))
			return req, nil, false
		}
		times[ob.T] = true
		obs[i] = pnn.Observation{T: ob.T, State: ob.State}
	}
	return req, obs, true
}

func (s *Server) queryHandler(sem pnn.Semantics) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "", "use POST")
			return
		}
		var req QuerySpec
		if err := decodeBody(r, &req); err != nil {
			writeErr(w, http.StatusBadRequest, CodeInvalidBody, "", err)
			return
		}
		pr, aerr := s.toRequest(sem, req)
		if aerr != nil {
			httpError(w, http.StatusBadRequest, aerr.code, aerr.field, aerr.msg)
			return
		}
		resp := s.proc.Run(pr)
		if resp.Err != nil {
			// toRequest already rejected every caller mistake the engine
			// would complain about (inverted intervals, tau and k out of
			// range), so an error here is either a gather that could not
			// complete consistently (503, retryable) or the engine's own —
			// e.g. model adaptation failing on an object.
			status, code := respErrStatus(resp.Err)
			writeErr(w, status, code, "", resp.Err)
			return
		}
		writeJSON(w, http.StatusOK, toJSON(resp))
	}
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "", "use POST")
		return
	}
	var req BatchRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, CodeInvalidBody, "", err)
		return
	}
	if len(req.Requests) == 0 {
		httpError(w, http.StatusBadRequest, CodeEmptyBatch, "requests", "empty batch")
		return
	}
	if len(req.Requests) > s.cfg.MaxBatch {
		httpError(w, http.StatusBadRequest, CodeBatchTooLarge, "requests",
			fmt.Sprintf("batch of %d exceeds limit %d", len(req.Requests), s.cfg.MaxBatch))
		return
	}
	reqs := make([]pnn.Request, len(req.Requests))
	for i, item := range req.Requests {
		pr, aerr := s.toRequest(pnn.Semantics(item.Semantics), item.QuerySpec)
		if aerr != nil {
			field := fmt.Sprintf("requests[%d]", i)
			if aerr.field != "" {
				field += "." + aerr.field
			}
			httpError(w, http.StatusBadRequest, aerr.code, field, aerr.msg)
			return
		}
		reqs[i] = pr
	}
	share := s.cfg.ShareBatch
	if req.ShareWorlds != nil {
		share = *req.ShareWorlds
	}
	responses, bst := s.proc.RunBatchStats(reqs, pnn.BatchOptions{
		Workers:     s.cfg.BatchWorkers,
		ShareWorlds: share,
		SharedSeed:  req.SharedSeed,
	})
	out := BatchResponse{
		APIVersion: APIVersion,
		Responses:  make([]QueryResponse, len(responses)),
		BatchStats: BatchStatsJSON{
			Requests:      bst.Requests,
			SamplerBuilds: bst.SamplerBuilds,
			AdaptMillis:   float64(bst.AdaptTime.Microseconds()) / 1e3,
			Groups:        bst.Groups,
		},
	}
	for i, resp := range responses {
		out.Responses[i] = toJSON(resp)
		if resp.Version.Max >= out.Version.Max {
			out.Version = VersionJSON{Vector: resp.Version.Vector, Max: resp.Version.Max}
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// apiError is a request-validation failure with its stable code and the
// offending field path.
type apiError struct {
	code, field, msg string
}

func errf(code, field, format string, args ...interface{}) *apiError {
	return &apiError{code: code, field: field, msg: fmt.Sprintf(format, args...)}
}

// legacyAliases names the retired flat alias fields a QuerySpec set,
// each paired with its canonical replacement, for the use_query_spec
// rejection.
func legacyAliases(req QuerySpec) []string {
	var used []string
	add := func(set bool, alias, canonical string) {
		if set {
			used = append(used, fmt.Sprintf("%q is a deprecated alias; use %q", alias, canonical))
		}
	}
	add(req.State != nil, "state", "query.state")
	add(req.X != nil, "x", "query.point.x")
	add(req.Y != nil, "y", "query.point.y")
	add(req.Trajectory != nil, "trajectory", "query.trajectory")
	add(req.Ts != nil, "ts", "window.ts")
	add(req.Te != nil, "te", "window.te")
	return used
}

// toRequest validates one wire request and converts it to a batch
// Request. A request spelling a legacy flat alias is refused.
func (s *Server) toRequest(sem pnn.Semantics, req QuerySpec) (pnn.Request, *apiError) {
	if aliases := legacyAliases(req); len(aliases) > 0 {
		return pnn.Request{}, errf(CodeUseQuerySpec, "",
			"legacy flat query fields are no longer accepted (%s); use the nested query/window spelling", aliases[0])
	}
	switch sem {
	case pnn.ForAll, pnn.Exists, pnn.Continuous:
	default:
		return pnn.Request{}, errf(CodeUnknownSemantics, "semantics",
			"unknown semantics %q (want %q, %q or %q)", sem, pnn.ForAll, pnn.Exists, pnn.Continuous)
	}

	ref := QueryRef{}
	if req.Query != nil {
		ref = *req.Query
	}
	refs := 0
	if ref.State != nil {
		refs++
	}
	if ref.Point != nil {
		refs++
	}
	if ref.Trajectory != nil {
		refs++
	}
	if refs != 1 {
		return pnn.Request{}, errf(CodeInvalidQuery, "query",
			`give exactly one query reference: "state", "point", or "trajectory"`)
	}
	var q pnn.Query
	switch {
	case ref.State != nil:
		if *ref.State < 0 || *ref.State >= s.net.NumStates() {
			return pnn.Request{}, errf(CodeInvalidQuery, "query.state",
				"state %d out of range [0, %d)", *ref.State, s.net.NumStates())
		}
		q = pnn.AtState(s.net, *ref.State)
	case ref.Point != nil:
		q = pnn.AtPoint(pnn.Point{X: ref.Point.X, Y: ref.Point.Y})
	default:
		if len(ref.Trajectory.Points) == 0 {
			return pnn.Request{}, errf(CodeInvalidQuery, "query.trajectory", "trajectory needs at least one point")
		}
		pts := make([]pnn.Point, len(ref.Trajectory.Points))
		for i, p := range ref.Trajectory.Points {
			pts[i] = pnn.Point{X: p.X, Y: p.Y}
		}
		q = pnn.Moving(ref.Trajectory.Start, pts)
	}

	win := Window{}
	if req.Window != nil {
		win = *req.Window
	}
	if win.Te < win.Ts {
		return pnn.Request{}, errf(CodeInvalidWindow, "window", "inverted interval [%d, %d]", win.Ts, win.Te)
	}
	if req.K < 0 {
		return pnn.Request{}, errf(CodeInvalidK, "k", "k must be >= 1, got %d", req.K)
	}
	if req.Tau < 0 || req.Tau > 1 {
		return pnn.Request{}, errf(CodeInvalidTau, "tau", "tau must be in [0, 1], got %v", req.Tau)
	}
	if sem == pnn.Continuous && req.Tau == 0 {
		return pnn.Request{}, errf(CodeInvalidTau, "tau", "pcnn requires tau > 0")
	}
	var conf pnn.Confidence
	if req.Confidence != nil {
		conf = pnn.Confidence{
			Eps:        req.Confidence.Eps,
			Delta:      req.Confidence.Delta,
			MaxSamples: req.Confidence.MaxSamples,
		}
		if err := conf.Validate(); err != nil {
			return pnn.Request{}, errf(CodeInvalidConfidence, "confidence", "%v", err)
		}
		if conf.MaxSamples > s.cfg.MaxSamplesCap {
			return pnn.Request{}, errf(CodeInvalidConfidence, "confidence.max_samples",
				"max_samples %d exceeds the server cap %d", conf.MaxSamples, s.cfg.MaxSamplesCap)
		}
	}
	return pnn.Request{
		Semantics:  sem,
		Query:      q,
		Ts:         win.Ts,
		Te:         win.Te,
		K:          req.K,
		Tau:        req.Tau,
		Seed:       req.Seed,
		Confidence: conf,
	}, nil
}

// respErrStatus classifies a backend response error into its HTTP
// status and stable code: an inconsistent or failed cluster gather is
// 503 peer_unavailable (the request is safe to retry — no partial
// answer was served), anything else is the engine's own failure.
func respErrStatus(err error) (int, string) {
	if errors.Is(err, cluster.ErrPeerUnavailable) {
		return http.StatusServiceUnavailable, CodePeerUnavailable
	}
	return http.StatusInternalServerError, CodeInternal
}

func toJSON(resp pnn.Response) QueryResponse {
	out := QueryResponse{
		APIVersion: APIVersion,
		Stats: StatsJSON{
			Candidates:    resp.Stats.Candidates,
			Influencers:   resp.Stats.Influencers,
			Worlds:        resp.Stats.Worlds,
			SamplerBuilds: resp.Stats.SamplerBuilds,
		},
		Sampling: SamplingJSON{
			SamplesDrawn: resp.Stats.Worlds,
			ErrorBound:   resp.Stats.ErrorBound,
			EarlyStopped: resp.Stats.EarlyStopped,
		},
		Version: VersionJSON{Vector: resp.Version.Vector, Max: resp.Version.Max},
	}
	if resp.Err != nil {
		_, code := respErrStatus(resp.Err)
		out.Error = &ErrorBody{Code: code, Message: resp.Err.Error()}
		return out
	}
	for _, r := range resp.Results {
		out.Results = append(out.Results, ResultJSON{ObjectID: r.ObjectID, Prob: r.Prob})
	}
	for _, r := range resp.Intervals {
		out.Intervals = append(out.Intervals, IntervalJSON{ObjectID: r.ObjectID, Times: r.Times, Prob: r.Prob})
	}
	return out
}

func decodeBody(r *http.Request, dst interface{}) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("decoding request body: %w", err)
	}
	return nil
}

// ErrorBody is the payload of the structured error envelope: a stable
// machine-readable code, a human-readable message, and (when the error
// is attributable) the offending request field.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Field   string `json:"field,omitempty"`
}

// ErrorEnvelope is the body of every error response.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

func httpError(w http.ResponseWriter, status int, code, field, msg string) {
	writeJSON(w, status, ErrorEnvelope{Error: ErrorBody{Code: code, Message: msg, Field: field}})
}

func writeErr(w http.ResponseWriter, status int, code, field string, err error) {
	httpError(w, status, code, field, err.Error())
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
