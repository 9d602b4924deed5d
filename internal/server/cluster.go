package server

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"pnn"
	"pnn/internal/cluster"
	"pnn/internal/shard"
)

// clusterHealth builds the /healthz cluster capability block.
func (s *Server) clusterHealth() ClusterHealthJSON {
	role := s.cfg.Role
	if role == "" {
		role = RoleStandalone
	}
	ch := ClusterHealthJSON{Enabled: role != RoleStandalone, Role: role}
	if cb, ok := s.proc.(clusterBackend); ok {
		ch.Peers = len(cb.ClusterStatus().Peers)
		ch.HealthyPeers = cb.HealthyPeers()
	}
	return ch
}

// handleCluster serves GET /v1/cluster: on a router, the full topology
// (peers in version-vector order, their health, snapshot identities and
// consistent-hash ownership arcs); on a standalone node or peer, a
// single-node view of the same shape, so clients can probe any node
// uniformly.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "", "use GET")
		return
	}
	if cb, ok := s.proc.(clusterBackend); ok {
		writeJSON(w, http.StatusOK, cb.ClusterStatus())
		return
	}
	role := s.cfg.Role
	if role == "" {
		role = RoleStandalone
	}
	version, _, vec := s.proc.SnapshotDetail()
	writeJSON(w, http.StatusOK, cluster.Status{
		Role:         role,
		SampleBudget: s.proc.SampleBudget(),
		Vector:       vec,
		Version:      version,
		Durability:   s.durabilityHealth().Mode,
	})
}

// registerInternal mounts the peer RPC surface a router scatters to.
// The handlers trust the coordinator: request-shape validation happened
// on the router, so a peer only re-checks what the engine itself
// enforces. They bypass Config.Ingest — a peer may refuse public writes
// while still accepting routed ones from its router.
func (s *Server) registerInternal(local *pnn.Processor) {
	s.mux.HandleFunc("/internal/scatter", s.handleScatter(local))
	s.mux.HandleFunc("/internal/ingest", s.handleInternalIngest(local))
	s.mux.HandleFunc("/internal/touch", s.handleInternalTouch(local))
	s.mux.HandleFunc("/internal/health", s.handleInternalHealth(local))
}

// handleScatter serves POST /internal/scatter: prune, adapt and
// pre-draw this peer's share of one shared-world group. The drawn state
// columns are a pure function of (snapshot, seed, object IDs), so the
// router's replay-gather reproduces the single-process bytes exactly.
// A caller that accepts cluster.ScatterFrameType gets the binary frame;
// any other gets the JSON answer, gzip'd on request.
func (s *Server) handleScatter(local *pnn.Processor) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "", "use POST")
			return
		}
		var req cluster.ScatterRequest
		if err := decodeBody(r, &req); err != nil {
			writeErr(w, http.StatusBadRequest, CodeInvalidBody, "", err)
			return
		}
		spec := shard.GroupSpec{
			Q: req.Query.Decode(), Ts: req.Ts, Te: req.Te, K: req.K, Seed: req.Seed,
		}
		if req.Confidence != nil {
			spec.Conf = pnn.Confidence{
				Eps: req.Confidence.Eps, Delta: req.Confidence.Delta, MaxSamples: req.Confidence.MaxSamples,
			}
		}
		res, err := local.ShardSet().Snapshot().Scatter(spec)
		if err != nil {
			writeErr(w, http.StatusBadRequest, CodeInvalidQuery, "", err)
			return
		}
		if !acceptsScatterFrame(r) {
			writeJSONMaybeGzip(w, r, http.StatusOK, cluster.ScatterToWire(res))
			return
		}
		frame, err := cluster.EncodeScatterFrame(res)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, CodeInternal, "", err)
			return
		}
		w.Header().Set("Content-Type", cluster.ScatterFrameType)
		w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(frame) // a router that hung up retries on its own
	}
}

// acceptsScatterFrame reports whether the request's Accept header names
// the binary scatter media type.
func acceptsScatterFrame(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		if mt, _, _ := strings.Cut(part, ";"); strings.TrimSpace(mt) == cluster.ScatterFrameType {
			return true
		}
	}
	return false
}

// writeJSONMaybeGzip is writeJSON with Content-Encoding negotiation:
// when the caller advertised gzip in Accept-Encoding, the JSON body is
// gzip-compressed; otherwise it falls back to identity. Only the
// scatter answer uses it — world-column payloads are large (one float
// row per sampled world per candidate) and highly repetitive, so the
// wire saving is an order of magnitude; the other internal RPC answers
// are tiny and stay plain.
func writeJSONMaybeGzip(w http.ResponseWriter, r *http.Request, code int, v interface{}) {
	if !acceptsGzip(r) {
		writeJSON(w, code, v)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Encoding", "gzip")
	w.WriteHeader(code)
	gz := gzip.NewWriter(w)
	_ = json.NewEncoder(gz).Encode(v)
	_ = gz.Close()
}

// acceptsGzip reports whether the request's Accept-Encoding header
// names gzip as an acceptable coding (ignoring q-values other than an
// explicit q=0 refusal).
func acceptsGzip(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		coding, params, _ := strings.Cut(strings.TrimSpace(part), ";")
		if coding != "gzip" && coding != "*" {
			continue
		}
		if q := strings.ReplaceAll(params, " ", ""); strings.Contains(q, "q=0") && !strings.Contains(q, "q=0.") {
			continue
		}
		return true
	}
	return false
}

// handleInternalIngest serves POST /internal/ingest: a routed write.
// Rejections answer 409 with the same stable codes as the public write
// endpoints, which the coordinator folds back into the facade's error
// vocabulary.
func (s *Server) handleInternalIngest(local *pnn.Processor) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "", "use POST")
			return
		}
		var req cluster.IngestRPCRequest
		if err := decodeBody(r, &req); err != nil {
			writeErr(w, http.StatusBadRequest, CodeInvalidBody, "", err)
			return
		}
		obs := make([]pnn.Observation, len(req.Observations))
		for i, ob := range req.Observations {
			obs[i] = pnn.Observation{T: ob.T, State: ob.State}
		}
		var ing pnn.Ingest
		var err error
		switch req.Kind {
		case "add":
			ing, err = local.AddObject(req.ID, obs)
		case "observe":
			ing, err = local.Observe(req.ID, obs...)
		default:
			httpError(w, http.StatusBadRequest, CodeInvalidBody, "kind",
				fmt.Sprintf("unknown ingest kind %q", req.Kind))
			return
		}
		if err != nil {
			writeErr(w, http.StatusConflict, writeCode(err), "id", err)
			return
		}
		_, _, vec := local.SnapshotDetail()
		writeJSON(w, http.StatusOK, cluster.IngestRPCResponse{
			Version: ing.Version, Versions: vec, Objects: ing.Objects,
		})
	}
}

// handleInternalTouch serves POST /internal/touch: may the (already
// written) object intersect the given influence region? Answered from
// this peer's current snapshot — the one the write published or newer,
// which can only widen the object's rectangles toward "touched".
func (s *Server) handleInternalTouch(local *pnn.Processor) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "", "use POST")
			return
		}
		var req cluster.TouchRequest
		if err := decodeBody(r, &req); err != nil {
			writeErr(w, http.StatusBadRequest, CodeInvalidBody, "", err)
			return
		}
		snap := local.ShardSet().Snapshot()
		touched := snap.Toucher(req.ID)(req.Query.Decode(), req.Ts, req.Te, cluster.PruneFromWire(req.Bound))
		writeJSON(w, http.StatusOK, cluster.TouchResponse{Touched: touched})
	}
}

// handleInternalHealth serves GET /internal/health: the peer's live
// snapshot identity plus the static parameters the coordinator checks
// for cluster-wide agreement at bootstrap.
func (s *Server) handleInternalHealth(local *pnn.Processor) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "", "use GET")
			return
		}
		version, objects, vec := local.SnapshotDetail()
		cs := local.CacheStats()
		writeJSON(w, http.StatusOK, cluster.HealthInfo{
			Version:     version,
			Versions:    vec,
			Objects:     objects,
			States:      s.net.NumStates(),
			Samples:     local.SampleBudget(),
			CacheBuilds: cs.Builds,
			CacheHits:   cs.Hits,
			Durability:  local.DurabilityStatus().Mode(),
		})
	}
}
