package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pnn"
)

// testServer builds a small grid database and an httptest server over
// it.
func testServer(t *testing.T) (*pnn.Network, *pnn.Processor, *httptest.Server) {
	t.Helper()
	net, err := pnn.NewGridNetwork(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	db := pnn.NewDB(net)
	routes := [][2]pnn.Point{
		{{X: 0.1, Y: 0.1}, {X: 0.9, Y: 0.9}},
		{{X: 0.9, Y: 0.1}, {X: 0.1, Y: 0.9}},
		{{X: 0.1, Y: 0.5}, {X: 0.9, Y: 0.5}},
	}
	for i, r := range routes {
		a, b := net.NearestState(r[0]), net.NearestState(r[1])
		obs := net.ObservationsAlong(a, b, 0, 2, 4)
		if err := db.Add(100+i, obs); err != nil {
			t.Fatal(err)
		}
	}
	proc, err := db.Build(300)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(net, proc, Config{BatchWorkers: 2, Ingest: true}))
	t.Cleanup(ts.Close)
	return net, proc, ts
}

// TestHealthzSharded checks /healthz reports the per-shard version
// vector of a sharded processor and that writes move exactly one entry.
func TestHealthzSharded(t *testing.T) {
	net, err := pnn.NewGridNetwork(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	db := pnn.NewDB(net)
	for id := 0; id < 6; id++ {
		st := (id * 11) % net.NumStates()
		if err := db.Add(id, []pnn.Observation{{T: 0, State: st}, {T: 8, State: st}}); err != nil {
			t.Fatal(err)
		}
	}
	const shards = 3
	proc, err := db.BuildSharded(200, shards)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(net, proc, Config{Ingest: true}))
	t.Cleanup(ts.Close)

	health := func() HealthResponse {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h HealthResponse
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h
	}

	h0 := health()
	if h0.Shards != shards || len(h0.ShardVersions) != shards {
		t.Fatalf("health = %+v, want %d shard versions", h0, shards)
	}
	for si, v := range h0.ShardVersions {
		if v != 1 {
			t.Errorf("fresh shard %d at version %d", si, v)
		}
	}

	// One write through the API advances the composite version by one
	// and exactly one shard's version by one.
	st := 13
	code, _ := post(t, ts.URL+"/v1/objects", fmt.Sprintf(
		`{"id": 42, "observations": [{"t": 0, "state": %d}, {"t": 8, "state": %d}]}`, st, st))
	if code != http.StatusOK {
		t.Fatalf("ingest = %d", code)
	}
	h1 := health()
	if h1.Version != h0.Version+1 {
		t.Errorf("composite version %d -> %d, want +1", h0.Version, h1.Version)
	}
	bumped := 0
	for si := range h1.ShardVersions {
		switch h1.ShardVersions[si] {
		case h0.ShardVersions[si]:
		case h0.ShardVersions[si] + 1:
			bumped++
		default:
			t.Errorf("shard %d jumped %d -> %d", si, h0.ShardVersions[si], h1.ShardVersions[si])
		}
	}
	if bumped != 1 {
		t.Errorf("%d shard versions advanced, want exactly 1", bumped)
	}
}

func post(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

func TestHealthz(t *testing.T) {
	_, proc, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Objects != proc.NumObjects() || h.States != 64 {
		t.Errorf("health = %+v", h)
	}
	if h.Shards != 1 || len(h.ShardVersions) != 1 || h.ShardVersions[0] != h.Version {
		t.Errorf("unsharded health shard fields = %+v", h)
	}
	if code, _ := post(t, ts.URL+"/healthz", "{}"); code != http.StatusMethodNotAllowed {
		t.Errorf("POST /healthz = %d, want 405", code)
	}
}

// TestQueryEndpointsRoundTrip drives each /v1 endpoint end-to-end and
// checks the HTTP answer matches a direct facade call with the same seed.
func TestQueryEndpointsRoundTrip(t *testing.T) {
	net, proc, ts := testServer(t)
	center := net.NearestState(pnn.Point{X: 0.5, Y: 0.5})
	q := pnn.AtState(net, center)

	body := func(extra string) string {
		return fmt.Sprintf(`{"query": {"state": %d}, "window": {"ts": 1, "te": 6}, "tau": 0.05, "seed": 42%s}`, center, extra)
	}

	t.Run("forallnn", func(t *testing.T) {
		code, raw := post(t, ts.URL+"/v1/forallnn", body(""))
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, raw)
		}
		var got QueryResponse
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		want, _, err := proc.ForAllNN(q, 1, 6, 0.05, 42)
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, got.Results, want)
		if got.Stats.Worlds != 300 {
			t.Errorf("stats.worlds = %d, want 300", got.Stats.Worlds)
		}
	})
	t.Run("existsnn", func(t *testing.T) {
		code, raw := post(t, ts.URL+"/v1/existsnn", body(`, "k": 2`))
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, raw)
		}
		var got QueryResponse
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		want, _, err := proc.ExistsKNN(q, 1, 6, 2, 0.05, 42)
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, got.Results, want)
	})
	t.Run("pcnn", func(t *testing.T) {
		code, raw := post(t, ts.URL+"/v1/pcnn",
			fmt.Sprintf(`{"query": {"state": %d}, "window": {"ts": 1, "te": 4}, "tau": 0.3, "seed": 7}`, center))
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, raw)
		}
		var got QueryResponse
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		want, _, err := proc.ContinuousNN(q, 1, 4, 0.3, 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Intervals) != len(want) {
			t.Fatalf("intervals: got %d, want %d", len(got.Intervals), len(want))
		}
		for i := range want {
			g, w := got.Intervals[i], want[i]
			if g.ObjectID != w.ObjectID || math.Abs(g.Prob-w.Prob) > 1e-12 || len(g.Times) != len(w.Times) {
				t.Errorf("interval %d: got %+v, want %+v", i, g, w)
			}
		}
	})
	t.Run("point-and-trajectory-references", func(t *testing.T) {
		code, _ := post(t, ts.URL+"/v1/existsnn", `{"query": {"point": {"x": 0.5, "y": 0.5}}, "window": {"ts": 1, "te": 5}, "tau": 0.05}`)
		if code != http.StatusOK {
			t.Errorf("point query status = %d", code)
		}
		code, _ = post(t, ts.URL+"/v1/existsnn",
			`{"query": {"trajectory": {"start": 1, "points": [{"x": 0.4, "y": 0.5}, {"x": 0.5, "y": 0.5}]}}, "window": {"ts": 1, "te": 5}, "tau": 0.05}`)
		if code != http.StatusOK {
			t.Errorf("trajectory query status = %d", code)
		}
	})
}

func compareResults(t *testing.T, got []ResultJSON, want []pnn.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("results: got %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ObjectID != want[i].ObjectID || math.Abs(got[i].Prob-want[i].Prob) > 1e-12 {
			t.Errorf("result %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestBatchEndpoint(t *testing.T) {
	net, proc, ts := testServer(t)
	center := net.NearestState(pnn.Point{X: 0.5, Y: 0.5})
	q := pnn.AtState(net, center)
	body := fmt.Sprintf(`{"requests": [
		{"semantics": "forall", "query": {"state": %d}, "window": {"ts": 1, "te": 6}, "tau": 0.05, "seed": 1},
		{"semantics": "exists", "query": {"state": %d}, "window": {"ts": 1, "te": 6}, "tau": 0.05, "seed": 2},
		{"semantics": "cnn",    "query": {"state": %d}, "window": {"ts": 1, "te": 4}, "tau": 0.3,  "seed": 3}
	]}`, center, center, center)
	code, raw := post(t, ts.URL+"/v1/batch", body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	var got BatchResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Responses) != 3 {
		t.Fatalf("responses = %d, want 3", len(got.Responses))
	}
	wantFA, _, err := proc.ForAllNN(q, 1, 6, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, got.Responses[0].Results, wantFA)
	wantEX, _, err := proc.ExistsNN(q, 1, 6, 0.05, 2)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, got.Responses[1].Results, wantEX)
	if got.Responses[2].Error != nil {
		t.Errorf("cnn item failed: %+v", got.Responses[2].Error)
	}
	for i, r := range got.Responses {
		if r.APIVersion != APIVersion {
			t.Errorf("item %d api_version = %q, want %q", i, r.APIVersion, APIVersion)
		}
		if r.Sampling.SamplesDrawn != r.Stats.Worlds || r.Sampling.ErrorBound <= 0 {
			t.Errorf("item %d sampling = %+v (stats %+v)", i, r.Sampling, r.Stats)
		}
	}
}

// TestValidation is the table-driven contract test of the error
// envelope: every rejection carries {"error": {code, message, field}}
// with the documented stable code, across every endpoint.
func TestValidation(t *testing.T) {
	_, _, ts := testServer(t)
	cases := []struct {
		name, path, body string
		status           int
		code             string
	}{
		{"no-reference", "/v1/forallnn", `{"window": {"ts": 1, "te": 5}, "tau": 0.1}`, 400, CodeInvalidQuery},
		{"two-references", "/v1/forallnn", `{"query": {"state": 3, "point": {"x": 0.5, "y": 0.5}}, "window": {"ts": 1, "te": 5}, "tau": 0.1}`, 400, CodeInvalidQuery},
		{"x-without-y", "/v1/forallnn", `{"x": 0.5, "window": {"ts": 1, "te": 5}, "tau": 0.1}`, 400, CodeUseQuerySpec},
		{"state-out-of-range", "/v1/forallnn", `{"query": {"state": 9999}, "window": {"ts": 1, "te": 5}, "tau": 0.1}`, 400, CodeInvalidQuery},
		{"inverted-interval", "/v1/forallnn", `{"query": {"state": 3}, "window": {"ts": 5, "te": 1}, "tau": 0.1}`, 400, CodeInvalidWindow},
		{"inverted-window-canonical", "/v1/forallnn", `{"query": {"state": 3}, "window": {"ts": 5, "te": 1}, "tau": 0.1}`, 400, CodeInvalidWindow},
		{"tau-out-of-range", "/v1/forallnn", `{"query": {"state": 3}, "window": {"ts": 1, "te": 5}, "tau": 1.5}`, 400, CodeInvalidTau},
		{"negative-k", "/v1/forallnn", `{"query": {"state": 3}, "window": {"ts": 1, "te": 5}, "tau": 0.1, "k": -2}`, 400, CodeInvalidK},
		{"pcnn-zero-tau", "/v1/pcnn", `{"query": {"state": 3}, "window": {"ts": 1, "te": 5}, "tau": 0}`, 400, CodeInvalidTau},
		{"empty-trajectory", "/v1/existsnn", `{"query": {"trajectory": {"start": 0, "points": []}}, "window": {"ts": 1, "te": 5}}`, 400, CodeInvalidQuery},
		{"malformed-json", "/v1/forallnn", `{"query": `, 400, CodeInvalidBody},
		{"unknown-field", "/v1/forallnn", `{"query": {"state": 3}, "window": {"ts": 1, "te": 5}, "tau": 0.1, "bogus": true}`, 400, CodeInvalidBody},
		{"bad-confidence-eps", "/v1/forallnn", `{"query": {"state": 3}, "window": {"ts": 1, "te": 5}, "tau": 0.1, "confidence": {"eps": 1.5}}`, 400, CodeInvalidConfidence},
		{"bad-confidence-delta", "/v1/forallnn", `{"query": {"state": 3}, "window": {"ts": 1, "te": 5}, "tau": 0.1, "confidence": {"eps": 0.05, "delta": 1}}`, 400, CodeInvalidConfidence},
		{"confidence-over-cap", "/v1/forallnn", `{"query": {"state": 3}, "window": {"ts": 1, "te": 5}, "tau": 0.1, "confidence": {"eps": 0.05, "max_samples": 99999999}}`, 400, CodeInvalidConfidence},
		{"empty-batch", "/v1/batch", `{"requests": []}`, 400, CodeEmptyBatch},
		{"batch-bad-semantics", "/v1/batch", `{"requests": [{"semantics": "sometimes", "query": {"state": 3}, "window": {"ts": 1, "te": 5}}]}`, 400, CodeUnknownSemantics},
		{"batch-bad-item", "/v1/batch", `{"requests": [{"semantics": "exists", "query": {"state": 3}, "window": {"ts": 5, "te": 1}}]}`, 400, CodeInvalidWindow},
		{"ingest-empty-observations", "/v1/objects", `{"id": 300, "observations": []}`, 400, CodeInvalidObservation},
		{"ingest-duplicate-id", "/v1/objects", `{"id": 100, "observations": [{"t": 0, "state": 1}]}`, 409, CodeDuplicateObject},
		{"ingest-unknown-object", "/v1/observe", `{"id": 999, "observations": [{"t": 50, "state": 1}]}`, 409, CodeUnknownObject},
		{"ingest-impossible-motion", "/v1/observe", `{"id": 100, "observations": [{"t": 100, "state": 0}, {"t": 101, "state": 63}]}`, 409, CodeRejectedWrite},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, raw := post(t, ts.URL+tc.path, tc.body)
			if code != tc.status {
				t.Fatalf("status = %d, want %d (%s)", code, tc.status, raw)
			}
			var e ErrorEnvelope
			if err := json.Unmarshal(raw, &e); err != nil {
				t.Fatalf("error envelope undecodable: %s", raw)
			}
			if e.Error.Code != tc.code {
				t.Errorf("error.code = %q, want %q (%s)", e.Error.Code, tc.code, raw)
			}
			if e.Error.Message == "" {
				t.Errorf("error.message empty: %s", raw)
			}
		})
	}
	if resp, err := http.Get(ts.URL + "/v1/forallnn"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /v1/forallnn = %d, want 405", resp.StatusCode)
		}
	}
}

// TestConfidenceEndToEnd drives an adaptive query over HTTP and checks
// the sampling block reports an early stop within the advertised cap,
// and that /healthz advertises the confidence range.
func TestConfidenceEndToEnd(t *testing.T) {
	net, proc, ts := testServer(t)
	center := net.NearestState(pnn.Point{X: 0.5, Y: 0.5})

	code, raw := post(t, ts.URL+"/v1/forallnn", fmt.Sprintf(
		`{"query": {"state": %d}, "window": {"ts": 1, "te": 6}, "tau": 0.3, "seed": 42, "confidence": {"eps": 0.05, "max_samples": 2000}}`, center))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	var got QueryResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.APIVersion != APIVersion {
		t.Errorf("api_version = %q, want %q", got.APIVersion, APIVersion)
	}
	if got.Sampling.SamplesDrawn <= 0 || got.Sampling.SamplesDrawn > 2000 {
		t.Errorf("samples_drawn = %d, want in (0, 2000]", got.Sampling.SamplesDrawn)
	}
	if got.Sampling.ErrorBound <= 0 {
		t.Errorf("error_bound = %v, want > 0", got.Sampling.ErrorBound)
	}
	if got.Sampling.SamplesDrawn != got.Stats.Worlds {
		t.Errorf("samples_drawn %d != stats.worlds %d", got.Sampling.SamplesDrawn, got.Stats.Worlds)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if h.APIVersion != APIVersion {
		t.Errorf("healthz api_version = %q, want %q", h.APIVersion, APIVersion)
	}
	if h.Confidence.DefaultBudget != proc.SampleBudget() {
		t.Errorf("healthz default_budget = %d, want %d", h.Confidence.DefaultBudget, proc.SampleBudget())
	}
	if h.Confidence.MaxSamplesCap != 10*proc.SampleBudget() {
		t.Errorf("healthz max_samples_cap = %d, want %d", h.Confidence.MaxSamplesCap, 10*proc.SampleBudget())
	}
	if h.Confidence.DefaultDelta != 0.05 || h.Confidence.EpsMin != 0 || h.Confidence.EpsMax != 1 {
		t.Errorf("healthz confidence range = %+v", h.Confidence)
	}
}

// TestBatchLimit: a batch beyond MaxBatch is rejected up front.
func TestBatchLimit(t *testing.T) {
	net, err := pnn.NewGridNetwork(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	db := pnn.NewDB(net)
	if err := db.Add(1, []pnn.Observation{{T: 0, State: 0}, {T: 4, State: 2}}); err != nil {
		t.Fatal(err)
	}
	proc, err := db.Build(50)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(net, proc, Config{MaxBatch: 2}))
	defer ts.Close()
	code, _ := post(t, ts.URL+"/v1/batch", `{"requests": [
		{"semantics": "exists", "query": {"state": 1}, "window": {"ts": 0, "te": 2}},
		{"semantics": "exists", "query": {"state": 1}, "window": {"ts": 0, "te": 2}},
		{"semantics": "exists", "query": {"state": 1}, "window": {"ts": 0, "te": 2}}
	]}`)
	if code != http.StatusBadRequest {
		t.Errorf("oversized batch = %d, want 400", code)
	}
}

// TestRunGracefulShutdown: Run serves until its context is cancelled,
// drains, and returns nil.
func TestRunGracefulShutdown(t *testing.T) {
	net, proc, _ := testServer(t)
	srv := New(net, proc, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx, "127.0.0.1:0", time.Second) }()
	time.Sleep(50 * time.Millisecond) // let ListenAndServe start
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not shut down")
	}
}

// TestIngestEndpoints drives the live write path end-to-end: a new
// object lands via /v1/objects, grows via /v1/observe, the snapshot
// version advances each time, and queries issued afterwards see it.
func TestIngestEndpoints(t *testing.T) {
	net, proc, ts := testServer(t)
	// Park the new object in the corner the routes only brush at t=0, so
	// it dominates its neighborhood for the whole query window.
	corner := net.NearestState(pnn.Point{X: 0.95, Y: 0.05})
	v0 := proc.Version()

	code, raw := post(t, ts.URL+"/v1/objects", fmt.Sprintf(
		`{"id": 200, "observations": [{"t": 0, "state": %d}, {"t": 6, "state": %d}]}`, corner, corner))
	if code != http.StatusOK {
		t.Fatalf("/v1/objects = %d: %s", code, raw)
	}
	var ing IngestResponse
	if err := json.Unmarshal(raw, &ing); err != nil {
		t.Fatal(err)
	}
	if ing.Version != v0+1 || ing.Objects != 4 {
		t.Errorf("ingest response = %+v, want version %d with 4 objects", ing, v0+1)
	}

	code, raw = post(t, ts.URL+"/v1/observe", fmt.Sprintf(
		`{"id": 200, "observations": [{"t": 12, "state": %d}]}`, corner))
	if code != http.StatusOK {
		t.Fatalf("/v1/observe = %d: %s", code, raw)
	}
	if err := json.Unmarshal(raw, &ing); err != nil {
		t.Fatal(err)
	}
	if ing.Version != v0+2 {
		t.Errorf("observe version = %d, want %d", ing.Version, v0+2)
	}

	// A query after both writes sees the parked object, including the
	// window only the appended observation covers.
	code, raw = post(t, ts.URL+"/v1/forallnn", fmt.Sprintf(
		`{"query": {"state": %d}, "window": {"ts": 7, "te": 11}, "tau": 0.5, "seed": 3}`, corner))
	if code != http.StatusOK {
		t.Fatalf("post-ingest query = %d: %s", code, raw)
	}
	var qr QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range qr.Results {
		if r.ObjectID == 200 {
			found = true
		}
	}
	if !found {
		t.Errorf("ingested object missing from post-ingest query: %s", raw)
	}

	// /healthz reports the advanced version and the new object count.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if h.Version != v0+2 || h.Objects != 4 || !h.Ingest {
		t.Errorf("health after ingest = %+v", h)
	}
}

// TestIngestValidation: each malformed or impossible write is rejected
// with the right status and leaves the served version untouched.
func TestIngestValidation(t *testing.T) {
	_, proc, ts := testServer(t)
	v0 := proc.Version()
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"empty observations", "/v1/objects", `{"id": 300, "observations": []}`, http.StatusBadRequest},
		{"state out of range", "/v1/objects", `{"id": 300, "observations": [{"t": 0, "state": 64}]}`, http.StatusBadRequest},
		{"unknown field", "/v1/objects", `{"id": 300, "obs": []}`, http.StatusBadRequest},
		{"duplicate timestamp in payload", "/v1/objects", `{"id": 300, "observations": [{"t": 0, "state": 1}, {"t": 0, "state": 2}]}`, http.StatusBadRequest},
		{"duplicate id", "/v1/objects", `{"id": 100, "observations": [{"t": 0, "state": 1}]}`, http.StatusConflict},
		{"unknown object", "/v1/observe", `{"id": 999, "observations": [{"t": 50, "state": 1}]}`, http.StatusConflict},
		{"impossible motion", "/v1/observe", `{"id": 100, "observations": [{"t": 100, "state": 0}, {"t": 101, "state": 63}]}`, http.StatusConflict},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, raw := post(t, ts.URL+tc.path, tc.body)
			if code != tc.want {
				t.Errorf("%s %s = %d, want %d (%s)", tc.path, tc.body, code, tc.want, raw)
			}
		})
	}
	if v := proc.Version(); v != v0 {
		t.Errorf("rejected writes advanced version %d -> %d", v0, v)
	}
	if resp, err := http.Get(ts.URL + "/v1/objects"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /v1/objects = %d, want 405", resp.StatusCode)
		}
	}
}

// TestIngestDisabled: a read-only server refuses writes with 403 but
// keeps answering queries.
func TestIngestDisabled(t *testing.T) {
	net, proc, _ := testServer(t)
	ro := httptest.NewServer(New(net, proc, Config{}))
	defer ro.Close()
	code, _ := post(t, ro.URL+"/v1/objects", `{"id": 400, "observations": [{"t": 0, "state": 1}]}`)
	if code != http.StatusForbidden {
		t.Errorf("/v1/objects on read-only server = %d, want 403", code)
	}
	code, _ = post(t, ro.URL+"/v1/observe", `{"id": 100, "observations": [{"t": 50, "state": 1}]}`)
	if code != http.StatusForbidden {
		t.Errorf("/v1/observe on read-only server = %d, want 403", code)
	}
	if code, _ := post(t, ro.URL+"/v1/existsnn", `{"query": {"state": 1}, "window": {"ts": 0, "te": 2}, "tau": 0.01, "seed": 1}`); code != http.StatusOK {
		t.Errorf("query on read-only server = %d, want 200", code)
	}
}

// TestAliasSunset pins the behavior after the alias sunset: the server
// refuses the flat QuerySpec spellings outright — 400 with the stable
// code use_query_spec, on one-shot endpoints and inside batch items
// alike — while the canonical nested spelling keeps working, with no
// warnings key and no Deprecation header.
func TestAliasSunset(t *testing.T) {
	net, _, ts := testServer(t)
	center := net.NearestState(pnn.Point{X: 0.5, Y: 0.5})

	flat := []struct{ name, path, body string }{
		{"state", "/v1/forallnn", fmt.Sprintf(`{"state": %d, "ts": 1, "te": 6, "tau": 0.05, "seed": 42}`, center)},
		{"point", "/v1/existsnn", `{"x": 0.5, "y": 0.5, "ts": 1, "te": 5, "tau": 0.05}`},
		{"trajectory", "/v1/pcnn", `{"trajectory": {"start": 1, "points": [{"x": 0.4, "y": 0.5}, {"x": 0.5, "y": 0.5}]}, "ts": 1, "te": 4, "tau": 0.3}`},
		{"window-only", "/v1/forallnn", fmt.Sprintf(`{"query": {"state": %d}, "ts": 1, "te": 6, "tau": 0.05}`, center)},
	}
	for _, tc := range flat {
		t.Run(tc.name, func(t *testing.T) {
			code, raw := post(t, ts.URL+tc.path, tc.body)
			if code != http.StatusBadRequest {
				t.Fatalf("flat spelling = %d, want 400 (%s)", code, raw)
			}
			var e ErrorEnvelope
			if err := json.Unmarshal(raw, &e); err != nil {
				t.Fatalf("error envelope undecodable: %s", raw)
			}
			if e.Error.Code != CodeUseQuerySpec {
				t.Errorf("error.code = %q, want %q (%s)", e.Error.Code, CodeUseQuerySpec, raw)
			}
			if !strings.Contains(e.Error.Message, "nested query/window spelling") {
				t.Errorf("rejection does not point at the canonical spelling: %s", raw)
			}
		})
	}

	// The same flat spelling inside a batch item is rejected with the
	// same code, as the per-item error of a 400 batch.
	code, raw := post(t, ts.URL+"/v1/batch", fmt.Sprintf(
		`{"requests": [{"semantics": "exists", "state": %d, "ts": 1, "te": 6, "tau": 0.05}]}`, center))
	if code != http.StatusBadRequest {
		t.Fatalf("flat batch item = %d, want 400 (%s)", code, raw)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("batch error envelope undecodable: %s", raw)
	}
	if env.Error.Code != CodeUseQuerySpec {
		t.Errorf("batch error.code = %q, want %q (%s)", env.Error.Code, CodeUseQuerySpec, raw)
	}

	// Canonical spellings are untouched, and answer without warnings.
	resp, err := http.Post(ts.URL+"/v1/forallnn", "application/json", strings.NewReader(fmt.Sprintf(
		`{"query": {"state": %d}, "window": {"ts": 1, "te": 6}, "tau": 0.05, "seed": 42}`, center)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err = io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("canonical spelling = %d, want 200 (%s)", resp.StatusCode, raw)
	}
	if bytes.Contains(raw, []byte(`"warnings"`)) || resp.Header.Get("Deprecation") != "" {
		t.Errorf("canonical spelling answered with a deprecation signal: %v %s", resp.Header, raw)
	}
}

// TestBatchSharedWorlds exercises the share_worlds wire option: same-
// window requests coalesce into one shared-world group, batch_stats
// reports the grouping, and answers match the library-level shared
// path for the same shared seed.
func TestBatchSharedWorlds(t *testing.T) {
	net, proc, ts := testServer(t)
	center := net.NearestState(pnn.Point{X: 0.5, Y: 0.5})
	q := pnn.AtState(net, center)
	body := fmt.Sprintf(`{"share_worlds": true, "shared_seed": 9, "requests": [
		{"semantics": "forall", "query": {"state": %d}, "window": {"ts": 1, "te": 6}, "tau": 0.05},
		{"semantics": "exists", "query": {"state": %d}, "window": {"ts": 1, "te": 6}, "tau": 0.05},
		{"semantics": "exists", "query": {"state": %d}, "window": {"ts": 2, "te": 5}, "tau": 0.05}
	]}`, center, center, center)
	code, raw := post(t, ts.URL+"/v1/batch", body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	var got BatchResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Responses) != 3 {
		t.Fatalf("responses = %d, want 3", len(got.Responses))
	}
	if got.BatchStats.Groups != 2 {
		t.Errorf("batch_stats.groups = %d, want 2 (two distinct windows)", got.BatchStats.Groups)
	}
	if got.BatchStats.Requests != 3 {
		t.Errorf("batch_stats.requests = %d, want 3", got.BatchStats.Requests)
	}
	want, _ := proc.RunBatchStats([]pnn.Request{
		{Semantics: pnn.ForAll, Query: q, Ts: 1, Te: 6, Tau: 0.05},
		{Semantics: pnn.Exists, Query: q, Ts: 1, Te: 6, Tau: 0.05},
		{Semantics: pnn.Exists, Query: q, Ts: 2, Te: 5, Tau: 0.05},
	}, pnn.BatchOptions{ShareWorlds: true, SharedSeed: 9})
	for i := range want {
		if want[i].Err != nil {
			t.Fatal(want[i].Err)
		}
		compareResults(t, got.Responses[i].Results, want[i].Results)
	}
}
