package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pnn"
)

// readFrame parses the next SSE frame ("id:"/"event:"/"data:" lines up
// to a blank line) off a subscription stream.
func readFrame(t *testing.T, br *bufio.Reader) (string, SubEventJSON) {
	t.Helper()
	var event, data string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading SSE frame: %v", err)
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "":
			if event == "" && data == "" {
				continue
			}
			var e SubEventJSON
			if err := json.Unmarshal([]byte(data), &e); err != nil {
				t.Fatalf("bad SSE data %q: %v", data, err)
			}
			return event, e
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		}
	}
}

// TestSubscribeSSERoundTrip drives the SSE transport end-to-end:
// subscribe, receive the initial answer (byte-identical to the one-shot
// endpoint), ingest an object inside the influence region, receive the
// re-evaluation at the advanced version, DELETE the subscription and
// receive the terminal bye frame.
func TestSubscribeSSERoundTrip(t *testing.T) {
	net2, proc, ts := testServer(t)
	center := net2.NearestState(pnn.Point{X: 0.5, Y: 0.5})

	spec := fmt.Sprintf(`{"semantics": "exists", "query": {"state": %d},
		"window": {"ts": 1, "te": 6}, "tau": 0.05, "seed": 42}`, center)
	resp, err := http.Post(ts.URL+"/v1/subscribe", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	br := bufio.NewReader(resp.Body)

	event, e0 := readFrame(t, br)
	if event != "answer" || e0.Event != "answer" || e0.Response == nil {
		t.Fatalf("initial frame = %q %+v", event, e0)
	}
	if e0.Seq != 1 {
		t.Errorf("initial seq = %d, want 1", e0.Seq)
	}

	// The event must match the one-shot endpoint bit for bit — same
	// spec, same seed, same snapshot version.
	oneShot := fmt.Sprintf(`{"query": {"state": %d}, "window": {"ts": 1, "te": 6}, "tau": 0.05, "seed": 42}`, center)
	code, raw := post(t, ts.URL+"/v1/existsnn", oneShot)
	if code != http.StatusOK {
		t.Fatalf("one-shot status %d: %s", code, raw)
	}
	var want QueryResponse
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	// sampler_builds counts cache warm-up, not answer content: the
	// subscription's initial evaluation built the samplers the later
	// one-shot then found hot.
	got := *e0.Response
	got.Stats.SamplerBuilds, want.Stats.SamplerBuilds = 0, 0
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(want)
	if string(gb) != string(wb) {
		t.Errorf("subscription answer diverged from one-shot:\nevent    %s\none-shot %s", gb, wb)
	}

	// An object parked mid-window at the query state is inside the
	// influence region: the standing query re-evaluates at the new
	// version.
	code, raw = post(t, ts.URL+"/v1/objects", fmt.Sprintf(
		`{"id": 900, "observations": [{"t": 3, "state": %d}]}`, center))
	if code != http.StatusOK {
		t.Fatalf("ingest status %d: %s", code, raw)
	}
	event, e1 := readFrame(t, br)
	if event != "answer" || e1.Response == nil {
		t.Fatalf("post-ingest frame = %q %+v", event, e1)
	}
	if e1.Version != e0.Version+1 {
		t.Errorf("re-evaluation version %d after %d, want +1", e1.Version, e0.Version)
	}
	if e1.Seq <= e0.Seq {
		t.Errorf("seq not monotone: %d after %d", e1.Seq, e0.Seq)
	}

	// Cancelling over the API lands the terminal bye on the stream.
	req, _ := http.NewRequest(http.MethodDelete,
		fmt.Sprintf("%s/v1/subscriptions/%d", ts.URL, e0.SubID), nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", dresp.StatusCode)
	}
	event, bye := readFrame(t, br)
	if event != "bye" || bye.Event != "bye" {
		t.Fatalf("terminal frame = %q %+v", event, bye)
	}
	if bye.Response != nil {
		t.Errorf("bye frame carries a response: %+v", bye.Response)
	}
	if _, err := br.ReadByte(); err == nil {
		t.Error("stream still open after bye")
	}
	if proc.NumSubscriptions() != 0 {
		t.Errorf("%d subscriptions left registered", proc.NumSubscriptions())
	}
}

// TestSubscribeRejectsLegacyAliases pins the canonical-only contract of
// the subscription surface: flat alias spellings are a hard 400 here,
// as on every endpoint.
func TestSubscribeRejectsLegacyAliases(t *testing.T) {
	net2, _, ts := testServer(t)
	center := net2.NearestState(pnn.Point{X: 0.5, Y: 0.5})
	for _, body := range []string{
		fmt.Sprintf(`{"semantics": "exists", "state": %d, "window": {"ts": 1, "te": 6}, "tau": 0.05}`, center),
		fmt.Sprintf(`{"semantics": "exists", "query": {"state": %d}, "ts": 1, "te": 6, "tau": 0.05}`, center),
	} {
		code, raw := post(t, ts.URL+"/v1/subscribe", body)
		if code != http.StatusBadRequest {
			t.Fatalf("alias body accepted with %d: %s", code, raw)
		}
		var env ErrorEnvelope
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatal(err)
		}
		if env.Error.Code != CodeUseQuerySpec {
			t.Errorf("code = %q, want %q", env.Error.Code, CodeUseQuerySpec)
		}
	}
}

// TestSubscribePollTransport covers the long-poll path: register with
// transport "poll", drain the initial event, long-poll across an ingest
// and observe the re-evaluation, list and finally delete.
func TestSubscribePollTransport(t *testing.T) {
	net2, proc, ts := testServer(t)
	center := net2.NearestState(pnn.Point{X: 0.5, Y: 0.5})

	code, raw := post(t, ts.URL+"/v1/subscribe", fmt.Sprintf(
		`{"semantics": "forall", "query": {"state": %d}, "window": {"ts": 1, "te": 6},
		  "tau": 0.05, "seed": 7, "delivery": {"transport": "poll", "on_change_only": false}}`, center))
	if code != http.StatusOK {
		t.Fatalf("subscribe status %d: %s", code, raw)
	}
	var sr SubscribeResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Transport != TransportPoll || sr.SubscriptionID == 0 {
		t.Fatalf("subscribe response %+v", sr)
	}

	events := func(timeoutMS int) SubEventsResponse {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("%s/v1/subscriptions/%d/events?timeout_ms=%d",
			ts.URL, sr.SubscriptionID, timeoutMS))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("events status %d", resp.StatusCode)
		}
		var er SubEventsResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatal(err)
		}
		return er
	}

	first := events(5000)
	if len(first.Events) != 1 || first.Events[0].Event != "answer" || first.Events[0].Response == nil {
		t.Fatalf("initial poll = %+v", first)
	}

	// The subscriptions listing shows the standing query with its
	// transport and index footprint.
	lresp, err := http.Get(ts.URL + "/v1/subscriptions")
	if err != nil {
		t.Fatal(err)
	}
	var list SubListResponse
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if len(list.Subscriptions) != 1 || list.Subscriptions[0].ID != sr.SubscriptionID ||
		list.Subscriptions[0].Transport != TransportPoll {
		t.Fatalf("listing = %+v", list)
	}

	// Ingest inside the influence region, then long-poll: the request
	// must block until the re-evaluation lands, not return empty.
	if code, raw := post(t, ts.URL+"/v1/objects", fmt.Sprintf(
		`{"id": 901, "observations": [{"t": 3, "state": %d}]}`, center)); code != http.StatusOK {
		t.Fatalf("ingest status %d: %s", code, raw)
	}
	second := events(10000)
	if len(second.Events) == 0 {
		t.Fatal("long-poll returned empty after an in-region write")
	}
	if v0, v1 := first.Events[0].Version, second.Events[0].Version; v1 != v0+1 {
		t.Errorf("re-evaluation version %d after %d, want +1", v1, v0)
	}

	// Delete, then both the poll and a second delete answer 404.
	del := func() int {
		req, _ := http.NewRequest(http.MethodDelete,
			fmt.Sprintf("%s/v1/subscriptions/%d", ts.URL, sr.SubscriptionID), nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := del(); code != http.StatusOK {
		t.Fatalf("delete status %d", code)
	}
	if code := del(); code != http.StatusNotFound {
		t.Errorf("second delete status %d, want 404", code)
	}
	resp, err := http.Get(fmt.Sprintf("%s/v1/subscriptions/%d/events", ts.URL, sr.SubscriptionID))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("poll after delete status %d, want 404", resp.StatusCode)
	}
	if proc.NumSubscriptions() != 0 {
		t.Errorf("%d subscriptions left registered", proc.NumSubscriptions())
	}
}

// TestSubscribeLimit pins the registration cap and its stable code.
func TestSubscribeLimit(t *testing.T) {
	net2, err := pnn.NewGridNetwork(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	db := pnn.NewDB(net2)
	if err := db.Add(1, []pnn.Observation{{T: 0, State: 0}, {T: 6, State: 0}}); err != nil {
		t.Fatal(err)
	}
	proc, err := db.Build(100)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(New(net2, proc, Config{MaxSubscriptions: 1}))
	t.Cleanup(hs.Close)
	body := `{"semantics": "exists", "query": {"state": 0}, "window": {"ts": 0, "te": 4},
	          "tau": 0.1, "delivery": {"transport": "poll"}}`
	if code, raw := post(t, hs.URL+"/v1/subscribe", body); code != http.StatusOK {
		t.Fatalf("first subscribe status %d: %s", code, raw)
	}
	code, raw := post(t, hs.URL+"/v1/subscribe", body)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-limit subscribe status %d: %s", code, raw)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != CodeSubLimit {
		t.Errorf("code = %q, want %q", env.Error.Code, CodeSubLimit)
	}
}

// TestShutdownDrainsSSEStreams pins the graceful-shutdown ordering:
// cancelling the serve context closes the subscription registry first,
// so an open SSE stream receives its terminal bye frame — not a torn
// connection — before the listener shuts down.
func TestShutdownDrainsSSEStreams(t *testing.T) {
	net2, proc, _ := testServer(t)
	srv := New(net2, proc, Config{Ingest: true})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.serve(ctx, ln, 5*time.Second) }()

	center := net2.NearestState(pnn.Point{X: 0.5, Y: 0.5})
	url := fmt.Sprintf("http://%s/v1/subscribe", ln.Addr())
	spec := fmt.Sprintf(`{"semantics": "exists", "query": {"state": %d},
		"window": {"ts": 1, "te": 6}, "tau": 0.05, "seed": 5}`, center)
	resp, err := http.Post(url, "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if event, _ := readFrame(t, br); event != "answer" {
		t.Fatalf("initial frame = %q", event)
	}

	cancel()
	if event, _ := readFrame(t, br); event != "bye" {
		t.Fatalf("shutdown frame = %q, want bye", event)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down after draining streams")
	}
}

// TestSSEStreamOutlivesIdleTimeout pins why the listener sets an
// IdleTimeout but no WriteTimeout: a stream that has sat silent for
// several idle timeouts still delivers the next re-evaluation.
func TestSSEStreamOutlivesIdleTimeout(t *testing.T) {
	net2, proc, _ := testServer(t)
	hs := New(net2, proc, Config{Ingest: true}).httpServer()
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.IdleTimeout != idleTimeout || hs.WriteTimeout != 0 {
		t.Fatalf("listener timeouts: read-header %v, idle %v, write %v; want %v, %v, none",
			hs.ReadHeaderTimeout, hs.IdleTimeout, hs.WriteTimeout, readHeaderTimeout, idleTimeout)
	}
	const idle = 50 * time.Millisecond
	hs.IdleTimeout = idle
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()

	center := net2.NearestState(pnn.Point{X: 0.5, Y: 0.5})
	base := "http://" + ln.Addr().String()
	resp, err := http.Post(base+"/v1/subscribe", "application/json", strings.NewReader(fmt.Sprintf(
		`{"semantics": "exists", "query": {"state": %d}, "window": {"ts": 1, "te": 6}, "tau": 0.05, "seed": 5}`, center)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if event, _ := readFrame(t, br); event != "answer" {
		t.Fatalf("initial frame = %q", event)
	}
	time.Sleep(4 * idle) // the stream is silent, not idle: the timeout must not apply
	if code, raw := post(t, base+"/v1/objects", fmt.Sprintf(
		`{"id": 900, "observations": [{"t": 3, "state": %d}]}`, center)); code != http.StatusOK {
		t.Fatalf("ingest status %d: %s", code, raw)
	}
	if event, e := readFrame(t, br); event != "answer" || e.Response == nil {
		t.Fatalf("frame after %v of silence = %q %+v, want the re-evaluation", 4*idle, event, e)
	}
}

// TestHealthzSubscriptionCaps checks /healthz advertises the standing-
// query capability with live counts.
func TestHealthzSubscriptionCaps(t *testing.T) {
	net2, _, ts := testServer(t)
	center := net2.NearestState(pnn.Point{X: 0.5, Y: 0.5})
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
	if !h0.Subscriptions.Enabled || h0.Subscriptions.MaxSubscriptions != 10000 {
		t.Fatalf("subscription caps = %+v", h0.Subscriptions)
	}
	if got := h0.Subscriptions.Transports; len(got) != 2 || got[0] != TransportSSE || got[1] != TransportPoll {
		t.Errorf("transports = %v", got)
	}
	if h0.Subscriptions.Active != 0 {
		t.Errorf("fresh server reports %d active subscriptions", h0.Subscriptions.Active)
	}
	code, _ := post(t, ts.URL+"/v1/subscribe", fmt.Sprintf(
		`{"semantics": "exists", "query": {"state": %d}, "window": {"ts": 1, "te": 6},
		  "tau": 0.05, "delivery": {"transport": "poll"}}`, center))
	if code != http.StatusOK {
		t.Fatalf("subscribe status %d", code)
	}
	if h1 := health(); h1.Subscriptions.Active != 1 {
		t.Errorf("active = %d after one subscribe, want 1", h1.Subscriptions.Active)
	}
}
