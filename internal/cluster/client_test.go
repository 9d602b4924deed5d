package cluster

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pnn/internal/shard"
)

// stubPeer serves answers[i] to the i-th request (the last one to every
// later request) and counts the attempts and connections it saw.
type stubPeer struct {
	*httptest.Server
	attempts, conns atomic.Int32
}

func newStubPeer(t *testing.T, answers ...http.HandlerFunc) *stubPeer {
	t.Helper()
	sp := &stubPeer{}
	sp.Server = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := int(sp.attempts.Add(1))
		answers[min(n, len(answers))-1](w, r)
	}))
	sp.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			sp.conns.Add(1)
		}
	}
	sp.Start()
	t.Cleanup(sp.Close)
	return sp
}

func (sp *stubPeer) client(timeout time.Duration) *peerClient {
	// A hedge delay as long as the timeout: the second attempt is fired
	// by the first one's failure, never by the clock, so attempt counts
	// are exact.
	return newPeerClient("stub", sp.URL, timeout, timeout, 8)
}

func answerFrame(frame []byte) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", ScatterFrameType)
		w.Write(frame)
	}
}

func answerStatus(status int, body string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		w.Write([]byte(body))
	}
}

// TestPeerClientHedgedCall pins what a hedged scatter call does with
// each kind of answer: anything unusable — a transport failure, a
// timeout, a 5xx, a frame or JSON body that does not decode — is
// ErrPeerUnavailable after exactly one retry, a structured 4xx is the
// peer's verdict and is not retried, and either encoding of a good
// answer decodes to the same result.
func TestPeerClientHedgedCall(t *testing.T) {
	want := &shard.ScatterResult{
		Version: 4, Versions: []int64{4}, Samples: 3, Worlds: 3,
		Rows:      []shard.ScatterRow{{ID: 11, States: []int32{5, -1, 6, 6, 5, -1}}},
		CandIDs:   []int{11},
		PruneDist: []float64{0.5, 1.5},
	}
	frame, err := EncodeScatterFrame(want)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), frame...)
	flipped[len(flipped)/2] ^= 0x10
	wrongMagic := seal(append([]byte("NOTSCAT1"), frame[8:len(frame)-4]...))
	oldPeer := func(w http.ResponseWriter, r *http.Request) {
		// A peer that predates the frame ignores Accept and answers
		// JSON, gzip'd because the router asked for that too.
		if r.Header.Get("Accept") != ScatterFrameType || r.Header.Get("Accept-Encoding") != "gzip" {
			t.Errorf("scatter request headers: Accept %q, Accept-Encoding %q", r.Header.Get("Accept"), r.Header.Get("Accept-Encoding"))
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Encoding", "gzip")
		zw := gzip.NewWriter(w)
		json.NewEncoder(zw).Encode(ScatterToWire(want))
		zw.Close()
	}
	stall := func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) // the server only notices a hang-up once the body is read
		<-r.Context().Done()
	}

	for _, tc := range []struct {
		name     string
		answers  []http.HandlerFunc
		attempts int32
		ok       bool
		rpcCode  string
	}{
		{"frame", []http.HandlerFunc{answerFrame(frame)}, 1, true, ""},
		{"json from an old peer", []http.HandlerFunc{oldPeer}, 1, true, ""},
		{"checksum mismatch then frame", []http.HandlerFunc{answerFrame(flipped), answerFrame(frame)}, 2, true, ""},
		{"checksum mismatch twice", []http.HandlerFunc{answerFrame(flipped)}, 2, false, ""},
		{"bad magic", []http.HandlerFunc{answerFrame(wrongMagic)}, 2, false, ""},
		{"truncated frame", []http.HandlerFunc{answerFrame(frame[:len(frame)-9])}, 2, false, ""},
		{"malformed json", []http.HandlerFunc{answerStatus(200, `{"version": `)}, 2, false, ""},
		{"5xx then frame", []http.HandlerFunc{answerStatus(503, `{"error": {"code": "internal", "message": "x"}}`), answerFrame(frame)}, 2, true, ""},
		{"5xx twice", []http.HandlerFunc{answerStatus(500, "boom")}, 2, false, ""},
		{"timeout", []http.HandlerFunc{stall}, 2, false, ""},
		{"structured 4xx", []http.HandlerFunc{answerStatus(400, `{"error": {"code": "invalid_query", "message": "no"}}`)}, 1, false, "invalid_query"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sp := newStubPeer(t, tc.answers...)
			timeout := 5 * time.Second
			if tc.name == "timeout" {
				timeout = 50 * time.Millisecond
			}
			var got *shard.ScatterResult
			err := sp.client(timeout).callHedged(context.Background(), "/internal/scatter", &ScatterRequest{}, ScatterFrameType, intoScatter(&got))
			if n := sp.attempts.Load(); n != tc.attempts {
				t.Errorf("peer saw %d attempts, want %d", n, tc.attempts)
			}
			var rerr *rpcError
			switch {
			case tc.ok:
				if err != nil {
					t.Fatalf("call failed: %v", err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("decoded %+v, want %+v", got, want)
				}
			case tc.rpcCode != "":
				if !errors.As(err, &rerr) || rerr.Code != tc.rpcCode || errors.Is(err, ErrPeerUnavailable) {
					t.Errorf("error = %v, want the peer's %s verdict", err, tc.rpcCode)
				}
			default:
				if !errors.Is(err, ErrPeerUnavailable) || errors.As(err, &rerr) {
					t.Errorf("error = %v, want ErrPeerUnavailable", err)
				}
			}
		})
	}

	t.Run("peer gone", func(t *testing.T) {
		sp := newStubPeer(t, answerFrame(frame))
		sp.Close()
		var got *shard.ScatterResult
		err := sp.client(time.Second).callHedged(context.Background(), "/internal/scatter", &ScatterRequest{}, ScatterFrameType, intoScatter(&got))
		if !errors.Is(err, ErrPeerUnavailable) {
			t.Errorf("error = %v, want ErrPeerUnavailable", err)
		}
	})
}

// TestPeerClientUnhedgedCall: a write gets one attempt whatever comes
// back, and an answer that does not decode is still peer unavailability.
func TestPeerClientUnhedgedCall(t *testing.T) {
	sp := newStubPeer(t, answerStatus(200, `{"version": 7, "versions": [7], "objects": 3}`), answerStatus(200, `not json`), answerStatus(502, ``))
	pc := sp.client(5 * time.Second)
	var resp IngestRPCResponse
	if err := pc.callJSON(context.Background(), "/internal/ingest", IngestRPCRequest{Kind: "add"}, &resp); err != nil || resp.Version != 7 || resp.Objects != 3 {
		t.Fatalf("ingest answer = %+v, %v", resp, err)
	}
	for _, what := range []string{"malformed body", "502"} {
		if err := pc.callJSON(context.Background(), "/internal/ingest", IngestRPCRequest{Kind: "add"}, &resp); !errors.Is(err, ErrPeerUnavailable) {
			t.Errorf("%s: error = %v, want ErrPeerUnavailable", what, err)
		}
	}
	if n := sp.attempts.Load(); n != 3 {
		t.Errorf("peer saw %d attempts for 3 un-hedged calls", n)
	}
}

// TestPeerClientKeepsBurstConnections: a burst wider than the default
// transport's two idle connections per host finds its connections again
// on the next burst instead of re-dialling them, and shutting the
// coordinator down closes them.
func TestPeerClientKeepsBurstConnections(t *testing.T) {
	const burst = 3 // one more than the default transport would keep
	var arrived sync.WaitGroup
	sp := newStubPeer(t, func(w http.ResponseWriter, r *http.Request) {
		// Hold every request of a burst until all have arrived, so the
		// burst really uses `burst` connections at once.
		arrived.Done()
		arrived.Wait()
		w.Write([]byte(`{"touched": true}`))
	})
	c, err := NewCoordinator(nil, Config{Peers: []Peer{{Name: "stub", URL: sp.URL}}, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	pc := c.clients["stub"]
	for round := 0; round < 2; round++ {
		arrived.Add(burst)
		var wg sync.WaitGroup
		for i := 0; i < burst; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var resp TouchResponse
				if err := pc.callJSON(context.Background(), "/internal/touch", TouchRequest{}, &resp); err != nil || !resp.Touched {
					t.Errorf("touch = %+v, %v", resp, err)
				}
			}()
		}
		wg.Wait()
		if n := sp.conns.Load(); n != burst {
			t.Fatalf("after burst %d the peer had accepted %d connections, want %d", round+1, n, burst)
		}
	}
	c.CloseSubscriptions()
	var resp TouchResponse
	arrived.Add(1)
	if err := pc.callJSON(context.Background(), "/internal/touch", TouchRequest{}, &resp); err != nil {
		t.Fatal(err)
	}
	if n := sp.conns.Load(); n != burst+1 {
		t.Errorf("a call after shutdown brought the connection count to %d, want a fresh dial (%d)", n, burst+1)
	}
}
