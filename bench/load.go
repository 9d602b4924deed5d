package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"time"

	"pnn/internal/server"
)

// opResult is what one operation of the measured window produced. All
// times are offsets from the start of the replay.
type opResult struct {
	due, sent, done time.Duration
	// late is how long after the operation could first have been handed
	// to a connection (its due time, or the previous hand-off if that
	// came later) the generator actually offered it: the generator's own
	// lateness, free of the time spent waiting for a busy connection.
	late  time.Duration
	ok    bool
	err   string
	bytes int // response body size

	// Decoded from the response, for the per-layer counts.
	queries []server.QueryResponse // one per answered query (a batch has several)
	batch   *server.BatchStatsJSON
	version int64 // snapshot version a write published
}

func (r opResult) latency() time.Duration { return r.done - r.due }

// newHTTPClient returns a client holding at most conns connections to
// any one server: the open loop's in-flight cap.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
	}
}

func post(ctx context.Context, hc *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// doOp sends one operation and validates its answer: 2xx, well-formed
// JSON of the endpoint's shape, and no per-item error.
func doOp(ctx context.Context, hc *http.Client, base string, o *op) (res opResult) {
	status, raw, err := post(ctx, hc, base+o.Kind.path(), o.Body)
	res.bytes = len(raw)
	switch {
	case err != nil:
		res.err = err.Error()
	case status/100 != 2:
		res.err = fmt.Sprintf("HTTP %d: %s", status, bytes.TrimSpace(raw))
	default:
		res.err = decodeAnswer(o.Kind, raw, &res)
	}
	res.ok = res.err == ""
	return res
}

func decodeAnswer(kind opKind, raw []byte, res *opResult) string {
	switch {
	case kind.isWrite():
		var ing server.IngestResponse
		if err := json.Unmarshal(raw, &ing); err != nil || ing.Version < 1 {
			return fmt.Sprintf("malformed write answer: %s", bytes.TrimSpace(raw))
		}
		res.version = ing.Version
	case kind == opBatch:
		var br server.BatchResponse
		if err := json.Unmarshal(raw, &br); err != nil || br.APIVersion == "" {
			return fmt.Sprintf("malformed batch answer: %s", bytes.TrimSpace(raw))
		}
		for i, qr := range br.Responses {
			if qr.Error != nil {
				return fmt.Sprintf("batch item %d: %s: %s", i, qr.Error.Code, qr.Error.Message)
			}
		}
		res.queries, res.batch = br.Responses, &br.BatchStats
	default:
		var qr server.QueryResponse
		if err := json.Unmarshal(raw, &qr); err != nil || qr.APIVersion == "" {
			return fmt.Sprintf("malformed query answer: %s", bytes.TrimSpace(raw))
		}
		res.queries = []server.QueryResponse{qr}
	}
	return ""
}

// spinWindow is how long before an operation is due the dispatcher stops
// sleeping and spins. On the sizing host, whose two cores the servers
// keep 40 % busy, a sleeping thread wakes 0.2 ms late at p95; 0.5 ms
// covers that and costs a tenth of one core at the fastest rate (200/s).
const spinWindow = 500 * time.Microsecond

// waitUntil returns once start+due has been reached or ctx has ended. A
// Go timer fires up to a millisecond late (the runtime sleeps in
// epoll_wait, which counts in milliseconds), a third of a warm query; so
// the dispatcher sleeps in nanosleep(2), whose wake-up is tens of
// microseconds late, in slices short enough to notice ctx ending, and
// spins across the last spinWindow.
func waitUntil(ctx context.Context, start time.Time, due time.Duration) {
	for ctx.Err() == nil {
		wait := due - time.Since(start)
		if wait <= 0 {
			return
		}
		if wait <= spinWindow {
			continue
		}
		ts := syscall.NsecToTimespec(int64(min(wait-spinWindow, 50*time.Millisecond)))
		_ = syscall.Nanosleep(&ts, nil) // EINTR (the runtime's preemption signal) just loops
	}
}

// runOpenLoop replays ops against base on a fixed schedule: operation i
// is due at i/rate after the start, whatever the server does. At most
// conns requests are in flight; an operation due while all connections
// are busy waits for one, and its latency still counts from the instant
// it was due. Operations that were never sent because ctx ended are
// reported as failed. It returns the results and the instant the
// schedule started, which every result's offsets count from.
func runOpenLoop(ctx context.Context, hc *http.Client, base string, ops []op, rate float64, conns int) (results []opResult, start time.Time) {
	results = make([]opResult, len(ops))
	jobs := make(chan int)
	start = time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				sent := time.Since(start)
				res := doOp(ctx, hc, base, &ops[i])
				res.done = time.Since(start)
				res.due, res.late, res.sent = results[i].due, results[i].late, sent
				results[i] = res
			}
		}()
	}
	var handed time.Duration // when the previous operation was taken by a connection
dispatch:
	for i := range ops {
		due := time.Duration(float64(i) / rate * float64(time.Second))
		results[i].due = due
		waitUntil(ctx, start, due)
		results[i].late = time.Since(start) - max(due, handed)
		select {
		case jobs <- i:
			handed = time.Since(start)
		case <-ctx.Done():
			for j := i; j < len(ops); j++ {
				results[j].due = time.Duration(float64(j) / rate * float64(time.Second))
				results[j].err = "never sent: " + ctx.Err().Error()
			}
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	return results, start
}

// witnessEvent is one SSE frame of the witness subscription. Response
// keeps the embedded answer's exact bytes for the byte-identity gate.
type witnessEvent struct {
	recv     time.Time
	SubID    int64                `json:"sub_id"`
	Seq      int64                `json:"seq"`
	Event    string               `json:"event"`
	Version  int64                `json:"version"`
	Dropped  int64                `json:"dropped"`
	Response json.RawMessage      `json:"response"`
	Sweep    *server.SubSweepJSON `json:"sweep"`
}

// witness is an open SSE subscription whose frames are timestamped on
// arrival.
type witness struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu     sync.Mutex
	events []witnessEvent
	err    error
}

// openWitness registers spec over SSE and starts reading its stream. It
// returns once the initial answer event has arrived.
func openWitness(ctx context.Context, base string, spec server.SubscriptionSpec) (*witness, error) {
	ctx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/subscribe", bytes.NewReader(mustJSON(spec)))
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	// A dedicated client: the stream holds its connection for the whole
	// run and must not count against the load generator's cap.
	resp, err := (&http.Client{}).Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("opening witness stream: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body) // best effort: the status already decides the error
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("opening witness stream: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	w := &witness{cancel: cancel, done: make(chan struct{})}
	first := make(chan struct{})
	go w.read(resp.Body, first)
	select {
	case <-first:
		return w, nil
	case <-w.done:
		return nil, fmt.Errorf("witness stream ended before its initial answer: %v", w.err)
	case <-ctx.Done():
		w.close()
		return nil, ctx.Err()
	}
}

func (w *witness) read(body io.ReadCloser, first chan struct{}) {
	defer close(w.done)
	defer body.Close()
	rd := bufio.NewReaderSize(body, 1<<16)
	for {
		line, err := rd.ReadString('\n')
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			ev := witnessEvent{recv: time.Now()}
			if jerr := json.Unmarshal([]byte(data), &ev); jerr != nil {
				w.mu.Lock()
				w.err = fmt.Errorf("malformed witness frame: %v", jerr)
				w.mu.Unlock()
				return
			}
			w.mu.Lock()
			w.events = append(w.events, ev)
			n := len(w.events)
			w.mu.Unlock()
			if n == 1 {
				close(first)
			}
			if ev.Event == "bye" {
				return
			}
		}
		if err != nil {
			w.mu.Lock()
			if w.err == nil && err != io.EOF && !strings.Contains(err.Error(), "context canceled") {
				w.err = err
			}
			w.mu.Unlock()
			return
		}
	}
}

// snapshot returns the events received so far.
func (w *witness) snapshot() ([]witnessEvent, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]witnessEvent(nil), w.events...), w.err
}

// close drops the stream and waits for the reader to finish.
func (w *witness) close() {
	w.cancel()
	<-w.done
}
