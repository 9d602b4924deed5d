package cluster

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// ErrPeerUnavailable marks a gather that could not complete
// consistently: a peer RPC failed (after the hedged retry), timed out,
// or the per-request snapshots could not be reconciled. The API layer
// maps it to HTTP 503 with code "peer_unavailable"; a response wrapping
// it never carries a partial answer.
var ErrPeerUnavailable = errors.New("cluster: peer unavailable")

// rpcError is a structured error a peer returned (its /internal
// envelope decoded): the write-rejection and validation cases that must
// NOT be classified as peer unavailability — the peer is healthy, it
// just said no.
type rpcError struct {
	Code    string
	Message string
	Status  int
}

func (e *rpcError) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// peerClient speaks the /internal RPC surface of one peer.
type peerClient struct {
	name string
	base string // e.g. http://127.0.0.1:9001
	hc   *http.Client

	timeout time.Duration // per-attempt budget
	hedge   time.Duration // straggler delay before the one hedged retry

	mu        sync.Mutex
	healthy   bool
	lastErr   string
	lastProbe time.Time
	health    HealthInfo
}

// newPeerClient builds the client of one peer. conns is how many idle
// connections it keeps to that peer: every gather in flight holds one,
// two while its hedge runs, and the default transport's two per host
// would re-dial every leg of a batch beyond that.
func newPeerClient(name, base string, timeout, hedge time.Duration, conns int) *peerClient {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	if hedge <= 0 {
		hedge = timeout / 4
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = conns
	tr.MaxIdleConns = 0          // the per-host bound is the only one: this transport talks to one host
	tr.DisableCompression = true // call sets Accept-Encoding by hand and inflates the answer itself
	return &peerClient{
		name:    name,
		base:    base,
		hc:      &http.Client{Transport: tr},
		timeout: timeout,
		hedge:   hedge,
	}
}

// call performs one POST (or GET when in is nil) against path and
// returns the answer's body, inflated if the peer gzip'd it, and its
// Content-Type; accept, when set, is the media type asked for. Transport
// failures, timeouts and 5xx answers wrap ErrPeerUnavailable;
// structured envelopes with a non-5xx status come back as *rpcError.
func (p *peerClient) call(ctx context.Context, path string, in any, accept string) ([]byte, string, error) {
	ctx, cancel := context.WithTimeout(ctx, p.timeout)
	defer cancel()
	var req *http.Request
	var err error
	if in == nil {
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, p.base+path, nil)
	} else {
		var body bytes.Buffer
		if err := json.NewEncoder(&body).Encode(in); err != nil {
			return nil, "", err
		}
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, p.base+path, &body)
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	}
	if err != nil {
		return nil, "", err
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	// A peer that does not know the accepted media type answers JSON;
	// ask for that gzip'd, as routers always have.
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err := p.hc.Do(req)
	if err != nil {
		return nil, "", fmt.Errorf("%w: %s: %v", ErrPeerUnavailable, p.name, err)
	}
	defer resp.Body.Close()
	var body io.Reader = io.LimitReader(resp.Body, maxScatterBytes)
	if resp.Header.Get("Content-Encoding") == "gzip" {
		gz, gzErr := gzip.NewReader(body)
		if gzErr != nil {
			return nil, "", fmt.Errorf("%w: %s: gzip response: %v", ErrPeerUnavailable, p.name, gzErr)
		}
		defer gz.Close()
		body = io.LimitReader(gz, maxScatterBytes)
	}
	raw, err := io.ReadAll(body)
	if err != nil {
		return nil, "", fmt.Errorf("%w: %s: reading response: %v", ErrPeerUnavailable, p.name, err)
	}
	if resp.StatusCode != http.StatusOK {
		var env ErrorJSON
		if jsonErr := json.Unmarshal(raw, &env); jsonErr == nil && env.Error.Code != "" && resp.StatusCode < 500 {
			return nil, "", &rpcError{Code: env.Error.Code, Message: env.Error.Message, Status: resp.StatusCode}
		}
		return nil, "", fmt.Errorf("%w: %s: %s: HTTP %d", ErrPeerUnavailable, p.name, path, resp.StatusCode)
	}
	return raw, resp.Header.Get("Content-Type"), nil
}

// decoder turns one successful answer into the caller's value. A
// failure means the peer sent something unusable (bad magic, checksum
// mismatch, truncated frame, malformed JSON).
type decoder func(body []byte, contentType string) error

// intoJSON decodes a JSON answer into out.
func intoJSON(out any) decoder {
	return func(body []byte, _ string) error { return json.Unmarshal(body, out) }
}

// decode runs dec over an answer, classifying a failure as peer
// unavailability like any other unusable answer.
func (p *peerClient) decode(path string, dec decoder, body []byte, contentType string) error {
	if err := dec(body, contentType); err != nil {
		return fmt.Errorf("%w: %s: %s: decoding response: %v", ErrPeerUnavailable, p.name, path, err)
	}
	return nil
}

// callJSON is one un-hedged call decoded as JSON into out.
func (p *peerClient) callJSON(ctx context.Context, path string, in, out any) error {
	body, ctype, err := p.call(ctx, path, in, "")
	if err != nil {
		return err
	}
	return p.decode(path, intoJSON(out), body, ctype)
}

// callHedged is call with one hedged retry: if the first attempt has
// not answered within the hedge delay, a second identical request is
// fired and the first answer that dec accepts wins — dec runs on the
// calling goroutine, once per answer. Only used for idempotent reads
// (scatter, touch) — a straggling peer costs one duplicate probe
// instead of the whole gather's latency.
func (p *peerClient) callHedged(ctx context.Context, path string, in any, accept string, dec decoder) error {
	type result struct {
		body  []byte
		ctype string
		err   error
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan result, 2)
	attempt := func() {
		body, ctype, err := p.call(ctx, path, in, accept)
		results <- result{body, ctype, err}
	}
	go attempt()
	var firstErr error
	timer := time.NewTimer(p.hedge)
	defer timer.Stop()
	launched := 1
	for done := 0; done < launched; {
		select {
		case <-timer.C:
			if launched == 1 {
				launched = 2
				go attempt()
			}
		case r := <-results:
			if r.err == nil {
				r.err = p.decode(path, dec, r.body, r.ctype)
			}
			if r.err == nil {
				return nil
			}
			done++
			if firstErr == nil {
				firstErr = r.err
			}
			// A structured rejection is deterministic — the hedge would
			// only repeat it.
			var rerr *rpcError
			if errors.As(r.err, &rerr) {
				return r.err
			}
			if launched == 1 {
				launched = 2
				go attempt()
			}
		}
	}
	return firstErr
}

// probe refreshes the peer's health record and returns it.
func (p *peerClient) probe(ctx context.Context) (HealthInfo, error) {
	var h HealthInfo
	err := p.callJSON(ctx, "/internal/health", nil, &h)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lastProbe = time.Now()
	if err != nil {
		p.healthy = false
		p.lastErr = err.Error()
		return HealthInfo{}, err
	}
	p.healthy = true
	p.lastErr = ""
	p.health = h
	return h, nil
}

// status returns the last known health view of the peer.
func (p *peerClient) status() (healthy bool, lastErr string, lastProbe time.Time, h HealthInfo) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.healthy, p.lastErr, p.lastProbe, p.health
}
