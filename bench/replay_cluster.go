package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"pnn"
	"pnn/internal/cluster"
	"pnn/internal/query"
	"pnn/internal/shard"
)

// Sizes of the cluster replay.
const (
	traceRouterQueries = 60 // queries answered by playing router against the real peers
	ratioQueries       = 60 // queries sent to router and to a standalone server for cluster.overhead_ratio
)

// leg is one POST /internal/scatter against one peer, timed from the
// outside the way the router sees it.
type leg struct {
	start, end time.Duration // since the tracer started
	gz         []byte        // the body as it crossed the wire
	err        error
}

func scatterRequest(spec shard.GroupSpec) cluster.ScatterRequest {
	req := cluster.ScatterRequest{
		Query: cluster.QueryJSON{Start: spec.Ts},
		Ts:    spec.Ts, Te: spec.Te, K: spec.K, Seed: spec.Seed,
	}
	for t := spec.Ts; t <= spec.Te; t++ {
		p := spec.Q.At(t)
		req.Query.Points = append(req.Query.Points, cluster.PointJSON{X: p.X, Y: p.Y})
	}
	if spec.Conf.Enabled() {
		req.Confidence = &cluster.ConfidenceJSON{Eps: spec.Conf.Eps, Delta: spec.Conf.Delta, MaxSamples: spec.Conf.MaxSamples}
	}
	return req
}

// playRouter answers one group the way cluster.Coordinator does, from
// outside: both peer legs in parallel (gzip negotiated), wire decode,
// MergeScatters, Gather, ResponseFromAnswer — each a span under one
// cluster.router span. Afterwards it re-encodes each decoded scatter,
// which is the work the peer spent inside its leg.
func (rp *replay) playRouter(i int, g group, net *pnn.Network, peers []string) error {
	tr := rp.tr
	body := mustJSON(scatterRequest(g.spec))
	t0 := time.Now()
	if tr != nil {
		t0 = tr.t0
	}
	root := tr.begin(spRouter, i, -1)
	legs := make([]leg, len(peers))
	var wg sync.WaitGroup
	for pi, base := range peers {
		wg.Add(1)
		go func(pi int, base string) {
			defer wg.Done()
			l := &legs[pi]
			l.start = time.Since(t0)
			defer func() { l.end = time.Since(t0) }()
			req, err := http.NewRequestWithContext(rp.r.ctx, http.MethodPost, base+"/internal/scatter", bytes.NewReader(body))
			if err != nil {
				l.err = err
				return
			}
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set("Accept-Encoding", "gzip") // set by hand: the transport then hands over the compressed bytes
			resp, err := rp.hc.Do(req)
			if err != nil {
				l.err = err
				return
			}
			defer resp.Body.Close()
			if l.gz, l.err = io.ReadAll(resp.Body); l.err == nil && (resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Encoding") != "gzip") {
				l.err = fmt.Errorf("scatter leg to %s: HTTP %d, encoding %q", base, resp.StatusCode, resp.Header.Get("Content-Encoding"))
			}
		}(pi, base)
	}
	wg.Wait()
	parts := make([]*shard.ScatterResult, len(peers))
	legSpans := make([]int, len(peers))
	var slowest time.Duration
	for pi := range legs {
		l := &legs[pi]
		if l.err != nil {
			return l.err
		}
		legSpan := -1
		if tr != nil {
			tr.spans = append(tr.spans, span{ID: len(tr.spans), Parent: root, Op: i, Name: spPeerLeg, Start: int64(l.start), End: int64(l.end)})
			legSpan = len(tr.spans) - 1
		}
		slowest = max(slowest, l.end-l.start)
		var raw []byte
		var err error
		tr.timed(spWireDecode, i, root, func() {
			var zr *gzip.Reader
			if zr, err = gzip.NewReader(bytes.NewReader(l.gz)); err != nil {
				return
			}
			if raw, err = io.ReadAll(zr); err != nil {
				return
			}
			var wire cluster.ScatterResponse
			if err = json.Unmarshal(raw, &wire); err == nil {
				parts[pi] = cluster.ScatterFromWire(&wire)
			}
		})
		if err != nil {
			return fmt.Errorf("decoding scatter leg %d: %w", pi, err)
		}
		legSpans[pi] = legSpan
		rp.legMS = append(rp.legMS, float64(l.end-l.start)/1e6)
		rp.gzBytes += float64(len(l.gz))
		rp.rawBytes += float64(len(raw))
	}
	var in shard.GatherInput
	var err error
	tr.timed(spMerge, i, root, func() {
		in, err = shard.MergeScatters(parts)
		in.Space = net.Space()
		in.Workers = runtime.NumCPU()
	})
	if err != nil {
		return err
	}
	var answers []shard.GroupAnswer
	var stats query.Stats
	tr.timed(spGather, i, root, func() { answers, stats, _, err = shard.Gather(g.spec, g.items, in) })
	if err != nil {
		return err
	}
	tr.timed(spResponse, i, root, func() {
		for j, a := range answers {
			_ = pnn.ResponseFromAnswer(g.items[j].Op, a, stats)
		}
	})
	tr.end(root)
	// What the peers spent inside their legs on the wire form: the same
	// encode, replayed here once the router's own clock has stopped.
	for pi, part := range parts {
		tr.timed(spWireEncode, i, legSpans[pi], func() {
			zw := gzip.NewWriter(io.Discard)
			err = json.NewEncoder(zw).Encode(cluster.ScatterToWire(part))
			if cerr := zw.Close(); err == nil {
				err = cerr
			}
		})
		if err != nil {
			return fmt.Errorf("re-encoding scatter leg %d: %w", pi, err)
		}
	}
	rp.slowestLeg += slowest
	rp.rows += float64(len(in.Rows))
	for _, row := range in.Rows {
		rp.colBytes += float64(4 * len(row.States))
	}
	return nil
}

// routerReplay plays router for the first n queries of ops.
func (rp *replay) routerReplay(ops []op, n int, net *pnn.Network, peers []string) error {
	done := 0
	for i := range ops {
		if done == n {
			break
		}
		done++
		groups, err := groupsOf(net, &ops[i])
		if err != nil {
			return err
		}
		for _, g := range groups {
			if err := rp.playRouter(i, g, net, peers); err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
		}
	}
	rp.queries += done
	return nil
}

// traceCluster replays cluster_router against the deployment that
// served the measured window: it plays router over the two real peers,
// and sends the same queries, one at a time, to the real router and to a
// standalone server booted for the comparison.
func (rp *replay) traceCluster(dep *deployment, ops []op) error {
	r := rp.r
	net, _, err := r.data.load()
	if err != nil {
		return err
	}
	peers := []string{dep.nodes[0].base, dep.nodes[1].base}
	if err := rp.routerReplay(ops, traceRouterQueries, net, peers); err != nil {
		return err
	}
	// A scratch replay per pass: its spans and counters are thrown away.
	share, err := overheadShare(func(tr *tracer) error { return newReplay(r, tr).routerReplay(ops, 20, net, peers) })
	if err != nil {
		return err
	}
	r.m["driver.trace_overhead_share"] = share

	ports, err := freePorts(1)
	if err != nil {
		return err
	}
	single, err := r.procs.spawn("standalone", ports[0], r.serverArgs()...)
	if err != nil {
		return err
	}
	defer single.kill()
	if _, err := single.waitHealthy(r.ctx, r.ctl); err != nil {
		return err
	}
	sequential := func(base string) ([]float64, error) {
		var ms []float64
		for i := 0; i < len(ops) && i < ratioQueries; i++ {
			t0 := time.Now()
			if res := doOp(r.ctx, r.ctl, base, &ops[i]); !res.ok {
				return nil, fmt.Errorf("op %d against %s: %s", i, base, res.err)
			}
			ms = append(ms, float64(time.Since(t0))/1e6)
		}
		return ms, nil
	}
	viaRouter, err := sequential(dep.front.base)
	if err != nil {
		return err
	}
	direct, err := sequential(single.base)
	if err != nil {
		return err
	}
	r.m["cluster.overhead_ratio"] = ratio(median(viaRouter), median(direct))

	m, spans := r.m, rp.tr.spans
	q := float64(rp.queries)
	m["cluster.peer_leg_p50_ms"] = percentile(rp.legMS, 0.5)
	routerNS, _ := spanTotal(spans, spRouter)
	m["cluster.peer_leg_max_share"] = ratio(float64(rp.slowestLeg), float64(routerNS))
	m["cluster.scatter_bytes_raw_per_query"] = ratio(rp.rawBytes, q)
	m["cluster.scatter_bytes_gzip_per_query"] = ratio(rp.gzBytes, q)
	enc, _ := spanTotal(spans, spWireEncode)
	dec, _ := spanTotal(spans, spWireDecode)
	m["cluster.wire_encode_ms_per_query"] = ratio(float64(enc)/1e6, q)
	m["cluster.wire_decode_ms_per_query"] = ratio(float64(dec)/1e6, q)
	m["cluster.router_self_ms_per_query"] = ratio(float64(routerNS-rp.slowestLeg)/1e6, q)
	return nil
}
