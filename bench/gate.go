package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"regexp"

	"pnn"
	"pnn/internal/inference"
	"pnn/internal/query"
	"pnn/internal/server"
	"pnn/internal/uncertain"
	"pnn/internal/ustree"
)

// probeAnswer is one probe's served body in the two forms the gates
// compare: raw, and with the partition-dependent fields removed.
type probeAnswer struct {
	raw        []byte
	normalized []byte
}

// normalizeAnswer strips what legitimately differs between a
// single-process server and a router over peers — the pruning
// diagnostics (ring arcs and shard hashes partition objects
// differently) and the shape of the version vector — exactly as
// cmd/pnnserve/cluster_e2e_test.go does, keeping results, the sampling
// block, stats.worlds and version.max.
func normalizeAnswer(raw []byte) ([]byte, error) {
	var qr server.QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		return nil, fmt.Errorf("answer undecodable: %v (%s)", err, bytes.TrimSpace(raw))
	}
	qr.Stats = server.StatsJSON{Worlds: qr.Stats.Worlds}
	qr.Version.Vector = nil
	return json.Marshal(qr)
}

// runProbes answers every probe once, sequentially.
func runProbes(ctx context.Context, hc *http.Client, base string, probes []queryItem) ([]probeAnswer, error) {
	out := make([]probeAnswer, len(probes))
	for i, q := range probes {
		status, raw, err := post(ctx, hc, base+q.kind().path(), mustJSON(q.spec()))
		if err != nil {
			return nil, fmt.Errorf("probe %d: %w", i, err)
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("probe %d: HTTP %d: %s", i, status, bytes.TrimSpace(raw))
		}
		norm, err := normalizeAnswer(raw)
		if err != nil {
			return nil, fmt.Errorf("probe %d: %w", i, err)
		}
		out[i] = probeAnswer{raw: raw, normalized: norm}
	}
	return out, nil
}

func fingerprint(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// goldenFile is bench/golden/<workload>.seed1.json: the fingerprints of
// the probes' answers on the seed commit, before the measured window.
type goldenFile struct {
	Workload string        `json:"workload"`
	Probes   []goldenProbe `json:"probes"`
}

type goldenProbe struct {
	Path       string `json:"path"`
	Body       string `json:"body"`
	SHA256     string `json:"sha256"`
	Normalized string `json:"normalized_sha256"`
}

func goldenPath(root, workload string) string {
	return filepath.Join(root, "bench", "golden", workload+".seed1.json")
}

func goldenOf(workload string, probes []queryItem, answers []probeAnswer) goldenFile {
	g := goldenFile{Workload: workload}
	for i, q := range probes {
		g.Probes = append(g.Probes, goldenProbe{
			Path: q.kind().path(), Body: string(mustJSON(q.spec())),
			SHA256: fingerprint(answers[i].raw), Normalized: fingerprint(answers[i].normalized),
		})
	}
	return g
}

func readGolden(path string) (goldenFile, error) {
	var g goldenFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return g, err
	}
	if err := json.Unmarshal(raw, &g); err != nil {
		return g, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

func writeGolden(path string, g goldenFile) error {
	raw, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// checkGolden is gates (a) and (b): the served probes equal the
// committed fingerprints, and on cluster_router their normalized form
// equals query_warm's — a router over peers answers what a single
// process answers.
func checkGolden(root, workload string, probes []queryItem, answers []probeAnswer) []string {
	var fails []string
	got := goldenOf(workload, probes, answers)
	want, err := readGolden(goldenPath(root, workload))
	if err != nil {
		return []string{fmt.Sprintf("golden fingerprints: %v", err)}
	}
	if len(want.Probes) != len(got.Probes) {
		return []string{fmt.Sprintf("golden %s has %d probes, the run answered %d", workload, len(want.Probes), len(got.Probes))}
	}
	for i := range got.Probes {
		if got.Probes[i] != want.Probes[i] {
			fails = append(fails, fmt.Sprintf("probe %d (%s %s) differs from its golden fingerprint", i, got.Probes[i].Path, got.Probes[i].Body))
		}
	}
	if workload != wlCluster {
		return fails
	}
	ref, err := readGolden(goldenPath(root, wlQueryWarm))
	if err != nil {
		return append(fails, fmt.Sprintf("golden fingerprints: %v", err))
	}
	for i := range got.Probes {
		if i >= len(ref.Probes) || got.Probes[i].Normalized != ref.Probes[i].Normalized {
			fails = append(fails, fmt.Sprintf("router probe %d differs from the single-process answer after normalisation", i))
		}
	}
	return fails
}

// sameAnswers reports the probes whose bytes changed between two
// passes.
func sameAnswers(what string, a, b []probeAnswer) []string {
	var fails []string
	for i := range a {
		if !bytes.Equal(a[i].raw, b[i].raw) {
			fails = append(fails, fmt.Sprintf("probe %d answered differently %s:\n  %s\n  %s", i, what, bytes.TrimSpace(a[i].raw), bytes.TrimSpace(b[i].raw)))
		}
	}
	return fails
}

// Exact-enumeration gate (e).
const (
	exactProbes    = 8
	exactTime      = 150     // every exact probe asks about this one tic
	exactMaxWorlds = 2000000 // cap on the enumerated cross product
)

// exactGate checks exactProbes single-timestamp k=1 answers against
// exact possible-world enumeration. At one timestamp an object's
// position distribution is its posterior marginal (inference.Adapt), so
// each influencer becomes a query.WorldObject of one-tic trajectories
// and query.ExactNN enumerates their cross product — the
// quantification probability of Agarwal et al., independent of the
// sampler. Influencers come from the UST-tree over the objects alive at
// that tic, which prunes losslessly. Every served probability, and the
// implied zero of every influencer the server left out, must lie within
// the answer's own error_bound.
func exactGate(ctx context.Context, hc *http.Client, base string, d *dataset) []string {
	sp := d.ds.Space
	var alive []*uncertain.Object
	for _, o := range d.ds.Objects {
		if o.Alive(exactTime) {
			alive = append(alive, o)
		}
	}
	tree, err := ustree.Build(sp, alive, nil)
	if err != nil {
		return []string{fmt.Sprintf("exact gate: indexing: %v", err)}
	}
	models := make(map[int]*inference.Model)
	rng := rand.New(rand.NewSource(probeSeed))
	var fails []string
	checked := 0
	for tries := 0; checked < exactProbes && tries < 2000; tries++ {
		state := rng.Intn(dsStates)
		seed := rng.Int63()
		q := query.StateQuery(sp.Point(state))
		infl := tree.PruneK(q.At, exactTime, exactTime, 1).Influencers
		if len(infl) < 2 {
			continue // a single influencer is the NN with certainty: nothing to estimate
		}
		objs := make([]query.WorldObject, len(infl))
		worlds := 1
		for i, oi := range infl {
			m := models[oi]
			if m == nil {
				if m, err = inference.Adapt(alive[oi]); err != nil {
					return append(fails, fmt.Sprintf("exact gate: adapting object %d: %v", alive[oi].ID, err))
				}
				models[oi] = m
			}
			for _, e := range m.Posterior(exactTime).Entries() {
				objs[i].Paths = append(objs[i].Paths, uncertain.Path{Start: exactTime, States: []int32{int32(e.Idx)}})
				objs[i].Probs = append(objs[i].Probs, e.Val)
			}
			if worlds *= len(objs[i].Paths); worlds > exactMaxWorlds {
				break
			}
		}
		if worlds > exactMaxWorlds {
			continue
		}
		exact, err := query.ExactNN(sp, objs, q, exactTime, exactTime, exactMaxWorlds)
		if err != nil {
			return append(fails, fmt.Sprintf("exact gate: enumerating: %v", err))
		}
		item := queryItem{Sem: pnn.Exists, State: state, Ts: exactTime, Te: exactTime, Seed: seed}
		status, raw, err := post(ctx, hc, base+item.kind().path(), mustJSON(item.spec()))
		if err != nil || status != http.StatusOK {
			return append(fails, fmt.Sprintf("exact gate: probe at state %d: HTTP %d %v %s", state, status, err, bytes.TrimSpace(raw)))
		}
		var qr server.QueryResponse
		if err := json.Unmarshal(raw, &qr); err != nil {
			return append(fails, fmt.Sprintf("exact gate: probe at state %d: %v", state, err))
		}
		served := make(map[int]float64)
		for _, r := range qr.Results {
			served[r.ObjectID] = r.Prob
		}
		eps := qr.Sampling.ErrorBound
		for i, oi := range infl {
			id := alive[oi].ID
			if diff := math.Abs(served[id] - exact.Exists[i]); diff > eps {
				fails = append(fails, fmt.Sprintf("exact gate: state %d object %d: served %.4f, exact %.4f, error bound %.4f", state, id, served[id], exact.Exists[i], eps))
			}
			delete(served, id)
		}
		for id, p := range served {
			// The server's per-shard pruning keeps a superset of the
			// influencers; whatever it adds has exact probability 0.
			if p > eps {
				fails = append(fails, fmt.Sprintf("exact gate: state %d object %d: served %.4f for an object exact pruning excludes", state, id, p))
			}
		}
		checked++
	}
	if checked < exactProbes {
		fails = append(fails, fmt.Sprintf("exact gate: only %d of %d probes could be enumerated", checked, exactProbes))
	}
	return fails
}

var samplerBuilds = regexp.MustCompile(`"sampler_builds":\d+`)

// witnessMatchesOneShot is gate (d): the witness's last answer event is
// byte-identical to a one-shot query at the same version and seed. The
// one field allowed to differ is stats.sampler_builds, which counts the
// cache warm-up the event's evaluation paid and the later one-shot does
// not.
func witnessMatchesOneShot(ctx context.Context, hc *http.Client, base string, spec server.SubscriptionSpec, last witnessEvent) []string {
	status, raw, err := post(ctx, hc, base+"/v1/existsnn", mustJSON(spec.QuerySpec))
	if err != nil || status != http.StatusOK {
		return []string{fmt.Sprintf("witness one-shot: HTTP %d %v", status, err)}
	}
	var shot server.QueryResponse
	if err := json.Unmarshal(raw, &shot); err != nil {
		return []string{fmt.Sprintf("witness one-shot undecodable: %v", err)}
	}
	if shot.Version.Max != last.Version {
		return []string{fmt.Sprintf("witness's last event is at version %d, the server at %d", last.Version, shot.Version.Max)}
	}
	a := samplerBuilds.ReplaceAll(bytes.TrimSpace(raw), []byte(`"sampler_builds":0`))
	b := samplerBuilds.ReplaceAll(bytes.TrimSpace(last.Response), []byte(`"sampler_builds":0`))
	if !bytes.Equal(a, b) {
		return []string{fmt.Sprintf("witness's last event differs from the one-shot at version %d:\n  %s\n  %s", last.Version, b, a)}
	}
	return nil
}
