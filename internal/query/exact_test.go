package query_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"pnn/internal/inference"
	"pnn/internal/query"
	"pnn/internal/shard"
	"pnn/internal/uncertain"
)

// TestExactNNMatchesMonteCarlo is the golden cross-check of the exact
// path: possible-world enumeration and the served Monte-Carlo path
// answer the same P∀NN/P∃NN probabilities on a small model, within
// Hoeffding tolerance of the sample budget, at every shard count —
// where the answers must also be byte-identical.
func TestExactNNMatchesMonteCarlo(t *testing.T) {
	const samples = 20000
	sp, objs := query.LineObjects(t,
		[]uncertain.Observation{{T: 0, State: 30}, {T: 5, State: 33}},
		[]uncertain.Observation{{T: 0, State: 35}, {T: 5, State: 31}},
		[]uncertain.Observation{{T: 0, State: 25}, {T: 5, State: 27}},
	)
	wos := query.WorldObjectsOf(t, objs)
	q := query.StateQuery(sp.Point(31))
	const ts, te = 1, 4

	exact, err := query.ExactNN(sp, wos, q, ts, te, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	eps := query.ErrorBound(samples, 0.001)
	check := func(shards int, sem string, res []shard.Result, truth []float64) {
		t.Helper()
		got := probs(res)
		for oi, want := range truth {
			if d := math.Abs(got[oi] - want); d > eps {
				t.Errorf("S=%d %s object %d: exact %.5f vs MC %.5f (Δ=%.5f > ε=%.5f)", shards, sem, oi, want, got[oi], d, eps)
			}
		}
	}
	var first [2][]shard.Result
	for i, shards := range shardCounts {
		snap := served(t, sp, objs, samples, shards)
		fa, _ := mustAnswer(t, snap, shard.GroupSpec{Q: q, Ts: ts, Te: te, K: 1, Seed: 17}, shard.OpForAll, 0)
		ex, _ := mustAnswer(t, snap, shard.GroupSpec{Q: q, Ts: ts, Te: te, K: 1, Seed: 18}, shard.OpExists, 0)
		check(shards, "forall", fa.Results, exact.ForAll)
		check(shards, "exists", ex.Results, exact.Exists)
		got := [2][]shard.Result{fa.Results, ex.Results}
		if i == 0 {
			first = got
		} else if !reflect.DeepEqual(got, first) {
			t.Errorf("S=%d answers %+v differ from S=%d %+v", shards, got, shardCounts[0], first)
		}
	}
}

// TestExactForAllProbCrossChecks validates ExactForAllProb three ways:
// against ExactNN on the full window, against the ∀==∃ degeneracy on
// singleton time sets, and against the served Monte-Carlo PCNN path on
// the interval results it reports, at every shard count.
func TestExactForAllProbCrossChecks(t *testing.T) {
	const samples = 20000
	sp, objs := query.LineObjects(t,
		[]uncertain.Observation{{T: 0, State: 30}, {T: 4, State: 32}},
		[]uncertain.Observation{{T: 0, State: 34}, {T: 4, State: 30}},
	)
	wos := query.WorldObjectsOf(t, objs)
	q := query.StateQuery(sp.Point(31))
	const ts, te = 1, 3

	exact, err := query.ExactNN(sp, wos, q, ts, te, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	full := []int{1, 2, 3}
	for oi := range wos {
		p, err := query.ExactForAllProb(sp, wos, q, oi, full, 1<<22)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p-exact.ForAll[oi]) > 1e-12 {
			t.Errorf("object %d: ExactForAllProb(full window) = %v, ExactNN.ForAll = %v", oi, p, exact.ForAll[oi])
		}
		// On a singleton set, "NN at every t in {2}" and "NN at some t
		// in [2,2]" are the same event.
		p2, err := query.ExactForAllProb(sp, wos, q, oi, []int{2}, 1<<22)
		if err != nil {
			t.Fatal(err)
		}
		single, err2 := query.ExactNN(sp, wos, q, 2, 2, 1<<22)
		if err2 != nil {
			t.Fatal(err2)
		}
		if math.Abs(p2-single.Exists[oi]) > 1e-12 {
			t.Errorf("object %d: singleton forall %v != singleton exists %v", oi, p2, single.Exists[oi])
		}
	}

	// PCNN cross-check: every interval the Monte-Carlo lattice walk
	// reports carries a probability within tolerance of the exact
	// probability of that same timestamp set.
	eps := query.ErrorBound(samples, 0.001)
	var first []shard.IntervalResult
	for i, shards := range shardCounts {
		ans, _ := mustAnswer(t, served(t, sp, objs, samples, shards),
			shard.GroupSpec{Q: q, Ts: ts, Te: te, K: 1, Seed: 23}, shard.OpCNN, 0.2)
		ivs := ans.Intervals
		if len(ivs) == 0 {
			t.Fatalf("S=%d: PCNN returned no intervals on the fixture", shards)
		}
		for _, iv := range ivs {
			want, err := query.ExactForAllProb(sp, wos, q, iv.ID, iv.Times, 1<<22)
			if err != nil {
				t.Fatal(err)
			}
			if d := math.Abs(iv.Prob - want); d > eps {
				t.Errorf("S=%d object %d times %v: MC %.5f vs exact %.5f (Δ=%.5f > ε=%.5f)", shards, iv.ID, iv.Times, iv.Prob, want, d, eps)
			}
		}
		if i == 0 {
			first = ivs
		} else if !reflect.DeepEqual(ivs, first) {
			t.Errorf("S=%d intervals %+v differ from S=%d %+v", shards, ivs, shardCounts[0], first)
		}
	}
}

// TestExactErrorPaths covers the explicit failure modes of the exact
// engines: enumeration caps, degenerate world objects, and models not
// covering the query window.
func TestExactErrorPaths(t *testing.T) {
	sp, objs := query.LineObjects(t,
		[]uncertain.Observation{{T: 0, State: 30}, {T: 6, State: 32}},
		[]uncertain.Observation{{T: 0, State: 34}, {T: 6, State: 30}},
	)

	// query.PathsOfModel: cap smaller than the trajectory count.
	m0, err := inference.Adapt(objs[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := query.PathsOfModel(m0, 1); err == nil || !strings.Contains(err.Error(), "possible trajectories") {
		t.Errorf("query.PathsOfModel with maxPaths=1: err = %v, want trajectory-cap error", err)
	}

	// query.EnumerateWorlds: cap smaller than the cross product.
	wos := query.WorldObjectsOf(t, objs)
	if err := query.EnumerateWorlds(wos, 1, func([]uncertain.Path, float64) {}); err == nil ||
		!strings.Contains(err.Error(), "possible worlds") {
		t.Errorf("query.EnumerateWorlds with maxWorlds=1: err = %v, want world-cap error", err)
	}
	// query.EnumerateWorlds: an object with no trajectories is malformed.
	if err := query.EnumerateWorlds([]query.WorldObject{{}}, 100, func([]uncertain.Path, float64) {}); err == nil ||
		!strings.Contains(err.Error(), "no trajectories") {
		t.Errorf("query.EnumerateWorlds with empty object: err = %v, want no-trajectories error", err)
	}
	// query.ExactNN and query.ExactForAllProb propagate the enumeration failure.
	q := query.StateQuery(sp.Point(31))
	if _, err := query.ExactNN(sp, wos, q, 1, 5, 1); err == nil {
		t.Error("query.ExactNN should propagate the world-cap error")
	}
	if _, err := query.ExactForAllProb(sp, wos, q, 0, []int{1}, 1); err == nil {
		t.Error("query.ExactForAllProb should propagate the world-cap error")
	}

	// query.DominationProb: window not covered by either model.
	m1, err := inference.Adapt(objs[1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := query.DominationProb(sp, m0, m1, q, 4, 9); err == nil || !strings.Contains(err.Error(), "does not cover") {
		t.Errorf("query.DominationProb beyond lifetime: err = %v, want coverage error", err)
	}
	if _, err := query.DominationProb(sp, m1, m0, q, -3, 5); err == nil || !strings.Contains(err.Error(), "does not cover") {
		t.Errorf("query.DominationProb before lifetime: err = %v, want coverage error", err)
	}

	// Golden in-range check: the Lemma 2 joint-chain recursion equals
	// brute-force enumeration of P(∀t: d(o) <= d(a)) over the two
	// objects' trajectory cross product.
	pOA, err := query.DominationProb(sp, m0, m1, q, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	err = query.EnumerateWorlds(wos, 1<<22, func(paths []uncertain.Path, p float64) {
		for t := 1; t <= 5; t++ {
			s0, ok0 := paths[0].At(t)
			s1, ok1 := paths[1].At(t)
			if !ok0 || !ok1 {
				return
			}
			qp := q.At(t)
			if sp.Point(s0).Dist(qp) > sp.Point(s1).Dist(qp) {
				return
			}
		}
		want += p
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pOA-want) > 1e-9 {
		t.Errorf("query.DominationProb = %v, enumeration says %v", pOA, want)
	}
}
