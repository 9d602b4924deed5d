package query_test

import (
	"math"
	"reflect"
	"testing"

	"pnn/internal/geo"
	"pnn/internal/inference"
	"pnn/internal/query"
	"pnn/internal/shard"
	"pnn/internal/uncertain"
)

func TestEngineMatchesExact(t *testing.T) {
	sp, objs := query.LineObjects(t,
		[]uncertain.Observation{{T: 0, State: 30}, {T: 6, State: 32}},
		[]uncertain.Observation{{T: 0, State: 34}, {T: 6, State: 30}},
		[]uncertain.Observation{{T: 0, State: 26}, {T: 6, State: 28}},
	)
	wos := query.WorldObjectsOf(t, objs)
	q := query.StateQuery(sp.Point(30))
	const ts, te = 1, 5

	exact, err := query.ExactNN(sp, wos, q, ts, te, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	var first []shard.GroupAnswer
	for _, shards := range shardCounts {
		snap := served(t, sp, objs, 25000, shards)
		spec := shard.GroupSpec{Q: q, Ts: ts, Te: te, K: 1, Seed: 3}
		ans, stats, err := snap.RunShared(spec, []shard.GroupItem{{Op: shard.OpForAll}, {Op: shard.OpExists}})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Candidates == 0 || stats.Influencers < stats.Candidates {
			t.Errorf("S=%d: implausible stats: %+v", shards, stats)
		}
		forall, exists := probs(ans[0].Results), probs(ans[1].Results)
		for oi := range objs {
			gotF, gotE := forall[oi], exists[oi]
			if math.Abs(gotF-exact.ForAll[oi]) > 0.02 {
				t.Errorf("S=%d object %d: MC P∀NN = %v, exact = %v", shards, oi, gotF, exact.ForAll[oi])
			}
			if math.Abs(gotE-exact.Exists[oi]) > 0.02 {
				t.Errorf("S=%d object %d: MC P∃NN = %v, exact = %v", shards, oi, gotE, exact.Exists[oi])
			}
			if gotF > gotE+1e-9 {
				t.Errorf("S=%d object %d: P∀NN (%v) exceeds P∃NN (%v)", shards, oi, gotF, gotE)
			}
		}
		if first == nil {
			first = ans
		} else if !reflect.DeepEqual(ans, first) {
			t.Errorf("S=%d answers %+v differ from S=%d %+v", shards, ans, shardCounts[0], first)
		}
	}
}

func TestEngineTauFilter(t *testing.T) {
	sp, objs := query.LineObjects(t,
		[]uncertain.Observation{{T: 0, State: 30}, {T: 6, State: 30}},
		[]uncertain.Observation{{T: 0, State: 34}, {T: 6, State: 34}},
	)
	snap := served(t, sp, objs, 2000, 1)
	spec := shard.GroupSpec{Q: query.StateQuery(sp.Point(30)), Ts: 1, Te: 5, K: 1, Seed: 1}
	ans, _ := mustAnswer(t, snap, spec, shard.OpForAll, 0.9)
	res := ans.Results
	// Object 0 hovers around state 30 and dominates; only it should pass
	// τ=0.9.
	if len(res) != 1 || res[0].ID != 0 {
		t.Fatalf("P∀NN τ=0.9 = %+v, want only object 0", res)
	}
	if res[0].Prob < 0.9 {
		t.Errorf("reported prob %v below τ", res[0].Prob)
	}
}

func TestEngineInvertedInterval(t *testing.T) {
	sp, objs := query.LineObjects(t,
		[]uncertain.Observation{{T: 0, State: 30}, {T: 6, State: 30}})
	snap := served(t, sp, objs, 100, 1)
	spec := shard.GroupSpec{Q: query.StateQuery(geo.Point{}), Ts: 5, Te: 1, K: 1, Seed: 1}
	if _, _, err := answer(snap, spec, shard.OpForAll, 0); err == nil {
		t.Error("expected error for inverted interval")
	}
	if _, _, err := answer(snap, spec, shard.OpCNN, 0.5); err == nil {
		t.Error("expected error for inverted interval")
	}
}

func TestEngineEmptyWindow(t *testing.T) {
	sp, objs := query.LineObjects(t,
		[]uncertain.Observation{{T: 0, State: 30}, {T: 6, State: 30}})
	snap := served(t, sp, objs, 100, 1)
	spec := shard.GroupSpec{Q: query.StateQuery(geo.Point{}), Ts: 50, Te: 55, K: 1, Seed: 1}
	ans, stats := mustAnswer(t, snap, spec, shard.OpForAll, 0)
	if len(ans.Results) != 0 || stats.Candidates != 0 {
		t.Errorf("no object alive: res=%v stats=%+v", ans.Results, stats)
	}
}

func TestEngineKNN(t *testing.T) {
	sp, objs := query.LineObjects(t,
		[]uncertain.Observation{{T: 0, State: 30}, {T: 6, State: 30}},
		[]uncertain.Observation{{T: 0, State: 33}, {T: 6, State: 33}},
		[]uncertain.Observation{{T: 0, State: 36}, {T: 6, State: 36}},
	)
	snap := served(t, sp, objs, 4000, 1)
	knn := func(k int, op shard.GroupOp) []shard.Result {
		t.Helper()
		spec := shard.GroupSpec{Q: query.StateQuery(sp.Point(30)), Ts: 1, Te: 5, K: k, Seed: 2}
		ans, _ := mustAnswer(t, snap, spec, op, 0)
		return ans.Results
	}
	// k = 3 = |D|: every object alive throughout is trivially a 3-NN.
	res := knn(3, shard.OpForAll)
	if len(res) != 3 {
		t.Fatalf("P∀3NN returned %d objects, want 3", len(res))
	}
	for _, r := range res {
		if math.Abs(r.Prob-1) > 1e-12 {
			t.Errorf("object %d: P∀3NN = %v, want 1", r.ID, r.Prob)
		}
	}
	// P∀2NN >= P∀1NN for the same object.
	p1 := probs(knn(1, shard.OpForAll))
	if len(p1) == 0 {
		t.Fatal("P∀1NN found no object")
	}
	rk := knn(2, shard.OpForAll)
	for _, r := range rk {
		if r.Prob < p1[r.ID]-0.03 {
			t.Errorf("object %d: P∀2NN (%v) < P∀1NN (%v)", r.ID, r.Prob, p1[r.ID])
		}
	}
	// P∃2NN dominates P∀2NN.
	pe := probs(knn(2, shard.OpExists))
	for _, r := range rk {
		if pe[r.ID] < r.Prob-0.03 {
			t.Errorf("object %d: P∃2NN (%v) < P∀2NN (%v)", r.ID, pe[r.ID], r.Prob)
		}
	}
}

// TestSamplerCacheWarmQueryNoRebuilds is the service-layer contract: the
// first query over a cold engine adapts every influencer's model, a
// repeat of the same query adapts none.
func TestSamplerCacheWarmQueryNoRebuilds(t *testing.T) {
	sp, objs := query.LineObjects(t,
		[]uncertain.Observation{{T: 0, State: 30}, {T: 8, State: 32}},
		[]uncertain.Observation{{T: 0, State: 34}, {T: 8, State: 30}},
		[]uncertain.Observation{{T: 0, State: 26}, {T: 8, State: 28}},
	)
	snap := served(t, sp, objs, 500, 1)
	eng := snap.Parts[0].Engine
	spec := shard.GroupSpec{Q: query.StateQuery(sp.Point(31)), Ts: 1, Te: 7, K: 1, Seed: 1}
	_, st1 := mustAnswer(t, snap, spec, shard.OpForAll, 0)
	if st1.SamplerBuilds != st1.Influencers || st1.SamplerBuilds == 0 {
		t.Errorf("cold query: SamplerBuilds = %d, want every influencer (%d)",
			st1.SamplerBuilds, st1.Influencers)
	}
	_, st2 := mustAnswer(t, snap, spec, shard.OpForAll, 0)
	if st2.SamplerBuilds != 0 {
		t.Errorf("warm query: SamplerBuilds = %d, want 0", st2.SamplerBuilds)
	}
	cs := eng.CacheStats()
	if cs.Builds != int64(st1.Influencers) {
		t.Errorf("CacheStats.Builds = %d, want %d", cs.Builds, st1.Influencers)
	}
	if cs.Hits < int64(st2.Influencers) {
		t.Errorf("CacheStats.Hits = %d, want >= %d", cs.Hits, st2.Influencers)
	}
	// PCNN rides the same cache.
	spec.Seed = 2
	_, st3 := mustAnswer(t, snap, spec, shard.OpCNN, 0.2)
	if st3.SamplerBuilds != 0 {
		t.Errorf("warm PCNN: SamplerBuilds = %d, want 0", st3.SamplerBuilds)
	}
}

// TestPrepareAllWarmsCache checks PrepareAll adapts everything (in
// parallel) and later queries run entirely from cache with identical
// results — whatever the parallelism, since every row draws from its
// own generator.
func TestPrepareAllWarmsCache(t *testing.T) {
	sp, objs := query.LineObjects(t,
		[]uncertain.Observation{{T: 0, State: 30}, {T: 8, State: 32}},
		[]uncertain.Observation{{T: 0, State: 34}, {T: 8, State: 30}},
		[]uncertain.Observation{{T: 0, State: 26}, {T: 8, State: 28}},
		[]uncertain.Observation{{T: 0, State: 40}, {T: 8, State: 44}},
	)
	spec := shard.GroupSpec{Q: query.StateQuery(sp.Point(31)), Ts: 1, Te: 7, K: 1, Seed: 9}
	cold, stCold := mustAnswer(t, served(t, sp, objs, 800, 1), spec, shard.OpForAll, 0)
	if stCold.SamplerBuilds == 0 {
		t.Fatal("cold query should have built samplers")
	}

	warmed, err := shard.New(sp, objs, 800, 1)
	if err != nil {
		t.Fatal(err)
	}
	warmed.SetParallelism(4)
	if err := warmed.PrepareAll(); err != nil {
		t.Fatal(err)
	}
	if cs := warmed.CacheStats(); cs.Builds != 4 {
		t.Errorf("PrepareAll Builds = %d, want 4", cs.Builds)
	}
	warm, stWarm := mustAnswer(t, warmed.Snapshot(), spec, shard.OpForAll, 0)
	if stWarm.SamplerBuilds != 0 {
		t.Errorf("post-PrepareAll query built %d samplers", stWarm.SamplerBuilds)
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Errorf("warm answer %+v diverged from cold %+v", warm, cold)
	}
}

func TestDominationProbMatchesEnumeration(t *testing.T) {
	sp, objs := query.LineObjects(t,
		[]uncertain.Observation{{T: 0, State: 30}, {T: 6, State: 34}},
		[]uncertain.Observation{{T: 0, State: 33}, {T: 6, State: 29}},
	)
	mo, err := inference.Adapt(objs[0])
	if err != nil {
		t.Fatal(err)
	}
	ma, err := inference.Adapt(objs[1])
	if err != nil {
		t.Fatal(err)
	}
	q := query.StateQuery(sp.Point(31))
	const ts, te = 1, 5
	got, err := query.DominationProb(sp, mo, ma, q, ts, te)
	if err != nil {
		t.Fatal(err)
	}
	// Enumerate: P(∀t: d(o) <= d(oa)).
	wos := query.WorldObjectsOf(t, objs)
	want := 0.0
	err = query.EnumerateWorlds(wos, 1<<22, func(paths []uncertain.Path, p float64) {
		for t := ts; t <= te; t++ {
			s0, _ := paths[0].At(t)
			s1, _ := paths[1].At(t)
			if sp.Point(s0).Dist(q.At(t)) > sp.Point(s1).Dist(q.At(t)) {
				return
			}
		}
		want += p
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("DominationProb = %v, enumeration = %v", got, want)
	}
	// With two objects, P∀NN(o) == P(o dominates oa).
	exact, err := query.ExactNN(sp, wos, q, ts, te, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-exact.ForAll[0]) > 1e-9 {
		t.Errorf("DominationProb (%v) != exact P∀NN (%v)", got, exact.ForAll[0])
	}
}

func TestDominationProbSpanErrors(t *testing.T) {
	sp, objs := query.LineObjects(t,
		[]uncertain.Observation{{T: 0, State: 30}, {T: 4, State: 32}},
		[]uncertain.Observation{{T: 2, State: 33}, {T: 8, State: 35}},
	)
	mo, _ := inference.Adapt(objs[0])
	ma, _ := inference.Adapt(objs[1])
	q := query.StateQuery(sp.Point(31))
	if _, err := query.DominationProb(sp, mo, ma, q, 0, 4); err == nil {
		t.Error("expected span error: second object starts at t=2")
	}
	if _, err := query.DominationProb(sp, ma, mo, q, 2, 6); err == nil {
		t.Error("expected span error: first object ends at t=4")
	}
}

func TestHoeffding(t *testing.T) {
	n := query.RequiredSamples(0.01, 0.05)
	if n < 10000 || n > 30000 {
		t.Errorf("RequiredSamples(0.01, 0.05) = %d, outside plausible range", n)
	}
	eps := query.ErrorBound(n, 0.05)
	if eps > 0.01+1e-9 {
		t.Errorf("round trip ErrorBound = %v > 0.01", eps)
	}
	if query.RequiredSamples(0, 0.5) != math.MaxInt32 {
		t.Error("eps=0 should demand unbounded samples")
	}
	if query.ErrorBound(0, 0.5) != 1 {
		t.Error("n=0 should return the trivial bound")
	}
	// More samples, tighter bound.
	if query.ErrorBound(10000, 0.05) >= query.ErrorBound(100, 0.05) {
		t.Error("error bound must shrink with n")
	}
}
