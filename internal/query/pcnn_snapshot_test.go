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

func TestCNNMatchesExact(t *testing.T) {
	sp, objs := query.LineObjects(t,
		[]uncertain.Observation{{T: 0, State: 30}, {T: 6, State: 32}},
		[]uncertain.Observation{{T: 0, State: 33}, {T: 6, State: 29}},
	)
	wos := query.WorldObjectsOf(t, objs)
	q := query.StateQuery(sp.Point(31))
	const ts, te = 1, 5
	const tau = 0.3
	var first []shard.IntervalResult
	for i, shards := range shardCounts {
		ans, stats := mustAnswer(t, served(t, sp, objs, 20000, shards),
			shard.GroupSpec{Q: q, Ts: ts, Te: te, K: 1, Seed: 5}, shard.OpCNN, tau)
		res := ans.Intervals
		if stats.Worlds != 20000 {
			t.Errorf("S=%d: stats.Worlds = %d", shards, stats.Worlds)
		}
		if len(res) == 0 {
			t.Fatalf("S=%d: expected at least one PCNN result", shards)
		}
		for _, r := range res {
			// Reported probability must be close to the exact probability
			// of the reported timestamp set, and at least tau.
			exact, err := query.ExactForAllProb(sp, wos, q, r.ID, r.Times, 1<<22)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(r.Prob-exact) > 0.02 {
				t.Errorf("S=%d object %d times %v: prob %v, exact %v", shards, r.ID, r.Times, r.Prob, exact)
			}
			if r.Prob < tau {
				t.Errorf("S=%d: result below tau: %+v", shards, r)
			}
			// Times must be sorted, unique, within the window.
			for i, tt := range r.Times {
				if tt < ts || tt > te {
					t.Errorf("time %d outside window", tt)
				}
				if i > 0 && r.Times[i] <= r.Times[i-1] {
					t.Errorf("times not strictly ascending: %v", r.Times)
				}
			}
		}
		// Maximality: no result of the same object may contain another.
		for i, a := range res {
			for j, b := range res {
				if i != j && a.ID == b.ID && len(a.Times) < len(b.Times) && isSubset(a.Times, b.Times) {
					t.Errorf("non-maximal result %v contained in %v", a.Times, b.Times)
				}
			}
		}
		if i == 0 {
			first = res
		} else if !reflect.DeepEqual(res, first) {
			t.Errorf("S=%d intervals %+v differ from S=%d %+v", shards, res, shardCounts[0], first)
		}
	}
}

// isSubset reports whether ascending a is a subset of ascending b.
func isSubset(a, b []int) bool {
	i := 0
	for _, v := range b {
		if i < len(a) && a[i] == v {
			i++
		}
	}
	return i == len(a)
}

func TestCNNTauValidation(t *testing.T) {
	sp, objs := query.LineObjects(t,
		[]uncertain.Observation{{T: 0, State: 30}, {T: 6, State: 30}})
	spec := shard.GroupSpec{Q: query.StateQuery(geo.Point{}), Ts: 1, Te: 5, K: 1, Seed: 1}
	if _, _, err := answer(served(t, sp, objs, 100, 1), spec, shard.OpCNN, 0); err == nil {
		t.Error("expected error for tau=0")
	}
}

func TestCNNHighTauPinnedObject(t *testing.T) {
	// Object 0 sits exactly on q the whole time; with τ=0.95 it must
	// qualify with the complete window as a single maximal set.
	sp, objs := query.LineObjects(t,
		[]uncertain.Observation{{T: 0, State: 30}, {T: 1, State: 30}, {T: 2, State: 30},
			{T: 3, State: 30}, {T: 4, State: 30}, {T: 5, State: 30}, {T: 6, State: 30}},
		[]uncertain.Observation{{T: 0, State: 40}, {T: 6, State: 40}},
	)
	spec := shard.GroupSpec{Q: query.StateQuery(sp.Point(30)), Ts: 1, Te: 5, K: 1, Seed: 8}
	ans, _ := mustAnswer(t, served(t, sp, objs, 3000, 1), spec, shard.OpCNN, 0.95)
	res := ans.Intervals
	if len(res) != 1 {
		t.Fatalf("results = %+v, want exactly one", res)
	}
	if res[0].ID != 0 || len(res[0].Times) != 5 {
		t.Errorf("result = %+v, want object 0 with all 5 timestamps", res[0])
	}
}

func TestSnapshotExactAtSingleTimestep(t *testing.T) {
	// For |T| = 1 the snapshot estimator is exact: no temporal
	// correlation exists to ignore.
	sp, dbObjs := query.LineObjects(t,
		[]uncertain.Observation{{T: 0, State: 30}, {T: 6, State: 32}},
		[]uncertain.Observation{{T: 0, State: 33}, {T: 6, State: 29}},
	)
	var models []*inference.Model
	for _, o := range dbObjs {
		m, err := inference.Adapt(o)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	q := query.StateQuery(sp.Point(31))
	ss := query.NewSnapshotEstimator(sp, models)
	objs := query.WorldObjectsOf(t, dbObjs)
	for _, tt := range []int{1, 3, 5} {
		got := ss.ForAllNN(q, tt, tt)
		exact, err := query.ExactNN(sp, objs, q, tt, tt, 1<<22)
		if err != nil {
			t.Fatal(err)
		}
		for oi := range objs {
			if math.Abs(got[oi]-exact.ForAll[oi]) > 1e-9 {
				t.Errorf("t=%d object %d: SS %v, exact %v", tt, oi, got[oi], exact.ForAll[oi])
			}
		}
		ge := ss.ExistsNN(q, tt, tt)
		for oi := range objs {
			if math.Abs(ge[oi]-exact.Exists[oi]) > 1e-9 {
				t.Errorf("∃ t=%d object %d: SS %v, exact %v", tt, oi, ge[oi], exact.Exists[oi])
			}
		}
	}
}

func TestSnapshotDeadObjects(t *testing.T) {
	sp, dbObjs := query.LineObjects(t,
		[]uncertain.Observation{{T: 0, State: 30}, {T: 4, State: 32}},
		[]uncertain.Observation{{T: 6, State: 31}, {T: 10, State: 31}},
	)
	var models []*inference.Model
	for _, o := range dbObjs {
		m, err := inference.Adapt(o)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	ss := query.NewSnapshotEstimator(sp, models)
	q := query.StateQuery(sp.Point(31))
	// Window [1,3]: object 1 is dead, so object 0 is certain NN.
	fa := ss.ForAllNN(q, 1, 3)
	if math.Abs(fa[0]-1) > 1e-9 {
		t.Errorf("P∀NN(alive only) = %v, want 1", fa[0])
	}
	if fa[1] != 0 {
		t.Errorf("dead object P∀NN = %v, want 0", fa[1])
	}
	// Window spanning both lifetimes partially: neither covers it fully.
	fa = ss.ForAllNN(q, 3, 7)
	if fa[0] != 0 || fa[1] != 0 {
		t.Errorf("partial coverage must zero ∀ estimates: %v", fa)
	}
}
