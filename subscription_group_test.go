package pnn

import (
	"encoding/json"
	"testing"
	"time"
)

// TestSubscriptionGroupMatchesOneShot extends the subscription
// determinism contract to the grouped fanout path: compatible standing
// queries — same shape and seed, conf-disabled queries differing only
// in tau, and identical confidence-adaptive queries — are re-evaluated
// as ONE shared-world group per sweep, and every delivered event is
// still byte-identical (answers AND samples_drawn) to a fresh one-shot
// at the same version, seed and world floor, whatever the shard and
// worker counts.
func TestSubscriptionGroupMatchesOneShot(t *testing.T) {
	net, db, err := SyntheticDataset(500, 8, 60, 80, 100, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	qs := RandomQueryState(net, 3)
	q := AtState(net, qs)
	conf := Confidence{Eps: 0.02, MaxSamples: 8000}
	// Three compatibility groups: exists/tau-mix and forall/tau-mix
	// (conf disabled, so tau stays out of the key), plus four identical
	// confidence-adaptive members (conf stratifies the key by op+tau).
	cases := []Request{
		{Semantics: Exists, Query: q, Ts: 40, Te: 47, Tau: 0.1, Seed: 7},
		{Semantics: Exists, Query: q, Ts: 40, Te: 47, Tau: 0.3, Seed: 7},
		{Semantics: Exists, Query: q, Ts: 40, Te: 47, Tau: 0.5, Seed: 7},
		{Semantics: Exists, Query: q, Ts: 40, Te: 47, Tau: 0.7, Seed: 7},
		{Semantics: ForAll, Query: q, Ts: 40, Te: 47, Tau: 0.2, Seed: 7},
		{Semantics: ForAll, Query: q, Ts: 40, Te: 47, Tau: 0.4, Seed: 7},
		{Semantics: Exists, Query: q, Ts: 40, Te: 47, Tau: 0.3, Seed: 5, Confidence: conf},
		{Semantics: Exists, Query: q, Ts: 40, Te: 47, Tau: 0.3, Seed: 5, Confidence: conf},
		{Semantics: Exists, Query: q, Ts: 40, Te: 47, Tau: 0.3, Seed: 5, Confidence: conf},
		{Semantics: Exists, Query: q, Ts: 40, Te: 47, Tau: 0.3, Seed: 5, Confidence: conf},
	}
	nextID := 20000
	for _, shards := range []int{1, 2, 4} {
		for _, workers := range []int{1, 4} {
			proc, err := db.BuildSharded(2000, shards)
			if err != nil {
				t.Fatal(err)
			}
			proc.SetParallelism(workers)
			subs := make([]*Subscription, len(cases))
			for i, req := range cases {
				if subs[i], err = proc.Subscribe(req, Delivery{QueueCap: 64}); err != nil {
					t.Fatal(err)
				}
			}
			check := func(stage string, wantGrouped bool) {
				t.Helper()
				for i, s := range subs {
					e := drainLatest(t, s)
					got := e.Payload.(Response)
					if got.Err != nil {
						t.Fatalf("shards=%d workers=%d %s case %d: %v", shards, workers, stage, i, got.Err)
					}
					if wantGrouped && got.Stats.GroupSize < 2 {
						t.Errorf("shards=%d workers=%d %s case %d: group size %d, want >= 2 (compatible members must share one pass)",
							shards, workers, stage, i, got.Stats.GroupSize)
					}
					oneShot := cases[i]
					oneShot.MinWorlds = got.Stats.WorldFloor
					want := proc.Run(oneShot)
					if want.Err != nil {
						t.Fatalf("%s case %d one-shot: %v", stage, i, want.Err)
					}
					gb, _ := json.Marshal(struct {
						R []Result
						I []IntervalResult
					}{got.Results, got.Intervals})
					wb, _ := json.Marshal(struct {
						R []Result
						I []IntervalResult
					}{want.Results, want.Intervals})
					if string(gb) != string(wb) {
						t.Errorf("shards=%d workers=%d %s case %d answers diverged:\nevent    %s\none-shot %s",
							shards, workers, stage, i, gb, wb)
					}
					// Sampling stats are per-member exact for adaptive
					// members (the key stratifies by op+tau, so the
					// shared stop point is the solo stop point) and for
					// any member whose solo run samples at all. The one
					// exception mirrors batch shared-world semantics: a
					// degenerate member (zero candidates, conf off)
					// alone skips sampling, but grouped it reports the
					// group's shared draw.
					if cases[i].Confidence.Enabled() || want.Stats.Worlds > 0 {
						if got.Stats.Worlds != want.Stats.Worlds ||
							got.Stats.ErrorBound != want.Stats.ErrorBound ||
							got.Stats.EarlyStopped != want.Stats.EarlyStopped {
							t.Errorf("shards=%d workers=%d %s case %d sampling diverged: event %+v, one-shot %+v",
								shards, workers, stage, i, got.Stats, want.Stats)
						}
					}
				}
			}
			// Initial evaluations run per-subscription at registration:
			// no grouping yet, but the bytes must already match.
			check("initial", false)

			base := proc.SubscriptionStats()
			id := nextID
			nextID++
			if _, err := proc.AddObject(id, []Observation{{T: 42, State: qs}}); err != nil {
				t.Fatal(err)
			}
			if !proc.WaitSubscriptionsIdle(10 * time.Second) {
				t.Fatal("subscriptions did not quiesce after AddObject")
			}
			check("after-add", true)

			if _, err := proc.Observe(id, Observation{T: 43, State: qs}); err != nil {
				t.Fatal(err)
			}
			if !proc.WaitSubscriptionsIdle(10 * time.Second) {
				t.Fatal("subscriptions did not quiesce after Observe")
			}
			check("after-observe", true)

			st := proc.SubscriptionStats()
			if st.Sweeps <= base.Sweeps {
				t.Errorf("shards=%d workers=%d: no sweeps drained (%d -> %d)", shards, workers, base.Sweeps, st.Sweeps)
			}
			if st.Groups <= base.Groups {
				t.Errorf("shards=%d workers=%d: no grouped passes ran (%d -> %d)", shards, workers, base.Groups, st.Groups)
			}
			// 10 subscriptions over 3 compatibility groups: each sweep
			// runs 3 passes, not 10 evaluations.
			if evals, affected := st.Evaluations-base.Evaluations, st.Affected-base.Affected; evals*3 > affected {
				t.Errorf("shards=%d workers=%d: %d evaluation passes for %d affected subscriptions; grouping saved less than 3x",
					shards, workers, evals, affected)
			}
			proc.CloseSubscriptions()
		}
	}
}

// TestSubscriptionGroupingReducesEvaluations is the fanout perf
// contract at the unit level: 200 standing queries over 10 shapes are
// 10 groups, so a write that touches all of them costs one touch test
// and one evaluation pass per group, while every member is affected.
func TestSubscriptionGroupingReducesEvaluations(t *testing.T) {
	net, db, err := SyntheticDataset(400, 8, 60, 60, 100, 5, 13)
	if err != nil {
		t.Fatal(err)
	}
	qs := RandomQueryState(net, 3)
	q := AtState(net, qs)
	proc, err := db.Build(500)
	if err != nil {
		t.Fatal(err)
	}
	const shapes, perShape = 10, 20
	for s := 0; s < shapes; s++ {
		for m := 0; m < perShape; m++ {
			req := Request{
				Semantics: Exists, Query: q, Ts: 40, Te: 47,
				Tau: 0.04 * float64(m+1), Seed: int64(s + 1),
			}
			if _, err := proc.Subscribe(req, Delivery{QueueCap: 2}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !proc.WaitSubscriptionsIdle(30 * time.Second) {
		t.Fatal("initial evaluations did not quiesce")
	}
	// A new object parked at the shared query state: no group indexes it,
	// and every group's region holds it.
	base := proc.SubscriptionStats()
	if _, err := proc.AddObject(30000, []Observation{{T: 42, State: qs}}); err != nil {
		t.Fatal(err)
	}
	if !proc.WaitSubscriptionsIdle(30 * time.Second) {
		t.Fatal("subscriptions did not quiesce")
	}
	st := proc.SubscriptionStats()
	if tests := st.TouchTests - base.TouchTests; tests != shapes {
		t.Errorf("write ran %d touch tests, want one per group (%d)", tests, shapes)
	}
	if affected := st.Affected - base.Affected; affected != shapes*perShape {
		t.Errorf("write affected %d subscriptions, want all %d", affected, shapes*perShape)
	}
	if evals := st.Evaluations - base.Evaluations; evals != shapes {
		t.Errorf("write cost %d evaluation passes, want one per touched group (%d)", evals, shapes)
	}
	proc.CloseSubscriptions()
}
