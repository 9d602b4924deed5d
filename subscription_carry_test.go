package pnn

import (
	"encoding/json"
	"testing"
	"time"
)

// TestStandingCarryMatchesOneShot pins the carried re-evaluation of
// standing groups: a write that leaves every sampled input of a group
// unchanged (an observation appended after the window) replays the
// group's previous answer without sampling, any write that changes an
// input (an observation inside the window, a member joining with a new
// tau) evaluates afresh — and either way every delivered event equals
// Run(req') at the event's version and world floor, for fixed-budget,
// adaptive and PCNN members alike.
func TestStandingCarryMatchesOneShot(t *testing.T) {
	net, db, err := SyntheticDataset(500, 8, 60, 80, 100, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	qs := RandomQueryState(net, 3)
	q := AtState(net, qs)
	conf := Confidence{Eps: 0.02, MaxSamples: 8000}
	// Three compatibility groups: fixed-budget members mixing tau and
	// semantics, two identical adaptive members, and a PCNN member
	// sharing worlds with an exists member over a shorter window.
	reqs := []Request{
		{Semantics: Exists, Query: q, Ts: 40, Te: 47, Tau: 0.1, Seed: 7},
		{Semantics: Exists, Query: q, Ts: 40, Te: 47, Tau: 0.5, Seed: 7},
		{Semantics: ForAll, Query: q, Ts: 40, Te: 47, Tau: 0.2, Seed: 7},
		{Semantics: Exists, Query: q, Ts: 40, Te: 47, Tau: 0.3, Seed: 5, Confidence: conf},
		{Semantics: Exists, Query: q, Ts: 40, Te: 47, Tau: 0.3, Seed: 5, Confidence: conf},
		{Semantics: Continuous, Query: q, Ts: 40, Te: 44, Tau: 0.3, Seed: 9},
		{Semantics: Exists, Query: q, Ts: 40, Te: 44, Tau: 0.2, Seed: 9},
	}
	const groups = 3
	var results, intervals bool // guards against a vacuous comparison
	for _, shards := range []int{1, 2} {
		proc, err := db.BuildSharded(2000, shards)
		if err != nil {
			t.Fatal(err)
		}
		// Two movers parked at the query state: after is observed on both
		// sides of every window, inside's last observation falls in them.
		const after, inside = 20000, 20001
		if _, err := proc.AddObject(after, []Observation{{T: 38, State: qs}, {T: 50, State: qs}}); err != nil {
			t.Fatal(err)
		}
		if _, err := proc.AddObject(inside, []Observation{{T: 38, State: qs}, {T: 43, State: qs}}); err != nil {
			t.Fatal(err)
		}
		var subs []*Subscription
		var subReqs []Request
		subscribe := func(req Request) {
			t.Helper()
			s, err := proc.Subscribe(req, Delivery{QueueCap: 64})
			if err != nil {
				t.Fatal(err)
			}
			subs = append(subs, s)
			subReqs = append(subReqs, req)
		}
		for _, req := range reqs {
			subscribe(req)
		}
		// check drains every queued event and compares it with the
		// one-shot at the current version — the only version events can
		// carry once the registry is idle after a single write.
		check := func(stage string) {
			t.Helper()
			for i, s := range subs {
				for drained := false; !drained; {
					select {
					case e := <-s.Events():
						if e.Bye {
							t.Fatalf("shards=%d %s sub %d: unexpected bye", shards, stage, i)
						}
						if e.Version != proc.Version() {
							t.Fatalf("shards=%d %s sub %d: event at version %d, processor at %d", shards, stage, i, e.Version, proc.Version())
						}
						resp := e.Payload.(Response)
						compareOneShot(t, proc, subReqs[i], resp, stage, shards, i)
						results = results || len(resp.Results) > 0
						intervals = intervals || len(resp.Intervals) > 0
					default:
						drained = true
					}
				}
			}
		}
		write := func(stage string, id int, ob Observation) (evals, carried int64) {
			t.Helper()
			base := proc.SubscriptionStats()
			if _, err := proc.Observe(id, ob); err != nil {
				t.Fatal(err)
			}
			if !proc.WaitSubscriptionsIdle(10 * time.Second) {
				t.Fatalf("%s: subscriptions did not quiesce", stage)
			}
			check(stage)
			st := proc.SubscriptionStats()
			return st.Evaluations - base.Evaluations, st.Carried - base.Carried
		}
		check("initial")

		// The first grouped pass meets a carry from a single-member
		// registration pass (and, for the adaptive group, a lower world
		// floor): nothing is replayed yet.
		write("warm", after, Observation{T: 55, State: qs})
		if evals, carried := write("after-window", after, Observation{T: 60, State: qs}); evals != groups || carried != groups {
			t.Errorf("shards=%d after-window write: %d passes, %d carried; want %d of %d", shards, evals, carried, groups, groups)
		}
		// Inside the window: a late observation that keeps the lifetime
		// clip, then one that extends it.
		for _, w := range []struct {
			stage string
			id    int
			ob    Observation
		}{
			{"inside-window", after, Observation{T: 44, State: qs}},
			{"clip-extended", inside, Observation{T: 45, State: qs}},
		} {
			if evals, carried := write(w.stage, w.id, w.ob); evals != groups || carried != 0 {
				t.Errorf("shards=%d %s write: %d passes, %d carried; want %d, none carried", shards, w.stage, evals, carried, groups)
			}
		}
		write("rewarm", after, Observation{T: 65, State: qs})

		// A member with a new tau joins the fixed-budget group: its
		// registration pass and the group's next pass both miss, the other
		// groups still replay.
		base := proc.SubscriptionStats()
		subscribe(Request{Semantics: Exists, Query: q, Ts: 40, Te: 47, Tau: 0.9, Seed: 7})
		check("join")
		if st := proc.SubscriptionStats(); st.Carried != base.Carried {
			t.Errorf("shards=%d: joining member's registration pass was carried", shards)
		}
		if evals, carried := write("after-join", after, Observation{T: 70, State: qs}); evals != groups || carried != groups-1 {
			t.Errorf("shards=%d after-join write: %d passes, %d carried; want %d, %d carried", shards, evals, carried, groups, groups-1)
		}
		proc.CloseSubscriptions()
	}
	if !results || !intervals {
		t.Errorf("events carried results=%v intervals=%v; the fixture must exercise both", results, intervals)
	}
}

// compareOneShot checks that a standing event's response equals the
// one-shot of req at the event's world floor: answers, error, version,
// pruning counts and sampling outcome. The standing-only stats
// (GroupSize, WorldFloor, BudgetReused) and the warmth-dependent
// SamplerBuilds are left out.
func compareOneShot(t *testing.T, proc *Processor, req Request, got Response, stage string, shards, i int) {
	t.Helper()
	if got.Err != nil {
		t.Fatalf("shards=%d %s sub %d: %v", shards, stage, i, got.Err)
	}
	if req.Confidence.Enabled() && stage != "initial" && !got.Stats.BudgetReused {
		t.Errorf("shards=%d %s sub %d: adaptive member did not reuse its budget", shards, stage, i)
	}
	req.MinWorlds = got.Stats.WorldFloor
	want := proc.Run(req)
	if want.Err != nil {
		t.Fatalf("shards=%d %s sub %d one-shot: %v", shards, stage, i, want.Err)
	}
	norm := func(r Response) string {
		r.Stats.SamplerBuilds, r.Stats.GroupSize, r.Stats.WorldFloor, r.Stats.BudgetReused = 0, 0, 0, false
		if !req.Confidence.Enabled() && want.Stats.Worlds == 0 {
			// A degenerate fixed-budget member skips sampling alone but
			// reports its group's shared draw (batch semantics).
			r.Stats.Worlds, r.Stats.ErrorBound, r.Stats.EarlyStopped = 0, 0, false
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if g, w := norm(got), norm(want); g != w {
		t.Errorf("shards=%d %s sub %d diverged:\nevent    %s\none-shot %s", shards, stage, i, g, w)
	}
}
