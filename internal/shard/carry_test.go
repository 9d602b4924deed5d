package shard

import (
	"reflect"
	"testing"

	"pnn/internal/query"
	"pnn/internal/uncertain"
)

// TestRunSharedCarry pins the carry contract of RunSharedInfluence: a
// carry is replayed exactly when a fresh gather would draw the same
// worlds, and a replayed answer equals the fresh one. Pruning is off so
// the row IDs and candidates never change — whether an observation
// lands inside the window is then decided by the window-law comparison
// alone.
func TestRunSharedCarry(t *testing.T) {
	sp, c := gridWorld(t, 10, 10)
	items := []GroupItem{{Op: OpExists, Tau: 0.1}, {Op: OpForAll, Tau: 0.05}, {Op: OpCNN, Tau: 0.3}}
	for _, conf := range []query.Confidence{{}, {Eps: 0.05, MaxSamples: 4096}} {
		for _, shards := range []int{1, 2} {
			s, err := New(sp, parked(t, c, 20, sp.Len()), 300, shards)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range s.Snapshot().Parts {
				p.Engine.DisablePruning()
			}
			spec := GroupSpec{Q: query.StateQuery(sp.Point(22)), Ts: 2, Te: 5, K: 1, Seed: 7, Conf: conf}
			run := func(stage string, spec GroupSpec, items []GroupItem, prev *Carry, wantReplay bool) *Carry {
				t.Helper()
				snap := s.Snapshot()
				got, gst, ginf, carry, err := snap.RunSharedInfluence(spec, items, prev)
				if err != nil {
					t.Fatal(err)
				}
				want, wst, winf, _, err := snap.RunSharedInfluence(spec, items, nil)
				if err != nil {
					t.Fatal(err)
				}
				if carry.Replayed() != wantReplay {
					t.Errorf("conf=%v shards=%d %s: replayed = %v, want %v", conf, shards, stage, carry.Replayed(), wantReplay)
				}
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(ginf, winf) {
					t.Errorf("conf=%v shards=%d %s: answers diverged from a fresh gather:\n got %+v\nwant %+v", conf, shards, stage, got, want)
				}
				if gst.Worlds != wst.Worlds || gst.ErrorBound != wst.ErrorBound || gst.EarlyStopped != wst.EarlyStopped ||
					gst.LatticeSets != wst.LatticeSets || gst.Candidates != wst.Candidates || gst.Influencers != wst.Influencers {
					t.Errorf("conf=%v shards=%d %s: stats diverged:\n got %+v\nwant %+v", conf, shards, stage, gst, wst)
				}
				if gst.Worlds == 0 || len(got[0].Results) == 0 || len(got[2].Intervals) == 0 {
					t.Fatalf("conf=%v shards=%d %s: vacuous answers %+v", conf, shards, stage, got)
				}
				// Callers own what they receive: editing it must not reach
				// the carry.
				got[0].Results[0].Prob = -1
				got[2].Intervals[0].Times[0] = -1
				return carry
			}
			observe := func(id int, ob uncertain.Observation) {
				t.Helper()
				if _, err := s.Observe(id, []uncertain.Observation{ob}); err != nil {
					t.Fatal(err)
				}
			}
			st := (3 * 7) % sp.Len() // object 3's parking state

			carry := run("first", spec, items, nil, false)
			carry = run("same snapshot", spec, items, carry, true)
			observe(3, uncertain.Observation{T: 12, State: st})
			carry = run("appended after the window", spec, items, carry, true)
			observe(3, uncertain.Observation{T: 4, State: st})
			carry = run("inserted inside the window", spec, items, carry, false)
			other := spec
			other.Seed++
			run("other seed", other, items, carry, false)
			run("other tau", spec, []GroupItem{items[0], items[1], {Op: OpCNN, Tau: 0.25}}, carry, false)
		}
	}
}
