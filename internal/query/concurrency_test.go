package query_test

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"pnn/internal/inference"
	"pnn/internal/query"
	"pnn/internal/shard"
	"pnn/internal/uncertain"
)

// TestEngineConcurrentQueries exercises the engine's advertised thread
// safety: many goroutines issue queries against one snapshot (sharing
// the lazily-populated sampler cache) and must all observe identical
// results for identical seeds.
func TestEngineConcurrentQueries(t *testing.T) {
	sp, objs := query.LineObjects(t,
		[]uncertain.Observation{{T: 0, State: 30}, {T: 8, State: 32}},
		[]uncertain.Observation{{T: 0, State: 34}, {T: 8, State: 30}},
		[]uncertain.Observation{{T: 0, State: 26}, {T: 8, State: 28}},
		[]uncertain.Observation{{T: 0, State: 40}, {T: 8, State: 44}},
	)
	snap := served(t, sp, objs, 2000, 1)
	spec := shard.GroupSpec{Q: query.StateQuery(sp.Point(31)), Ts: 1, Te: 7, K: 1, Seed: 99}
	const workers = 8
	results := make([][]shard.Result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ans, _, err := answer(snap, spec, shard.OpForAll, 0)
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			results[w] = ans.Results
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if !reflect.DeepEqual(results[w], results[0]) {
			t.Fatalf("worker %d diverged: %+v vs %+v", w, results[w], results[0])
		}
	}
}

// TestEngineDisablePruningSameResults checks the ablation switch is
// lossless: with identical seeds, pruned and unpruned engines return
// byte-identical answers. Every row draws from its own (seed, object
// ID) generator, so the extra unpruned rows leave the others' worlds
// untouched and can only surface as zero-probability rows, which the
// p > 0 filter drops.
func TestEngineDisablePruningSameResults(t *testing.T) {
	sp, objs := query.LineObjects(t,
		[]uncertain.Observation{{T: 0, State: 30}, {T: 8, State: 32}},
		[]uncertain.Observation{{T: 0, State: 35}, {T: 8, State: 31}},
		[]uncertain.Observation{{T: 0, State: 50}, {T: 8, State: 55}},
	)
	spec := shard.GroupSpec{Q: query.StateQuery(sp.Point(31)), Ts: 1, Te: 7, K: 1, Seed: 5}
	items := []shard.GroupItem{{Op: shard.OpForAll}, {Op: shard.OpExists}, {Op: shard.OpCNN, Tau: 0.2}}
	pruned, st1, err := served(t, sp, objs, 3000, 1).RunShared(spec, items)
	if err != nil {
		t.Fatal(err)
	}
	noPrune := served(t, sp, objs, 3000, 1)
	noPrune.Parts[0].Engine.DisablePruning()
	unpruned, st2, err := noPrune.RunShared(spec, items)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Influencers <= st1.Influencers {
		t.Errorf("unpruned influencers (%d) must exceed pruned (%d): the fixture's far object prunes", st2.Influencers, st1.Influencers)
	}
	if !reflect.DeepEqual(pruned, unpruned) {
		t.Errorf("pruned answers %+v differ from unpruned %+v", pruned, unpruned)
	}
	// The far object 2 must not be a result either way.
	for _, r := range unpruned[1].Results {
		if r.ID == 2 {
			t.Errorf("far object got probability %v", r.Prob)
		}
	}
}

func TestPathsOfModelLimit(t *testing.T) {
	_, objs := query.LineObjects(t,
		[]uncertain.Observation{{T: 0, State: 30}, {T: 8, State: 30}})
	m, err := inference.Adapt(objs[0])
	if err != nil {
		t.Fatal(err)
	}
	// An 8-step loosely-constrained gap has far more than 10 trajectories.
	if _, err := query.PathsOfModel(m, 10); err == nil {
		t.Error("expected path-limit error")
	}
	// And a generous limit succeeds with probabilities summing to 1.
	wo, err := query.PathsOfModel(m, 1000000)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, p := range wo.Probs {
		total += p
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("path probabilities sum to %v", total)
	}
	// Every enumerated path must hit the observations.
	for _, p := range wo.Paths {
		if !p.HitsObservations(objs[0]) {
			t.Fatal("enumerated path misses an observation")
		}
	}
}
