package query_test

import (
	"testing"

	"pnn/internal/query"
	"pnn/internal/shard"
	"pnn/internal/uncertain"
)

func TestCNNKValidationAndMonotonicity(t *testing.T) {
	sp, objs := query.LineObjects(t,
		[]uncertain.Observation{{T: 0, State: 30}, {T: 8, State: 30}},
		[]uncertain.Observation{{T: 0, State: 33}, {T: 8, State: 33}},
		[]uncertain.Observation{{T: 0, State: 36}, {T: 8, State: 36}},
	)
	snap := served(t, sp, objs, 2000, 1)
	spec := func(k int) shard.GroupSpec {
		return shard.GroupSpec{Q: query.StateQuery(sp.Point(30)), Ts: 1, Te: 7, K: k, Seed: 1}
	}
	if _, _, err := answer(snap, spec(0), shard.OpCNN, 0.5); err == nil {
		t.Error("expected error for k=0")
	}
	// With k = |D|, every alive object is a kNN at every tic with
	// probability 1, so each should report the full window once.
	ans, _ := mustAnswer(t, snap, spec(3), shard.OpCNN, 0.9)
	res := ans.Intervals
	if len(res) != 3 {
		t.Fatalf("PC3NN results = %+v, want one per object", res)
	}
	for _, r := range res {
		if len(r.Times) != 7 || r.Prob < 0.999 {
			t.Errorf("object %d: %+v, want full window at p=1", r.ID, r)
		}
	}
	// k=2: the two nearest objects cover the window; the farthest can
	// only qualify when it beats one of them, which never happens here.
	ans2, _ := mustAnswer(t, snap, spec(2), shard.OpCNN, 0.9)
	seen := map[int]bool{}
	for _, r := range ans2.Intervals {
		seen[r.ID] = true
		if r.ID == 2 {
			t.Errorf("farthest object qualified for 2NN window: %+v", r)
		}
	}
	if !seen[0] || !seen[1] {
		t.Errorf("nearest two objects should qualify: %+v", ans2.Intervals)
	}
}
