package query_test

import (
	"testing"

	"pnn/internal/query"
	"pnn/internal/shard"
	"pnn/internal/space"
	"pnn/internal/uncertain"
)

// The tests of this package answer queries the way a served request
// does: through shard.Snap.RunShared, with every row drawing from its
// own (seed, object ID) generator.

// served partitions objs across `shards` shards whose queries draw
// `samples` worlds, and returns the initial snapshot.
func served(t testing.TB, sp *space.Space, objs []*uncertain.Object, samples, shards int) *shard.Snap {
	t.Helper()
	set, err := shard.New(sp, objs, samples, shards)
	if err != nil {
		t.Fatal(err)
	}
	return set.Snapshot()
}

// answer runs one query of the given semantics and threshold; a
// per-item failure is returned as the error.
func answer(snap *shard.Snap, spec shard.GroupSpec, op shard.GroupOp, tau float64) (shard.GroupAnswer, query.Stats, error) {
	ans, st, err := snap.RunShared(spec, []shard.GroupItem{{Op: op, Tau: tau}})
	if err != nil {
		return shard.GroupAnswer{}, st, err
	}
	return ans[0], st, ans[0].Err
}

// mustAnswer is answer failing the test on error.
func mustAnswer(t testing.TB, snap *shard.Snap, spec shard.GroupSpec, op shard.GroupOp, tau float64) (shard.GroupAnswer, query.Stats) {
	t.Helper()
	ans, st, err := answer(snap, spec, op, tau)
	if err != nil {
		t.Fatal(err)
	}
	return ans, st
}

// probs maps each result's object ID to its probability.
func probs(rs []shard.Result) map[int]float64 {
	m := make(map[int]float64, len(rs))
	for _, r := range rs {
		m[r.ID] = r.Prob
	}
	return m
}

// shardCounts are the fan-outs the exact-answer oracles run at: one
// shard, and two, whose merged pruning supersets must change nothing.
var shardCounts = []int{1, 2}
