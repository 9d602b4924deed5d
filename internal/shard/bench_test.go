package shard

import (
	"fmt"
	"runtime"
	"testing"

	"pnn/internal/query"
	"pnn/internal/uncertain"
)

// TestShardedIngestCloneBytes pins the acceptance criterion of the
// sharded store in-repo: at 4 shards one AddObject must allocate less
// than half of what it allocates unsharded, because the copy-on-write
// clone touches only the owning shard's slice of the index.
func TestShardedIngestCloneBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting; run in the full tier")
	}
	perAdd := func(shards int) float64 {
		sp, c := gridWorld(t, 30, 30)
		objs := make([]*uncertain.Object, 1600)
		for id := range objs {
			st := (id * 13) % sp.Len()
			objs[id] = mkObj(t, id, c,
				uncertain.Observation{T: 0, State: st}, uncertain.Observation{T: 8, State: st})
		}
		s, err := New(sp, objs, 100, shards)
		if err != nil {
			t.Fatal(err)
		}
		const adds = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < adds; i++ {
			st := (i * 17) % sp.Len()
			if _, err := s.AddObject(mkObj(t, 1_000_000+i, c,
				uncertain.Observation{T: 0, State: st}, uncertain.Observation{T: 8, State: st})); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / adds
	}
	b1, b4 := perAdd(1), perAdd(4)
	if b1 < 2*b4 {
		t.Errorf("AddObject allocates %.0f B at 1 shard vs %.0f B at 4 shards; want >= 2x reduction", b1, b4)
	}
}

// BenchmarkShardedIngest measures the copy-on-write cost of one
// AddObject as the shard count grows. Every write copies only the
// owning shard's object table and run headers, so bytes/op should
// drop roughly by the shard factor — the headline reason to shard an
// ingestion-heavy deployment.
func BenchmarkShardedIngest(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			sp, c := gridWorld(b, 30, 30)
			objs := make([]*uncertain.Object, 1600)
			for id := range objs {
				st := (id * 13) % sp.Len()
				objs[id] = mkObj(b, id, c,
					uncertain.Observation{T: 0, State: st}, uncertain.Observation{T: 8, State: st})
			}
			s, err := New(sp, objs, 100, shards)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st := (i * 17) % sp.Len()
				if _, err := s.AddObject(mkObj(b, 1_000_000+i, c,
					uncertain.Observation{T: 0, State: st}, uncertain.Observation{T: 8, State: st})); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedQuery measures scatter-gather refinement: the
// expensive per-object world sampling runs one goroutine per shard, so
// wall-clock per query should shrink with shards on a multi-core host.
func BenchmarkShardedQuery(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			sp, c := gridWorld(b, 30, 30)
			// Cluster the fleet around the query point so most objects
			// survive the filter and refinement dominates.
			center := 15*30 + 15
			objs := make([]*uncertain.Object, 64)
			for id := range objs {
				st := center + (id%8 - 4) + 30*(id/8%8-4)
				objs[id] = mkObj(b, id, c,
					uncertain.Observation{T: 0, State: st}, uncertain.Observation{T: 16, State: st})
			}
			s, err := New(sp, objs, 2000, shards)
			if err != nil {
				b.Fatal(err)
			}
			if err := s.PrepareAll(); err != nil {
				b.Fatal(err)
			}
			snap := s.Snapshot()
			q := query.StateQuery(sp.Point(center))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := snap.ExistsKNN(q, 1, 15, 1, 0.01, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
