package shard

import (
	"reflect"
	"testing"

	"pnn/internal/query"
	"pnn/internal/uncertain"
)

// TestScatterReplayEquivalence is the cluster-mode determinism
// contract at the shard layer: partitioning the dataset across two
// independent Sets ("peers"), scattering each (pre-drawn state
// columns, wire form), merging with MergeScatters and replaying
// through Gather must answer byte-identically to RunSharedInfluence on
// one Set holding every object — for all three predicates in one
// shared-world group, with and without an adaptive confidence policy,
// at workers 1 and 4.
func TestScatterReplayEquivalence(t *testing.T) {
	ds := taxiWorld(t)
	const samples = 300

	whole, err := New(ds.Space, ds.Objects, samples, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Partition by the same routing hash the Set uses so the peer split
	// is deterministic; any disjoint partition would do — answers are
	// layout-independent.
	var partA, partB []*uncertain.Object
	for _, o := range ds.Objects {
		if whole.ShardFor(o.ID) == 0 {
			partA = append(partA, o)
		} else {
			partB = append(partB, o)
		}
	}
	if len(partA) == 0 || len(partB) == 0 {
		t.Fatalf("degenerate partition: %d/%d objects", len(partA), len(partB))
	}
	peerA, err := New(ds.Space, partA, samples, 1)
	if err != nil {
		t.Fatal(err)
	}
	peerB, err := New(ds.Space, partB, samples, 1)
	if err != nil {
		t.Fatal(err)
	}

	items := []GroupItem{
		{Op: OpForAll, Tau: 0.1},
		{Op: OpExists, Tau: 0.05},
		{Op: OpCNN, Tau: 0.3},
	}
	confs := []query.Confidence{
		{},
		{Eps: 0.05, Delta: 0.05, MaxSamples: samples},
	}
	for ci, conf := range confs {
		for _, qc := range []struct {
			state, ts, te, k int
			seed             int64
		}{
			{state: 17, ts: 20, te: 30, k: 1, seed: 7},
			{state: 400, ts: 50, te: 62, k: 2, seed: 42},
		} {
			spec := GroupSpec{
				Q:    query.StateQuery(ds.Space.Point(qc.state)),
				Ts:   qc.ts,
				Te:   qc.te,
				K:    qc.k,
				Seed: qc.seed,
				Conf: conf,
			}
			wantAns, wantStats, wantInf, _, err := whole.Snapshot().RunSharedInfluence(spec, items, nil)
			if err != nil {
				t.Fatalf("conf %d state %d: local run: %v", ci, qc.state, err)
			}
			scA, err := peerA.Snapshot().Scatter(spec)
			if err != nil {
				t.Fatalf("conf %d state %d: peer A scatter: %v", ci, qc.state, err)
			}
			scB, err := peerB.Snapshot().Scatter(spec)
			if err != nil {
				t.Fatalf("conf %d state %d: peer B scatter: %v", ci, qc.state, err)
			}
			for _, workers := range []int{1, 4} {
				in, err := MergeScatters([]*ScatterResult{scA, scB})
				if err != nil {
					t.Fatalf("conf %d state %d: merge: %v", ci, qc.state, err)
				}
				in.Space = ds.Space
				in.Workers = workers
				gotAns, gotStats, gotInf, err := Gather(spec, items, in)
				if err != nil {
					t.Fatalf("conf %d state %d workers %d: gather: %v", ci, qc.state, workers, err)
				}
				if !reflect.DeepEqual(gotAns, wantAns) {
					t.Errorf("conf %d state %d workers %d: answers differ:\n local: %+v\nreplay: %+v", ci, qc.state, workers, wantAns, gotAns)
				}
				if !reflect.DeepEqual(gotInf, wantInf) {
					t.Errorf("conf %d state %d workers %d: influence differs:\n local: %+v\nreplay: %+v", ci, qc.state, workers, wantInf, gotInf)
				}
				// Worlds/ErrorBound/EarlyStopped are part of the response
				// surface (sampling block) and must match exactly; scatter
				// accounting (candidates, influencers) merges to the same
				// totals. Timings are inherently run-dependent.
				if gotStats.Worlds != wantStats.Worlds || gotStats.ErrorBound != wantStats.ErrorBound || gotStats.EarlyStopped != wantStats.EarlyStopped {
					t.Errorf("conf %d state %d workers %d: sampling stats differ: local {%d %g %t}, replay {%d %g %t}",
						ci, qc.state, workers,
						wantStats.Worlds, wantStats.ErrorBound, wantStats.EarlyStopped,
						gotStats.Worlds, gotStats.ErrorBound, gotStats.EarlyStopped)
				}
				if gotStats.Candidates != wantStats.Candidates || gotStats.Influencers != wantStats.Influencers {
					t.Errorf("conf %d state %d workers %d: scatter stats differ: local cand=%d inf=%d, replay cand=%d inf=%d",
						ci, qc.state, workers, wantStats.Candidates, wantStats.Influencers, gotStats.Candidates, gotStats.Influencers)
				}
				if gotStats.LatticeSets != wantStats.LatticeSets {
					t.Errorf("conf %d state %d workers %d: lattice sets differ: local %d, replay %d", ci, qc.state, workers, wantStats.LatticeSets, gotStats.LatticeSets)
				}
			}
		}
	}
}

// TestMergeScattersRejectsInconsistency covers the two merge-time
// failure modes the coordinator must refuse: disagreeing sample
// budgets and the same object scattered by two peers.
func TestMergeScattersRejectsInconsistency(t *testing.T) {
	a := &ScatterResult{Samples: 100, Rows: []ScatterRow{{ID: 1}}}
	b := &ScatterResult{Samples: 200, Rows: []ScatterRow{{ID: 2}}}
	if _, err := MergeScatters([]*ScatterResult{a, b}); err == nil {
		t.Fatal("sample budget mismatch accepted")
	}
	c := &ScatterResult{Samples: 100, Rows: []ScatterRow{{ID: 1}}}
	if _, err := MergeScatters([]*ScatterResult{a, c}); err == nil {
		t.Fatal("duplicate object across peers accepted")
	}
}
