package store

import (
	"math/rand"
	"testing"
	"time"

	"pnn/internal/markov"
	"pnn/internal/query"
	"pnn/internal/space"
	"pnn/internal/uncertain"
)

// lineWorld returns a 60-state line space and its uniform chain.
func lineWorld(t testing.TB) (*space.Space, markov.Chain) {
	t.Helper()
	sp, err := space.Line(60)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sp.BuildTransitionMatrix(func(i, j int) float64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	c, err := markov.NewHomogeneous(m)
	if err != nil {
		t.Fatal(err)
	}
	return sp, c
}

func mkObj(t testing.TB, id int, c markov.Chain, obs ...uncertain.Observation) *uncertain.Object {
	t.Helper()
	o, err := uncertain.NewObject(id, obs, c)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func lineStore(t testing.TB, samples int) (*space.Space, markov.Chain, *Store) {
	t.Helper()
	sp, c := lineWorld(t)
	objs := []*uncertain.Object{
		mkObj(t, 1, c, uncertain.Observation{T: 0, State: 30}, uncertain.Observation{T: 8, State: 32}),
		mkObj(t, 2, c, uncertain.Observation{T: 0, State: 50}, uncertain.Observation{T: 8, State: 52}),
	}
	s, err := New(sp, objs, samples)
	if err != nil {
		t.Fatal(err)
	}
	return sp, c, s
}

func forAll(t testing.TB, sp *space.Space, snap *Snapshot, state, ts, te int) []query.Result {
	t.Helper()
	res, _, err := snap.Engine.ForAllNN(query.StateQuery(sp.Point(state)), ts, te, 0.5, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestObserveSnapshotIsolation is the RCU contract for observation
// appends: a reader holding the pre-Observe snapshot keeps answering
// from it, a reader taking a fresh snapshot sees the update.
func TestObserveSnapshotIsolation(t *testing.T) {
	sp, _, s := lineStore(t, 400)
	before := s.Snapshot()
	if before.Version != 1 {
		t.Fatalf("initial version = %d, want 1", before.Version)
	}
	// Nobody is alive on [10, 14] in version 1.
	if res := forAll(t, sp, before, 52, 10, 14); len(res) != 0 {
		t.Fatalf("v1 query found %v in an empty window", res)
	}

	pub, err := s.Observe(2, []uncertain.Observation{{T: 16, State: 56}})
	if err != nil {
		t.Fatal(err)
	}
	if pub.Version != 2 {
		t.Fatalf("Observe version = %d, want 2", pub.Version)
	}

	// The old snapshot is untouched; the new one covers the window.
	if res := forAll(t, sp, before, 52, 10, 14); len(res) != 0 {
		t.Errorf("pre-Observe snapshot changed retroactively: %v", res)
	}
	after := s.Snapshot()
	res := forAll(t, sp, after, 52, 10, 14)
	if len(res) != 1 || after.IDs[res[0].Obj] != 2 {
		t.Fatalf("post-Observe snapshot: got %v, want object 2", res)
	}
}

// TestAddObjectSnapshotIsolation: a new object appears only in
// snapshots taken after the publish, and the answer probabilities of
// the old snapshot are byte-identical before and after.
func TestAddObjectSnapshotIsolation(t *testing.T) {
	sp, c, s := lineStore(t, 400)
	before := s.Snapshot()
	resBefore := forAll(t, sp, before, 45, 1, 7)
	if len(resBefore) != 1 || before.IDs[resBefore[0].Obj] != 2 {
		t.Fatalf("v1 NN at 45: %v, want object 2", resBefore)
	}

	// Park a third object directly on the query state, far from both
	// existing objects so it dominates every possible world.
	pub, err := s.AddObject(mkObj(t, 3, c,
		uncertain.Observation{T: 0, State: 45}, uncertain.Observation{T: 8, State: 45}))
	if err != nil {
		t.Fatal(err)
	}
	if pub.Version != 2 || len(pub.IDs) != 3 {
		t.Fatalf("AddObject snapshot: version %d with %d ids, want 2 with 3", pub.Version, len(pub.IDs))
	}
	if got := s.NumObjects(); got != 3 {
		t.Fatalf("NumObjects = %d, want 3", got)
	}

	resOld := forAll(t, sp, before, 45, 1, 7)
	if len(resOld) != len(resBefore) || resOld[0].Obj != resBefore[0].Obj || resOld[0].Prob != resBefore[0].Prob {
		t.Errorf("old snapshot drifted: %v vs %v", resOld, resBefore)
	}
	after := s.Snapshot()
	resNew := forAll(t, sp, after, 45, 1, 7)
	if len(resNew) != 1 || after.IDs[resNew[0].Obj] != 3 {
		t.Fatalf("post-AddObject NN at 45: %v, want object 3", resNew)
	}
}

// TestRejectedWritesLeaveVersionUntouched: every invalid write fails
// without publishing.
func TestRejectedWritesLeaveVersionUntouched(t *testing.T) {
	_, c, s := lineStore(t, 100)
	cases := []func() error{
		// Duplicate ID.
		func() error {
			_, err := s.AddObject(mkObj(t, 2, c, uncertain.Observation{T: 0, State: 10}))
			return err
		},
		// Contradicting insert: 40 states in 2 tics on a line.
		func() error {
			_, err := s.AddObject(mkObj(t, 9, c,
				uncertain.Observation{T: 0, State: 0}, uncertain.Observation{T: 2, State: 40}))
			return err
		},
		// Unknown object.
		func() error {
			_, err := s.Observe(99, []uncertain.Observation{{T: 20, State: 10}})
			return err
		},
		// Empty append.
		func() error { _, err := s.Observe(1, nil); return err },
		// Duplicate timestamp.
		func() error {
			_, err := s.Observe(1, []uncertain.Observation{{T: 8, State: 32}})
			return err
		},
		// Unreachable append: 20 states away 1 tic after the last fix.
		func() error {
			_, err := s.Observe(1, []uncertain.Observation{{T: 9, State: 52}})
			return err
		},
	}
	for i, w := range cases {
		if err := w(); err == nil {
			t.Errorf("invalid write %d succeeded", i)
		}
	}
	if v := s.Version(); v != 1 {
		t.Errorf("version advanced to %d by rejected writes", v)
	}
	if n := s.NumObjects(); n != 2 {
		t.Errorf("NumObjects = %d after rejected writes", n)
	}
}

// TestIngestCacheCarryOver: writes invalidate only what they touch. An
// AddObject keeps every adapted sampler; an Observe re-adapts exactly
// the updated object.
func TestIngestCacheCarryOver(t *testing.T) {
	_, c, s := lineStore(t, 100)
	if _, err := s.Snapshot().Engine.PrepareAll(); err != nil {
		t.Fatal(err)
	}
	if b := s.Snapshot().Engine.CacheStats().Builds; b != 2 {
		t.Fatalf("Builds after warm-up = %d, want 2", b)
	}

	if _, err := s.AddObject(mkObj(t, 3, c,
		uncertain.Observation{T: 0, State: 20}, uncertain.Observation{T: 8, State: 22})); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot().Engine.PrepareAll(); err != nil {
		t.Fatal(err)
	}
	if b := s.Snapshot().Engine.CacheStats().Builds; b != 3 {
		t.Errorf("Builds after AddObject warm-up = %d, want 3 (carry-over lost)", b)
	}

	if _, err := s.Observe(1, []uncertain.Observation{{T: 12, State: 30}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot().Engine.PrepareAll(); err != nil {
		t.Fatal(err)
	}
	if b := s.Snapshot().Engine.CacheStats().Builds; b != 4 {
		t.Errorf("Builds after Observe warm-up = %d, want 4 (exactly one re-adaptation)", b)
	}
}

func BenchmarkAddObject(b *testing.B) {
	sp, c := lineWorld(b)
	var objs []*uncertain.Object
	for id := 0; id < 100; id++ {
		st := id % 50
		objs = append(objs, mkObj(b, id, c,
			uncertain.Observation{T: 0, State: st}, uncertain.Observation{T: 8, State: st + 2}))
	}
	s, err := New(sp, objs, 100)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := i % 50
		if _, err := s.AddObject(mkObj(b, 100+i, c,
			uncertain.Observation{T: 0, State: st}, uncertain.Observation{T: 8, State: st + 2})); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObserve(b *testing.B) {
	sp, c := lineWorld(b)
	var objs []*uncertain.Object
	for id := 0; id < 100; id++ {
		st := id % 50
		objs = append(objs, mkObj(b, id, c,
			uncertain.Observation{T: 0, State: st}, uncertain.Observation{T: 8, State: st + 2}))
	}
	s, err := New(sp, objs, 100)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := i % 100
		st := id % 50
		if _, err := s.Observe(id, []uncertain.Observation{{T: 9 + i/100, State: st + 2}}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestObserveLongGapCompletes guards the far-future-observe hazard: an
// observation hundreds of tics ahead sweeps a diamond whose frontier is
// most of the network at every step, under the store lock. Reach.Diamond
// once sorted each frontier with an insertion sort and a 200-tic gap over
// 10 000 states held the lock for seconds (a 1 000-tic one for a minute);
// the bound is an order of magnitude above what the sweep costs now.
func TestObserveLongGapCompletes(t *testing.T) {
	sp, err := space.Grid(100, 100)
	if err != nil {
		t.Fatal(err)
	}
	c, err := markov.NewHomogeneous(sp.TransitionMatrix(0.5))
	if err != nil {
		t.Fatal(err)
	}
	const home = 50*100 + 50
	s, err := New(sp, []*uncertain.Object{mkObj(t, 1, c, uncertain.Observation{T: 0, State: home})}, 100)
	if err != nil {
		t.Fatal(err)
	}
	begin := time.Now()
	snap, err := s.Observe(1, []uncertain.Observation{{T: 200, State: home}})
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(begin); took > 30*time.Second {
		t.Errorf("a 200-tic-gap Observe held the store for %v", took)
	}
	if r, ok := snap.Engine.Tree().RectAt(0, 100); !ok || r != sp.Bounds() {
		t.Errorf("mid-gap rectangle %v (alive %v), want the whole grid %v", r, ok, sp.Bounds())
	}
}
