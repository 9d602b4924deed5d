package ustree

import (
	"math/rand"
	"slices"
	"testing"

	"pnn/internal/geo"
	"pnn/internal/inference"
	"pnn/internal/markov"
	"pnn/internal/space"
	"pnn/internal/uncertain"
)

// lineWorld builds a 100-state line space with an equal-weight chain.
func lineWorld(t testing.TB) (*space.Space, markov.Chain) {
	t.Helper()
	sp, err := space.Line(100)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sp.BuildTransitionMatrix(func(i, j int) float64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	h, err := markov.NewHomogeneous(m)
	if err != nil {
		t.Fatal(err)
	}
	return sp, h
}

func mkObj(t testing.TB, id int, c markov.Chain, obs ...uncertain.Observation) *uncertain.Object {
	t.Helper()
	o, err := uncertain.NewObject(id, obs, c)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestPruningExample reproduces the structure of the paper's Figure 5:
// a close candidate A, an influence-only object B, a far pruned object C,
// an object D outside the query window, and a partially-alive object E.
func TestPruningExample(t *testing.T) {
	sp, c := lineWorld(t)
	objs := []*uncertain.Object{
		mkObj(t, 0, c, // A: pinned at state 50, right on the query
			uncertain.Observation{T: 0, State: 50},
			uncertain.Observation{T: 5, State: 50},
			uncertain.Observation{T: 10, State: 50}),
		mkObj(t, 1, c, // B: at 54; can reach 52 mid-gap, ties A's dmax
			uncertain.Observation{T: 0, State: 54},
			uncertain.Observation{T: 5, State: 54},
			uncertain.Observation{T: 10, State: 54}),
		mkObj(t, 2, c, // C: far away at 70
			uncertain.Observation{T: 0, State: 70},
			uncertain.Observation{T: 5, State: 70},
			uncertain.Observation{T: 10, State: 70}),
		mkObj(t, 3, c, // D: outside the query window entirely
			uncertain.Observation{T: 20, State: 50},
			uncertain.Observation{T: 25, State: 50}),
		mkObj(t, 4, c, // E: dies at t=5, inside the window
			uncertain.Observation{T: 0, State: 50},
			uncertain.Observation{T: 5, State: 50}),
	}
	tree, err := Build(sp, objs, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := sp.Point(50)
	p := tree.Prune(func(int) geo.Point { return q }, 2, 8)

	wantCands := []int{0}
	if len(p.Candidates) != 1 || p.Candidates[0] != wantCands[0] {
		t.Errorf("Candidates = %v, want %v", p.Candidates, wantCands)
	}
	hasInfl := func(oi int) bool {
		for _, x := range p.Influencers {
			if x == oi {
				return true
			}
		}
		return false
	}
	if !hasInfl(0) {
		t.Error("A must be an influencer (candidates always are)")
	}
	if !hasInfl(1) {
		t.Error("B must be an influencer: it can tie A mid-gap")
	}
	if hasInfl(2) {
		t.Error("C is always dominated and must be pruned")
	}
	if hasInfl(3) {
		t.Error("D is not alive during the window")
	}
	if !hasInfl(4) {
		t.Error("E is alive for part of the window and sits on q")
	}
	for _, ci := range p.Candidates {
		if ci == 4 {
			t.Error("E cannot be a ∀-candidate: not alive throughout T")
		}
	}
}

func TestBuildContradictingObject(t *testing.T) {
	sp, c := lineWorld(t)
	bad := mkObj(t, 0, c,
		uncertain.Observation{T: 0, State: 0},
		uncertain.Observation{T: 2, State: 90})
	if _, err := Build(sp, []*uncertain.Object{bad}, nil); err == nil {
		t.Error("expected contradiction error from Build")
	}
}

// TestBuildLenientMatchesBuild mixes objects whose observations follow
// the line with contradicting ones (a jump, or a contradiction in a later
// gap only): BuildLenient must skip exactly the contradicting positions
// and index the others exactly as Build does.
func TestBuildLenientMatchesBuild(t *testing.T) {
	sp, c := lineWorld(t)
	rng := rand.New(rand.NewSource(4))
	var objs, kept []*uncertain.Object
	var wantSkipped []int
	for i := 0; i < 40; i++ {
		s := 10 + rng.Intn(80)
		obs := []uncertain.Observation{{T: i, State: s}, {T: i + 5, State: s + rng.Intn(5)}, {T: i + 9, State: s}}
		if i%3 == 1 {
			obs[1+rng.Intn(2)].State = (s + 50) % 100
			wantSkipped = append(wantSkipped, i)
		}
		o := mkObj(t, i, c, obs...)
		objs = append(objs, o)
		if i%3 != 1 {
			kept = append(kept, o)
		}
	}
	lenient, skipped, err := BuildLenient(sp, objs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(skipped, wantSkipped) {
		t.Fatalf("skipped %v, want %v", skipped, wantSkipped)
	}
	strict, err := Build(sp, kept, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lenient.Len() != strict.Len() || lenient.NumLeaves() != strict.NumLeaves() {
		t.Fatalf("lenient tree has %d objects / %d gaps, strict %d / %d",
			lenient.Len(), lenient.NumLeaves(), strict.Len(), strict.NumLeaves())
	}
	for oi := range kept {
		for tt := 0; tt < 50; tt++ {
			lr, lok := lenient.RectAt(oi, tt)
			sr, sok := strict.RectAt(oi, tt)
			if lr != sr || lok != sok {
				t.Fatalf("object %d t=%d: lenient %v %v, strict %v %v", oi, tt, lr, lok, sr, sok)
			}
		}
	}
}

func TestRectAt(t *testing.T) {
	sp, c := lineWorld(t)
	o := mkObj(t, 0, c,
		uncertain.Observation{T: 0, State: 50},
		uncertain.Observation{T: 4, State: 54})
	tree, err := Build(sp, []*uncertain.Object{o}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// At observations the rect is the exact point.
	r, ok := tree.RectAt(0, 0)
	if !ok || r != geo.RectFromPoint(sp.Point(50)) {
		t.Errorf("RectAt obs = %v, %v", r, ok)
	}
	// Mid-gap: at t=2 the object must be in [50..54] ∩ reachable; the
	// diamond at offset 2 is exactly {52} on the direct path... with slack
	// 0 (distance 4 in 4 steps) every step must move right: state 52.
	r, ok = tree.RectAt(0, 2)
	if !ok {
		t.Fatal("expected alive at t=2")
	}
	want := geo.RectFromPoint(sp.Point(52))
	if r != want {
		t.Errorf("RectAt(0,2) = %v, want %v", r, want)
	}
	if _, ok := tree.RectAt(0, 5); ok {
		t.Error("object not alive at t=5")
	}
	if _, ok := tree.RectAt(0, -1); ok {
		t.Error("object not alive at t=-1")
	}
}

func TestSingleObservationObject(t *testing.T) {
	sp, c := lineWorld(t)
	o := mkObj(t, 0, c, uncertain.Observation{T: 3, State: 42})
	tree, err := Build(sp, []*uncertain.Object{o}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumLeaves() != 1 {
		t.Fatalf("NumLeaves = %d", tree.NumLeaves())
	}
	r, ok := tree.RectAt(0, 3)
	if !ok || r != geo.RectFromPoint(sp.Point(42)) {
		t.Errorf("RectAt = %v, %v", r, ok)
	}
	q := sp.Point(42)
	p := tree.Prune(func(int) geo.Point { return q }, 3, 3)
	if len(p.Candidates) != 1 || len(p.Influencers) != 1 {
		t.Errorf("Prune = %+v, want the single object as candidate", p)
	}
	// Window not covering the instant.
	p = tree.Prune(func(int) geo.Point { return q }, 4, 6)
	if len(p.Candidates) != 0 || len(p.Influencers) != 0 {
		t.Errorf("Prune outside lifetime = %+v", p)
	}
}

func TestPruneEmptyWindow(t *testing.T) {
	sp, c := lineWorld(t)
	o := mkObj(t, 0, c, uncertain.Observation{T: 0, State: 1})
	tree, err := Build(sp, []*uncertain.Object{o}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := tree.Prune(func(int) geo.Point { return geo.Point{} }, 5, 4)
	if len(p.Candidates) != 0 || len(p.Influencers) != 0 {
		t.Errorf("inverted window should prune everything: %+v", p)
	}
}

// TestPruningSound verifies on random data that the filter step never
// prunes a true result: every object that is the ∀NN (∃NN) of q in some
// sampled world must appear in Candidates (Influencers).
func TestPruningSound(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	sp, err := space.Synthetic(1500, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	h, err := markov.NewHomogeneous(sp.TransitionMatrix(0.5))
	if err != nil {
		t.Fatal(err)
	}
	// 25 objects with 3 observations each along shortest paths.
	var objs []*uncertain.Object
	for id := 0; len(objs) < 25; id++ {
		path := sp.ShortestPath(rng.Intn(sp.Len()), rng.Intn(sp.Len()))
		if len(path) < 9 {
			continue
		}
		obs := []uncertain.Observation{
			{T: 0, State: path[0]},
			{T: 4, State: path[4]},
			{T: 8, State: path[8]},
		}
		o, err := uncertain.NewObject(id, obs, h)
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, o)
	}
	tree, err := Build(sp, objs, nil)
	if err != nil {
		t.Fatal(err)
	}

	const ts, te = 1, 7
	for trial := 0; trial < 5; trial++ {
		q := sp.Point(rng.Intn(sp.Len()))
		p := tree.Prune(func(int) geo.Point { return q }, ts, te)
		inCand := map[int]bool{}
		for _, c := range p.Candidates {
			inCand[c] = true
		}
		inInfl := map[int]bool{}
		for _, c := range p.Influencers {
			inInfl[c] = true
		}

		// Sample worlds and check the filter never excluded a winner.
		samplers := make([]*inference.Sampler, len(objs))
		for i, o := range objs {
			m, err := inference.Adapt(o)
			if err != nil {
				t.Fatal(err)
			}
			samplers[i] = inference.NewSampler(m)
		}
		for w := 0; w < 40; w++ {
			paths := make([]uncertain.Path, len(objs))
			for i := range objs {
				paths[i] = samplers[i].Sample(rng)
			}
			for oi := range objs {
				everNN, alwaysNN := false, true
				for tt := ts; tt <= te; tt++ {
					si, ok := paths[oi].At(tt)
					if !ok {
						alwaysNN = false
						continue
					}
					di := sp.DistTo(si, q)
					nn := true
					for oj := range objs {
						if oj == oi {
							continue
						}
						if sj, ok := paths[oj].At(tt); ok && sp.DistTo(sj, q) < di {
							nn = false
							break
						}
					}
					if nn {
						everNN = true
					} else {
						alwaysNN = false
					}
				}
				if alwaysNN && !inCand[oi] {
					t.Fatalf("trial %d world %d: object %d is ∀NN but was pruned from candidates", trial, w, oi)
				}
				if everNN && !inInfl[oi] {
					t.Fatalf("trial %d world %d: object %d is ∃NN but was pruned from influencers", trial, w, oi)
				}
			}
		}
	}
}

func TestHorizonAndAccessors(t *testing.T) {
	sp, c := lineWorld(t)
	objs := []*uncertain.Object{
		mkObj(t, 0, c,
			uncertain.Observation{T: 5, State: 10},
			uncertain.Observation{T: 9, State: 12}),
		mkObj(t, 1, c,
			uncertain.Observation{T: 2, State: 20},
			uncertain.Observation{T: 30, State: 34}),
	}
	tree, err := Build(sp, objs, nil)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := tree.Horizon()
	if lo != 2 || hi != 30 {
		t.Errorf("Horizon = %d,%d", lo, hi)
	}
	if tree.Len() != 2 {
		t.Errorf("Len = %d", tree.Len())
	}
	if tree.Space() != sp {
		t.Error("Space accessor")
	}
	if len(tree.Objects()) != 2 {
		t.Error("Objects accessor")
	}
}
