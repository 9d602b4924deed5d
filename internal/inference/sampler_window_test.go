package inference

import (
	"math/rand"
	"slices"
	"testing"

	"pnn/internal/markov"
	"pnn/internal/mcrand"
	"pnn/internal/space"
	"pnn/internal/sparse"
	"pnn/internal/uncertain"
)

// windowSampler adapts a line object alive over [2, 10] with a middle
// observation, the fixture of the window edge-case tests.
func windowSampler(t *testing.T) (*Sampler, *Model) {
	t.Helper()
	o := lineObject(t, 15, 1, []uncertain.Observation{
		{T: 2, State: 7}, {T: 6, State: 9}, {T: 10, State: 5},
	})
	m, err := Adapt(o)
	if err != nil {
		t.Fatal(err)
	}
	return NewSampler(m), m
}

func TestSampleWindowIntoSingleInstant(t *testing.T) {
	s, m := windowSampler(t)
	rng := mcrand.New(3)
	dst := make([]int32, 1)
	for _, ts := range []int{2, 5, 6, 9, 10} {
		if !s.SampleWindowInto(&rng, ts, ts, dst) {
			t.Fatalf("ts == te == %d inside the lifetime must sample", ts)
		}
		if post := m.Posterior(ts); post[int(dst[0])] <= 0 {
			t.Fatalf("t=%d: sampled state %d has zero posterior mass", ts, dst[0])
		}
	}
	// At an observation the draw is forced.
	if !s.SampleWindowInto(&rng, 6, 6, dst) || dst[0] != 9 {
		t.Fatalf("window at observation t=6: got state %d, want 9", dst[0])
	}
}

// TestSampleWindowSingleInstant checks that a one-instant window is
// drawn from the entry distribution alone: at an observed instant the
// state is forced, elsewhere the draws realize the posterior marginal.
func TestSampleWindowSingleInstant(t *testing.T) {
	s, m := windowSampler(t)
	rng := mcrand.New(3)
	dst := make([]int32, 1)
	for _, obs := range [][2]int{{2, 7}, {10, 5}} {
		if !s.SampleWindowInto(&rng, obs[0], obs[0], dst) || dst[0] != int32(obs[1]) {
			t.Fatalf("window at observation t=%d: got state %d, want %d", obs[0], dst[0], obs[1])
		}
	}
	const n = 20000
	for _, ts := range []int{3, 5, 8} {
		counts := sparse.NewVec()
		for i := 0; i < n; i++ {
			if !s.SampleWindowInto(&rng, ts, ts, dst) {
				t.Fatalf("ts == te == %d inside the lifetime must sample", ts)
			}
			counts.Add(int(dst[0]), 1.0/n)
		}
		if !counts.Equal(m.Posterior(ts), 0.015) {
			t.Errorf("t=%d: empirical %v vs posterior %v", ts, counts, m.Posterior(ts))
		}
	}
}

func TestSampleWindowOutsideLifetime(t *testing.T) {
	s, _ := windowSampler(t)
	mrng := mcrand.New(5)
	dst := make([]int32, 8)
	for _, w := range [][2]int{{11, 18}, {-6, 1}, {0, 1}, {-5, -1}} {
		dst := dst[:w[1]-w[0]+1]
		for i := range dst {
			dst[i] = 99 // poison: Into must overwrite every slot
		}
		if s.SampleWindowInto(&mrng, w[0], w[1], dst) {
			t.Errorf("window [%d, %d] outside lifetime [2, 10] must not sample", w[0], w[1])
		}
		for i, v := range dst {
			if v != -1 {
				t.Fatalf("window [%d, %d]: dst[%d] = %d, want -1", w[0], w[1], i, v)
			}
		}
	}
}

func TestSampleWindowIntoClipsToLifetime(t *testing.T) {
	s, m := windowSampler(t)
	o := m.Object()
	rng := mcrand.New(11)
	const ts, te = 0, 13
	dst := make([]int32, te-ts+1)
	for trial := 0; trial < 200; trial++ {
		if !s.SampleWindowInto(&rng, ts, te, dst) {
			t.Fatal("overlapping window must sample")
		}
		for tt := ts; tt <= te; tt++ {
			v := dst[tt-ts]
			if tt < o.First().T || tt > o.Last().T {
				if v != -1 {
					t.Fatalf("t=%d outside lifetime: state %d, want -1", tt, v)
				}
				continue
			}
			if v < 0 {
				t.Fatalf("t=%d inside lifetime: dead slot", tt)
			}
			if post := m.Posterior(tt); post[int(v)] <= 0 {
				t.Fatalf("t=%d: state %d has zero posterior mass", tt, v)
			}
		}
		// Transitions must stay chain-adjacent on the line.
		for tt := o.First().T; tt < o.Last().T; tt++ {
			if d := dst[tt+1-ts] - dst[tt-ts]; d < -1 || d > 1 {
				t.Fatalf("illegal transition %d→%d at t=%d", dst[tt-ts], dst[tt+1-ts], tt)
			}
		}
	}
}

// TestSampleWindowIntoMatchesPosterior checks that the alias-table
// entry draw and O(1) transition draws realize the same law as the
// posterior marginals, i.e. the columnar path is statistically
// equivalent to the cumulative one.
func TestSampleWindowIntoMatchesPosterior(t *testing.T) {
	s, m := windowSampler(t)
	rng := mcrand.New(17)
	const ts, te = 3, 9
	const n = 60000
	dst := make([]int32, te-ts+1)
	counts := make([]sparse.Vec, te-ts+1)
	for i := range counts {
		counts[i] = sparse.NewVec()
	}
	for i := 0; i < n; i++ {
		if !s.SampleWindowInto(&rng, ts, te, dst) {
			t.Fatal("window inside lifetime must sample")
		}
		for tt := ts; tt <= te; tt++ {
			counts[tt-ts].Add(int(dst[tt-ts]), 1.0/n)
		}
	}
	for tt := ts; tt <= te; tt++ {
		if !counts[tt-ts].Equal(m.Posterior(tt), 0.01) {
			t.Errorf("t=%d: empirical %v vs posterior %v", tt, counts[tt-ts], m.Posterior(tt))
		}
	}
}

// TestSampleWindowIntoDeterministic pins the kernel's reproducibility:
// the same seed yields byte-identical state columns.
func TestSampleWindowIntoDeterministic(t *testing.T) {
	s, _ := windowSampler(t)
	a, b := mcrand.New(23), mcrand.New(23)
	da, db := make([]int32, 9), make([]int32, 9)
	for i := 0; i < 100; i++ {
		s.SampleWindowInto(&a, 2, 10, da)
		s.SampleWindowInto(&b, 2, 10, db)
		for k := range da {
			if da[k] != db[k] {
				t.Fatalf("draw %d slot %d: %d vs %d", i, k, da[k], db[k])
			}
		}
	}
}

// TestSamplerSingleObservationModel pins the degenerate model whose
// lifetime is one instant: no transition matrices exist, so every
// sampling path must answer from the entry distribution alone.
func TestSamplerSingleObservationModel(t *testing.T) {
	o := lineObject(t, 5, 1, []uncertain.Observation{{T: 3, State: 2}})
	m, err := Adapt(o)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSampler(m)
	rng := rand.New(rand.NewSource(1))
	if p := s.Sample(rng); p.Start != 3 || len(p.States) != 1 || p.States[0] != 2 {
		t.Errorf("Sample = %+v, want the single observed instant", p)
	}
	mrng := mcrand.New(1)
	dst := []int32{99, 99, 99}
	if !s.SampleWindowInto(&mrng, 2, 4, dst) {
		t.Fatal("window covering the instant must sample")
	}
	if dst[0] != -1 || dst[1] != 2 || dst[2] != -1 {
		t.Errorf("dst = %v, want [-1 2 -1]", dst)
	}
}

// TestSamplerDrawsPinned pins drawn states, not just their law: the
// windows and the lifetime path below are what an object of a 600-state
// synthetic network draws from fixed generators. A change to the draw
// tables' layout or to the walk must keep every one of them, since
// served answers are functions of these states.
func TestSamplerDrawsPinned(t *testing.T) {
	sp, err := space.Synthetic(600, 8, rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	chain, err := markov.NewHomogeneous(sp.TransitionMatrix(0.5))
	if err != nil {
		t.Fatal(err)
	}
	obs := walkObservations(chain, sp.Len(), 5, rand.New(rand.NewSource(5)))
	o, err := uncertain.NewObject(1, obs, chain)
	if err != nil {
		t.Fatal(err)
	}
	s := fullSampler(t, o)
	rng := mcrand.New(42)
	for _, w := range []struct {
		ts, te int
		want   []int32
	}{
		{-2, 3, []int32{-1, -1, 426, 175, 426, 366}},
		{1, 15, []int32{129, 463, 366, 463, 254, 324, 236, 326, 451, 236, 463, 570, 463, 366, -1}},
		{10, 16, []int32{129, 463, 570, 463, 366, -1, -1}},
		{7, 7, []int32{451}},
	} {
		dst := make([]int32, w.te-w.ts+1)
		s.SampleWindowInto(&rng, w.ts, w.te, dst)
		if !slices.Equal(dst, w.want) {
			t.Errorf("window [%d, %d] drew %v, want %v", w.ts, w.te, dst, w.want)
		}
	}
	want := []int32{426, 380, 175, 366, 129, 366, 326, 477, 326, 451, 463, 254, 570, 463, 366}
	if p := s.Sample(rand.New(rand.NewSource(42))); !slices.Equal(p.States, want) {
		t.Errorf("Sample drew %v, want %v", p.States, want)
	}
}
