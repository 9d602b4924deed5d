package uncertain

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"pnn/internal/markov"
	"pnn/internal/space"
	"pnn/internal/sparse"
)

// mapDiamond is the hash-set reachability sweep Diamond replaced, kept
// as the reference its stamped arrays must reproduce set for set and
// error for error.
func mapDiamond(r *Reach, o *Object, gap int) ([][]int32, error) {
	if gap < 0 || gap >= len(o.Obs)-1 {
		return nil, fmt.Errorf("uncertain: object %d has no gap %d", o.ID, gap)
	}
	a, b := o.Obs[gap], o.Obs[gap+1]
	steps := b.T - a.T
	fwd := make([]map[int32]struct{}, steps+1)
	fwd[0] = map[int32]struct{}{int32(a.State): {}}
	for k := 0; k < steps; k++ {
		fwd[k+1] = mapStep(o.Chain.At(a.T+k), fwd[k])
	}
	bwd := make([]map[int32]struct{}, steps+1)
	bwd[steps] = map[int32]struct{}{int32(b.State): {}}
	for k := steps; k > 0; k-- {
		bwd[k-1] = mapStep(r.transpose(o.Chain.At(a.T+k-1)), bwd[k])
	}
	out := make([][]int32, steps+1)
	for k := 0; k <= steps; k++ {
		var states []int32
		for s := range fwd[k] {
			if _, ok := bwd[k][s]; ok {
				states = append(states, s)
			}
		}
		if len(states) == 0 {
			return nil, fmt.Errorf(
				"uncertain: object %d observations at t=%d and t=%d are contradicting (no possible state at offset %d)",
				o.ID, a.T, b.T, k)
		}
		slices.Sort(states)
		out[k] = states
	}
	return out, nil
}

func mapStep(m *sparse.CSR, from map[int32]struct{}) map[int32]struct{} {
	next := make(map[int32]struct{}, len(from)*2)
	for s := range from {
		cols, vals := m.Row(int(s))
		for i, c := range cols {
			if vals[i] > 0 {
				next[c] = struct{}{}
			}
		}
	}
	return next
}

// mapBackward is the reference for Backward: the backward cone alone,
// sorted by offset.
func mapBackward(r *Reach, o *Object, gap int) [][]int32 {
	a, b := o.Obs[gap], o.Obs[gap+1]
	steps := b.T - a.T
	out := make([][]int32, steps+1)
	cur := map[int32]struct{}{int32(b.State): {}}
	for k := steps; ; k-- {
		for s := range cur {
			out[k] = append(out[k], s)
		}
		slices.Sort(out[k])
		if k == 0 {
			return out
		}
		cur = mapStep(r.transpose(o.Chain.At(a.T+k-1)), cur)
	}
}

// randomMatrix returns a row-stochastic n×n matrix with one to four
// positive entries per row, plus now and then an explicit zero entry
// that reachability must not follow.
func randomMatrix(t testing.TB, rng *rand.Rand, n int) *sparse.CSR {
	t.Helper()
	var els []sparse.Triplet
	for i := 0; i < n; i++ {
		cols := rng.Perm(n)[:1+rng.Intn(min(4, n))]
		w := make([]float64, len(cols))
		total := 0.0
		for k := range w {
			w[k] = rng.Float64() + 0.01
			total += w[k]
		}
		for k, c := range cols {
			els = append(els, sparse.Triplet{Row: i, Col: c, Val: w[k] / total})
		}
		if z := rng.Intn(n); rng.Intn(4) == 0 && !slices.Contains(cols, z) {
			els = append(els, sparse.Triplet{Row: i, Col: z, Val: 0})
		}
	}
	m, err := sparse.NewCSR(n, els)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// randomChain returns a homogeneous chain or, half the time, a piecewise
// one whose matrix changes every few tics.
func randomChain(t testing.TB, rng *rand.Rand, n int) markov.Chain {
	t.Helper()
	if rng.Intn(2) == 0 {
		h, err := markov.NewHomogeneous(randomMatrix(t, rng, n))
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	var starts []int
	var mats []*sparse.CSR
	for s := rng.Intn(5); s < 60; s += 1 + rng.Intn(6) {
		starts = append(starts, s)
		mats = append(mats, randomMatrix(t, rng, n))
	}
	p, err := markov.NewPiecewise(starts, mats)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// checkAgainstMaps compares Diamond and Backward on gap 0 of o with the
// map references and reports whether the gap contradicts the chain.
func checkAgainstMaps(t *testing.T, r *Reach, o *Object, what string) bool {
	t.Helper()
	want, wantErr := mapDiamond(r, o, 0)
	got, err := r.Diamond(o, 0)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: Diamond error %v, want %v", what, err, wantErr)
	}
	if !slices.EqualFunc(got, want, slices.Equal[[]int32]) {
		t.Fatalf("%s: Diamond = %v, want %v", what, got, want)
	}
	cone, err := r.Backward(o, 0)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: Backward error %v, want %v", what, err, wantErr)
	}
	if err == nil {
		for k := range cone {
			slices.Sort(cone[k])
		}
		if ref := mapBackward(r, o, 0); !slices.EqualFunc(cone, ref, slices.Equal[[]int32]) {
			t.Fatalf("%s: Backward = %v, want %v", what, cone, ref)
		}
	}
	return wantErr != nil
}

// TestDiamondMatchesMapReference checks the stamped-array Diamond and
// Backward against the hash-set sweep on random homogeneous and
// piecewise chains, gaps of 0 to 40 tics, and consistent as well as
// contradicting observation pairs.
func TestDiamondMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	r := NewReach()
	var consistent, contradicting int
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(60)
		chain := randomChain(t, rng, n)
		t0 := rng.Intn(20)
		gap := rng.Intn(41)
		// A literal object: NewObject refuses the 0-tic gap.
		o := &Object{ID: trial, Chain: chain, Obs: []Observation{
			{T: t0, State: rng.Intn(n)}, {T: t0 + gap, State: rng.Intn(n)},
		}}
		if checkAgainstMaps(t, r, o, fmt.Sprintf("trial %d (n=%d, gap %d)", trial, n, gap)) {
			contradicting++
		} else {
			consistent++
		}
	}
	if consistent < 50 || contradicting < 50 {
		t.Fatalf("%d consistent and %d contradicting gaps: the trials must cover both", consistent, contradicting)
	}
}

// TestDiamondGenerationWraparound runs each Diamond with its stamp
// counter a few steps below math.MaxUint32 and the stamps full of small
// values left from an earlier epoch: the first generations after the
// wrap would read those states as marked unless the wrap clears them.
func TestDiamondGenerationWraparound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 40
	r := NewReach()
	for trial := 0; trial < 100; trial++ {
		chain := randomChain(t, rng, n)
		steps := 1 + rng.Intn(12)
		o := &Object{ID: trial, Chain: chain, Obs: []Observation{
			{T: 0, State: rng.Intn(n)}, {T: steps, State: rng.Intn(n)},
		}}
		mk := &marks{stamp: make([]uint32, n), gen: math.MaxUint32 - uint32(rng.Intn(steps))}
		for i := range mk.stamp {
			mk.stamp[i] = uint32(1 + rng.Intn(2*steps+1))
		}
		before := mk.gen
		got, err := r.diamond(o, 0, mk)
		if mk.gen >= before {
			t.Fatalf("trial %d: the generation counter did not wrap (%d → %d)", trial, before, mk.gen)
		}
		want, wantErr := mapDiamond(r, o, 0)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !slices.EqualFunc(got, want, slices.Equal[[]int32]) {
			t.Fatalf("trial %d (gen %d → %d): Diamond = %v, %v; want %v, %v", trial, before, mk.gen, got, err, want, wantErr)
		}
	}
}

// TestDiamondConsistentPath runs Diamond and Backward over every gap of
// an object observed along a real shortest path, which no gap can
// contradict, and checks that each diamond holds the path's own state.
func TestDiamondConsistentPath(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	sp, err := space.Synthetic(400, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	h, err := markov.NewHomogeneous(sp.TransitionMatrix(0.5))
	if err != nil {
		t.Fatal(err)
	}
	o := pathObject(t, sp, h, rng, 10, 4)
	r := NewReach()
	for g := 0; g+1 < len(o.Obs); g++ {
		d, err := r.Diamond(o.Object, g)
		if err != nil {
			t.Fatalf("gap %d: %v", g, err)
		}
		if _, err := r.Backward(o.Object, g); err != nil {
			t.Fatalf("gap %d: Backward: %v", g, err)
		}
		for k, states := range d {
			if _, ok := slices.BinarySearch(states, int32(o.path[o.Obs[g].T+k])); !ok {
				t.Fatalf("gap %d offset %d: path state missing from %v", g, k, states)
			}
		}
	}
}

// observedPath is an object observed along a known trajectory.
type observedPath struct {
	*Object
	path []int
}

// pathObject returns an object travelling a shortest path of at least
// minLen states from t = 0, observed every `every` tics and at its end.
func pathObject(t testing.TB, sp *space.Space, c markov.Chain, rng *rand.Rand, minLen, every int) observedPath {
	t.Helper()
	var path []int
	for len(path) < minLen {
		path = sp.ShortestPath(rng.Intn(sp.Len()), rng.Intn(sp.Len()))
	}
	var obs []Observation
	for t := 0; t < len(path); t += every {
		obs = append(obs, Observation{T: t, State: path[t]})
	}
	if last := len(path) - 1; obs[len(obs)-1].T != last {
		obs = append(obs, Observation{T: last, State: path[last]})
	}
	o, err := NewObject(1, obs, c)
	if err != nil {
		t.Fatal(err)
	}
	return observedPath{o, path}
}

// syntheticChain is the benchmark dataset's chain: 10 000 states with
// branching 8 and self weight 0.5.
func syntheticChain(t testing.TB) (*space.Space, markov.Chain) {
	t.Helper()
	sp, err := space.Synthetic(10000, 8, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	h, err := markov.NewHomogeneous(sp.TransitionMatrix(0.5))
	if err != nil {
		t.Fatal(err)
	}
	return sp, h
}

// TestDiamondConcurrentChainSizes shares one Reach between goroutines
// that interleave Diamond calls over a 50-state and a 10 000-state chain:
// pooled marks sized for the small chain must never serve the large one.
// Run it under -race.
func TestDiamondConcurrentChainSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sp, big := syntheticChain(t)
	small := lineChain(t, 50)
	var objs []*Object
	for i := 0; i < 8; i++ {
		objs = append(objs, pathObject(t, sp, big, rng, 12, 10).Object)
		a := rng.Intn(50)
		o, err := NewObject(i, []Observation{{T: 0, State: a}, {T: 10, State: min(a+rng.Intn(11), 49)}}, small)
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, o)
	}
	r := NewReach()
	want := make([][][]int32, len(objs))
	for i, o := range objs {
		d, err := mapDiamond(r, o, 0)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = d
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 6; round++ {
				for j := range objs {
					i := (j + w + round) % len(objs)
					got, err := r.Diamond(objs[i], 0)
					if err != nil || !slices.EqualFunc(got, want[i], slices.Equal[[]int32]) {
						t.Errorf("worker %d object %d: Diamond = %v, %v", w, i, len(got), err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

var sinkDiamond [][]int32

// BenchmarkDiamond times one 10-tic gap's diamond over the benchmark
// dataset's 10 000-state chain.
func BenchmarkDiamond(b *testing.B) {
	sp, c := syntheticChain(b)
	o := pathObject(b, sp, c, rand.New(rand.NewSource(5)), 11, 10).Object
	r := NewReach()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := r.Diamond(o, 0)
		if err != nil {
			b.Fatal(err)
		}
		sinkDiamond = d
	}
}
