package inference

import (
	"math"
	"math/rand"
	"testing"

	"pnn/internal/markov"
	"pnn/internal/space"
	"pnn/internal/sparse"
	"pnn/internal/uncertain"
)

// lineObject builds an object on a 1D line space with the given
// observations, equal-weight transitions (left/stay/right).
func lineObject(t testing.TB, n, id int, obs []uncertain.Observation) *uncertain.Object {
	t.Helper()
	sp, err := space.Line(n)
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
	o, err := uncertain.NewObject(id, obs, h)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// enumeratePaths returns every a-priori possible path of o over its
// lifetime together with its prior probability, by brute-force recursion.
// Only usable for tiny models.
func enumeratePaths(o *uncertain.Object) (paths []uncertain.Path, probs []float64) {
	start, end := o.First().T, o.Last().T
	var rec func(t int, states []int32, p float64)
	rec = func(t int, states []int32, p float64) {
		if t == end {
			cp := make([]int32, len(states))
			copy(cp, states)
			paths = append(paths, uncertain.Path{Start: start, States: cp})
			probs = append(probs, p)
			return
		}
		cur := int(states[t-start])
		cols, vals := o.Chain.At(t).Row(cur)
		for k, c := range cols {
			rec(t+1, append(states, c), p*vals[k])
		}
	}
	rec(start, []int32{int32(o.First().State)}, 1)
	return paths, probs
}

// posteriorByEnumeration computes exact posterior marginals by conditioning
// the enumerated prior paths on the observations.
func posteriorByEnumeration(o *uncertain.Object) []sparse.Vec {
	start, end := o.First().T, o.Last().T
	paths, probs := enumeratePaths(o)
	out := make([]sparse.Vec, end-start+1)
	for i := range out {
		out[i] = sparse.NewVec()
	}
	total := 0.0
	for k, p := range paths {
		if !p.HitsObservations(o) {
			continue
		}
		total += probs[k]
		for t := start; t <= end; t++ {
			s, _ := p.At(t)
			out[t-start].Add(s, probs[k])
		}
	}
	for i := range out {
		for s := range out[i] {
			out[i][s] /= total
		}
	}
	return out
}

func TestAdaptPosteriorMatchesBruteForce(t *testing.T) {
	o := lineObject(t, 9, 1, []uncertain.Observation{
		{T: 0, State: 2}, {T: 3, State: 4}, {T: 6, State: 3},
	})
	m, err := Adapt(o)
	if err != nil {
		t.Fatal(err)
	}
	want := posteriorByEnumeration(o)
	for tt := 0; tt <= 6; tt++ {
		got := m.Posterior(tt)
		if !got.Equal(want[tt], 1e-9) {
			t.Errorf("posterior at t=%d:\n got %v\nwant %v", tt, got, want[tt])
		}
	}
}

func TestAdaptPathLawMatchesBruteForce(t *testing.T) {
	// The probability of drawing a specific path from the adapted model
	// must equal the prior probability of that path conditioned on hitting
	// all observations (possible-worlds semantics).
	o := lineObject(t, 7, 1, []uncertain.Observation{
		{T: 0, State: 1}, {T: 4, State: 3},
	})
	m, err := Adapt(o)
	if err != nil {
		t.Fatal(err)
	}
	paths, probs := enumeratePaths(o)
	total := 0.0
	for k, p := range paths {
		if p.HitsObservations(o) {
			total += probs[k]
		}
	}
	for k, p := range paths {
		if !p.HitsObservations(o) {
			continue
		}
		want := probs[k] / total
		// Model probability: product of F(t) transition probabilities.
		got := 1.0
		for tt := 0; tt < 4; tt++ {
			a, _ := p.At(tt)
			b, _ := p.At(tt + 1)
			got *= m.Transition(tt).At(a, b)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("path %v: model prob %v, want %v", p.States, got, want)
		}
	}
}

func TestAdaptPosteriorAtObservations(t *testing.T) {
	o := lineObject(t, 9, 1, []uncertain.Observation{
		{T: 2, State: 1}, {T: 6, State: 4}, {T: 10, State: 2},
	})
	m, err := Adapt(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, ob := range o.Obs {
		p := m.Posterior(ob.T)
		if len(p) != 1 || math.Abs(p[ob.State]-1) > 1e-12 {
			t.Errorf("posterior at observation t=%d = %v, want unit at %d", ob.T, p, ob.State)
		}
	}
	if m.Posterior(1) != nil || m.Posterior(11) != nil {
		t.Error("posterior outside lifetime should be nil")
	}
}

func TestAdaptMassPreservation(t *testing.T) {
	o := lineObject(t, 15, 1, []uncertain.Observation{
		{T: 0, State: 7}, {T: 10, State: 3}, {T: 25, State: 12},
	})
	m, err := Adapt(o)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt <= 25; tt++ {
		if s := m.Posterior(tt).Sum(); math.Abs(s-1) > 1e-9 {
			t.Errorf("posterior mass at t=%d is %v", tt, s)
		}
		if s := m.Forward(tt).Sum(); math.Abs(s-1) > 1e-9 {
			t.Errorf("forward mass at t=%d is %v", tt, s)
		}
	}
	// Adapted transition rows are stochastic.
	for tt := 0; tt < 25; tt++ {
		ft := m.Transition(tt)
		for _, i := range ft.Rows() {
			if s := ft.Row(i).Sum(); math.Abs(s-1) > 1e-9 {
				t.Errorf("F(%d) row %d sums to %v", tt, i, s)
			}
		}
	}
}

func TestAdaptSupportNarrowing(t *testing.T) {
	// Figure 4: the posterior support must be contained in the
	// forward-filtered support, which in turn is contained in the
	// no-observation support.
	o := lineObject(t, 21, 1, []uncertain.Observation{
		{T: 0, State: 10}, {T: 8, State: 14}, {T: 16, State: 6},
	})
	m, err := Adapt(o)
	if err != nil {
		t.Fatal(err)
	}
	no := NewNoObservationModel(o)
	for tt := 0; tt <= 16; tt++ {
		post := m.Posterior(tt)
		fwd := m.Forward(tt)
		prior := no.Marginal(tt)
		for s := range post {
			if fwd[s] == 0 {
				t.Errorf("t=%d: posterior state %d missing from forward support", tt, s)
			}
		}
		for s := range fwd {
			if prior[s] == 0 {
				t.Errorf("t=%d: forward state %d missing from prior support", tt, s)
			}
		}
	}
	// Narrowing must be strict somewhere mid-gap (observations add info).
	strict := false
	for tt := 1; tt < 16; tt++ {
		if len(m.Posterior(tt)) < len(no.Marginal(tt)) {
			strict = true
			break
		}
	}
	if !strict {
		t.Error("expected observations to strictly narrow the support somewhere")
	}
}

func TestAdaptContradictingObservation(t *testing.T) {
	o := lineObject(t, 9, 1, []uncertain.Observation{
		{T: 0, State: 0}, {T: 2, State: 8},
	})
	if _, err := Adapt(o); err == nil {
		t.Error("expected contradiction error")
	}
}

func TestAdaptSingleObservation(t *testing.T) {
	o := lineObject(t, 5, 1, []uncertain.Observation{{T: 3, State: 2}})
	m, err := Adapt(o)
	if err != nil {
		t.Fatal(err)
	}
	p := m.Posterior(3)
	if len(p) != 1 || p[2] != 1 {
		t.Errorf("posterior = %v", p)
	}
	if m.Transition(3) != nil {
		t.Error("no transition should exist for a single-instant model")
	}
}

func TestSamplerHitsObservationsAlways(t *testing.T) {
	o := lineObject(t, 13, 1, []uncertain.Observation{
		{T: 0, State: 6}, {T: 5, State: 9}, {T: 12, State: 4}, {T: 20, State: 8},
	})
	m, err := Adapt(o)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSampler(m)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		p := s.Sample(rng)
		if !p.HitsObservations(o) {
			t.Fatalf("sample %d misses an observation: %v", i, p.States)
		}
		// Consecutive states must be chain-adjacent (|Δ| <= 1 on a line).
		for k := 1; k < len(p.States); k++ {
			if d := p.States[k] - p.States[k-1]; d < -1 || d > 1 {
				t.Fatalf("illegal transition %d→%d", p.States[k-1], p.States[k])
			}
		}
	}
}

func TestSamplerEmpiricalMatchesPosterior(t *testing.T) {
	o := lineObject(t, 9, 1, []uncertain.Observation{
		{T: 0, State: 3}, {T: 4, State: 5},
	})
	m, err := Adapt(o)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSampler(m)
	rng := rand.New(rand.NewSource(7))
	const nSamples = 40000
	counts := make([]sparse.Vec, 5)
	for i := range counts {
		counts[i] = sparse.NewVec()
	}
	for i := 0; i < nSamples; i++ {
		p := s.Sample(rng)
		for tt := 0; tt <= 4; tt++ {
			st, _ := p.At(tt)
			counts[tt].Add(st, 1.0/nSamples)
		}
	}
	for tt := 0; tt <= 4; tt++ {
		if !counts[tt].Equal(m.Posterior(tt), 0.01) {
			t.Errorf("t=%d: empirical %v vs posterior %v", tt, counts[tt], m.Posterior(tt))
		}
	}
}

func TestRejectionSample(t *testing.T) {
	o := lineObject(t, 9, 1, []uncertain.Observation{
		{T: 0, State: 3}, {T: 3, State: 5},
	})
	rng := rand.New(rand.NewSource(2))
	res, err := RejectionSample(o, rng, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Path.HitsObservations(o) {
		t.Error("rejection sample must hit observations")
	}
	if res.Attempts < 1 {
		t.Error("attempts must be at least 1")
	}
}

func TestRejectionSampleExhaustion(t *testing.T) {
	// Very unlikely gap: force exhaustion with tiny budget.
	o := lineObject(t, 30, 1, []uncertain.Observation{
		{T: 0, State: 0}, {T: 29, State: 29},
	})
	rng := rand.New(rand.NewSource(3))
	if _, err := RejectionSample(o, rng, 2); err == nil {
		t.Error("expected exhaustion error")
	}
	if _, err := SegmentRejectionSample(o, rng, 2); err == nil {
		t.Error("expected exhaustion error")
	}
}

func TestSegmentRejectionSample(t *testing.T) {
	o := lineObject(t, 13, 1, []uncertain.Observation{
		{T: 0, State: 6}, {T: 4, State: 8}, {T: 8, State: 5},
	})
	rng := rand.New(rand.NewSource(4))
	res, err := SegmentRejectionSample(o, rng, 1000000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Path.HitsObservations(o) {
		t.Error("segment sample must hit observations")
	}
}

func TestExpectedRejectionCost(t *testing.T) {
	// One gap: TS1 == TS2. Multiple gaps: TS1 ~ product, TS2 ~ sum.
	single := lineObject(t, 9, 1, []uncertain.Observation{
		{T: 0, State: 3}, {T: 2, State: 4},
	})
	ts1, ts2 := ExpectedRejectionCost(single)
	if math.Abs(ts1-ts2) > 1e-9 {
		t.Errorf("single gap: TS1 %v != TS2 %v", ts1, ts2)
	}
	// P(state 4 at t=2 | state 3 at t=0) under equal 1/3 transitions:
	// paths 3→{2,3,4}→4 with prob 1/9 each where adjacent: 3→2→? no (2→4
	// not adjacent)... enumerate: to land on 4: (3→3→4),(3→4→4): but wait
	// interior states have 3 neighbours each; verify against enumeration
	// instead of hand arithmetic.
	paths, probs := enumeratePaths(single)
	hit := 0.0
	for k, p := range paths {
		if p.HitsObservations(single) {
			hit += probs[k]
		}
	}
	if math.Abs(ts1-1/hit) > 1e-9 {
		t.Errorf("TS1 = %v, want %v", ts1, 1/hit)
	}

	multi := lineObject(t, 9, 1, []uncertain.Observation{
		{T: 0, State: 3}, {T: 2, State: 4}, {T: 4, State: 5}, {T: 6, State: 4},
	})
	m1, m2 := ExpectedRejectionCost(multi)
	if m1 <= m2 {
		t.Errorf("with 3 gaps TS1 (%v) should exceed TS2 (%v)", m1, m2)
	}

	contra := lineObject(t, 9, 1, []uncertain.Observation{
		{T: 0, State: 0}, {T: 1, State: 8},
	})
	c1, c2 := ExpectedRejectionCost(contra)
	if c1 < 1e300 || c2 < 1e300 {
		t.Error("contradiction should yield infinite cost")
	}
}

// TestRejectionDecay reproduces the content of Figure 3/10: the empirical
// attempt count of TS1 grows much faster with the number of observations
// than TS2's.
func TestRejectionDecay(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mean := func(o *uncertain.Object, segment bool) float64 {
		total := 0
		const reps = 30
		for r := 0; r < reps; r++ {
			var res PriorSampleResult
			var err error
			if segment {
				res, err = SegmentRejectionSample(o, rng, 1<<20)
			} else {
				res, err = RejectionSample(o, rng, 1<<20)
			}
			if err != nil {
				t.Fatal(err)
			}
			total += res.Attempts
		}
		return float64(total) / reps
	}
	obs2 := []uncertain.Observation{{T: 0, State: 5}, {T: 3, State: 7}}
	obs4 := []uncertain.Observation{
		{T: 0, State: 5}, {T: 3, State: 7}, {T: 6, State: 5}, {T: 9, State: 7},
	}
	o2 := lineObject(t, 13, 1, obs2)
	o4 := lineObject(t, 13, 2, obs4)
	ts1Growth := mean(o4, false) / mean(o2, false)
	ts2Growth := mean(o4, true) / mean(o2, true)
	if ts1Growth <= ts2Growth {
		t.Errorf("TS1 growth (%v) should exceed TS2 growth (%v)", ts1Growth, ts2Growth)
	}
}

func TestUniformDiamondModel(t *testing.T) {
	o := lineObject(t, 9, 1, []uncertain.Observation{
		{T: 0, State: 2}, {T: 4, State: 4},
	})
	u, err := NewUniformDiamondModel(o, uncertain.NewReach())
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt <= 4; tt++ {
		v := u.Marginal(tt)
		if math.Abs(v.Sum()-1) > 1e-12 {
			t.Errorf("U marginal at %d sums to %v", tt, v.Sum())
		}
		// All entries equal.
		var first float64
		for _, p := range v {
			first = p
			break
		}
		for s, p := range v {
			if p != first {
				t.Errorf("U marginal at %d not uniform: state %d has %v vs %v", tt, s, p, first)
			}
		}
	}
	if s, e := u.Span(); s != 0 || e != 4 {
		t.Errorf("Span = %d,%d", s, e)
	}
	if u.Name() != "U" {
		t.Errorf("Name = %q", u.Name())
	}
}

func TestFBUModel(t *testing.T) {
	o := lineObject(t, 9, 1, []uncertain.Observation{
		{T: 0, State: 2}, {T: 4, State: 4},
	})
	fbu, err := FBUModel(o)
	if err != nil {
		t.Fatal(err)
	}
	if fbu.Name() != "FBU" {
		t.Errorf("Name = %q", fbu.Name())
	}
	for tt := 0; tt <= 4; tt++ {
		if s := fbu.Marginal(tt).Sum(); math.Abs(s-1) > 1e-9 {
			t.Errorf("FBU mass at %d = %v", tt, s)
		}
	}
	// The line chain already has uniform rows, so FBU == FB here.
	m, err := Adapt(o)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt <= 4; tt++ {
		if !fbu.Marginal(tt).Equal(m.Posterior(tt), 1e-9) {
			t.Errorf("FBU should equal FB for a uniform chain at t=%d", tt)
		}
	}
}

func TestModelNarrowing(t *testing.T) {
	// Figure 4 content check on a 2D grid: FB reachable set is a subset of
	// prior reachable set, and both collapse to singletons at observations.
	sp, err := space.Grid(9, 9)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := sp.BuildTransitionMatrix(func(i, j int) float64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	h, err := markov.NewHomogeneous(mat)
	if err != nil {
		t.Fatal(err)
	}
	o, err := uncertain.NewObject(1, []uncertain.Observation{
		{T: 0, State: 40}, {T: 6, State: 44},
	}, h)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Adapt(o)
	if err != nil {
		t.Fatal(err)
	}
	no := NewNoObservationModel(o)
	for tt := 0; tt <= 6; tt++ {
		if len(m.Posterior(tt)) > len(no.Marginal(tt)) {
			t.Errorf("t=%d: FB support larger than prior support", tt)
		}
	}
	if got := m.Posterior(6).Support(); len(got) != 1 || got[0] != 44 {
		t.Errorf("support at final obs = %v", got)
	}
}

func TestExpectedErrorAndModelNames(t *testing.T) {
	o := lineObject(t, 9, 1, []uncertain.Observation{
		{T: 0, State: 2}, {T: 4, State: 4},
	})
	m, err := Adapt(o)
	if err != nil {
		t.Fatal(err)
	}
	fb := PosteriorModel{m}
	f := ForwardModel{m}
	if fb.Name() != "FB" || f.Name() != "F" {
		t.Error("model names wrong")
	}
	if s, e := fb.Span(); s != 0 || e != 4 {
		t.Errorf("FB span = %d,%d", s, e)
	}
	// At an observation time the error is the distance of the observed
	// state to the truth exactly.
	got := ExpectedError(fb, 4, func(s int) float64 { return float64(s) })
	if math.Abs(got-4) > 1e-12 {
		t.Errorf("ExpectedError at obs = %v, want 4", got)
	}
	if e := ExpectedError(fb, 99, func(int) float64 { return 1 }); e != 0 {
		t.Errorf("out-of-span error = %v, want 0", e)
	}
}

// benchObservations is the fixture of the model benchmarks: a 60-step
// lifetime with observations every 15 steps along a shortest path of a
// 5 000-state network, and the chain they are consistent with.
func benchObservations(b *testing.B) ([]uncertain.Observation, markov.Chain) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	sp, err := space.Synthetic(5000, 8, rng)
	if err != nil {
		b.Fatal(err)
	}
	h, err := markov.NewHomogeneous(sp.TransitionMatrix(0.5))
	if err != nil {
		b.Fatal(err)
	}
	var path []int
	for len(path) < 61 {
		path = sp.ShortestPath(rng.Intn(sp.Len()), rng.Intn(sp.Len()))
	}
	var obs []uncertain.Observation
	for t := 0; t <= 60; t += 15 {
		obs = append(obs, uncertain.Observation{T: t, State: path[t]})
	}
	return obs, h
}

func benchObject(b *testing.B, obs []uncertain.Observation, c markov.Chain) *uncertain.Object {
	b.Helper()
	o, err := uncertain.NewObject(1, obs, c)
	if err != nil {
		b.Fatal(err)
	}
	return o
}

func BenchmarkAdapt(b *testing.B) {
	obs, c := benchObservations(b)
	o := benchObject(b, obs, c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Adapt(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewSampler tracks the alias-table build cost — the one-off
// per-object price of O(1) draws, paid inside PrepareAll and on every
// sampler-cache miss.
func BenchmarkNewSampler(b *testing.B) {
	obs, c := benchObservations(b)
	m, err := Adapt(benchObject(b, obs, c))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewSampler(m)
	}
}

// BenchmarkExtendSamplerAppend is what the query after an observation
// append pays instead of BenchmarkAdapt + BenchmarkNewSampler: the same
// object with its last observation arriving late, one gap of four adapted
// and tabled and three carried over.
func BenchmarkExtendSamplerAppend(b *testing.B) {
	obs, c := benchObservations(b)
	reach := uncertain.NewReach()
	prev, err := ExtendSampler(nil, benchObject(b, obs[:len(obs)-1], c), reach)
	if err != nil {
		b.Fatal(err)
	}
	upd := benchObject(b, obs, c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExtendSampler(prev, upd, reach); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSample(b *testing.B) {
	o := lineObject(b, 101, 1, []uncertain.Observation{
		{T: 0, State: 50}, {T: 40, State: 70}, {T: 80, State: 30},
	})
	m, err := Adapt(o)
	if err != nil {
		b.Fatal(err)
	}
	s := NewSampler(m)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample(rng)
	}
}

// BenchmarkAdaptGap times Algorithm 2 over one 10-tic gap of the
// benchmark dataset's 10 000-state, branching-8 chain, with the chain's
// transpose already cached: the per-gap kernel of every boot, recovery
// and observation write.
func BenchmarkAdaptGap(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	sp, err := space.Synthetic(10000, 8, rng)
	if err != nil {
		b.Fatal(err)
	}
	h, err := markov.NewHomogeneous(sp.TransitionMatrix(0.5))
	if err != nil {
		b.Fatal(err)
	}
	var path []int
	for len(path) < 11 {
		path = sp.ShortestPath(rng.Intn(sp.Len()), rng.Intn(sp.Len()))
	}
	o := benchObject(b, []uncertain.Observation{{T: 0, State: path[0]}, {T: 10, State: path[10]}}, h)
	reach := uncertain.NewReach()
	if _, err := AdaptShared(o, reach); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AdaptShared(o, reach); err != nil {
			b.Fatal(err)
		}
	}
}
