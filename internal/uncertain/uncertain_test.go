package uncertain

import (
	"testing"

	"pnn/internal/markov"
	"pnn/internal/space"
)

// lineChain builds a homogeneous chain over a 1D line of n states where an
// object moves left/right/stays with equal weight.
func lineChain(t testing.TB, n int) markov.Chain {
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
	return h
}

func TestNewObjectValidation(t *testing.T) {
	c := lineChain(t, 5)
	if _, err := NewObject(1, nil, c); err == nil {
		t.Error("expected error for no observations")
	}
	if _, err := NewObject(1, []Observation{{T: 0, State: 0}}, nil); err == nil {
		t.Error("expected error for nil chain")
	}
	if _, err := NewObject(1, []Observation{{T: 0, State: 7}}, c); err == nil {
		t.Error("expected error for out-of-range state")
	}
	if _, err := NewObject(1, []Observation{{T: 0, State: 0}, {T: 0, State: 1}}, c); err == nil {
		t.Error("expected error for contradicting same-time observations")
	}
	if _, err := NewObject(1, []Observation{{T: 0, State: 0}, {T: 0, State: 0}}, c); err == nil {
		t.Error("expected error for duplicate observation")
	}
	// Unsorted input is sorted.
	o, err := NewObject(1, []Observation{{T: 10, State: 2}, {T: 0, State: 0}}, c)
	if err != nil {
		t.Fatal(err)
	}
	if o.First().T != 0 || o.Last().T != 10 {
		t.Errorf("observations not sorted: %v", o.Obs)
	}
}

func TestObjectAccessors(t *testing.T) {
	c := lineChain(t, 10)
	o, err := NewObject(7, []Observation{
		{T: 5, State: 0}, {T: 10, State: 3}, {T: 20, State: 9},
	}, c)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Alive(5) || !o.Alive(20) || !o.Alive(12) {
		t.Error("Alive inside lifetime")
	}
	if o.Alive(4) || o.Alive(21) {
		t.Error("Alive outside lifetime")
	}
	if !o.AliveThroughout(5, 20) || o.AliveThroughout(4, 10) || o.AliveThroughout(10, 21) {
		t.Error("AliveThroughout wrong")
	}
	if s, ok := o.ObservedAt(10); !ok || s != 3 {
		t.Errorf("ObservedAt(10) = %d,%v", s, ok)
	}
	if _, ok := o.ObservedAt(11); ok {
		t.Error("ObservedAt(11) should be false")
	}
	cases := []struct {
		t   int
		gap int
		ok  bool
	}{
		{5, 0, true}, {9, 0, true}, {10, 1, true}, {19, 1, true},
		{20, 1, true}, // final observation belongs to last gap
		{4, 0, false}, {21, 0, false},
	}
	for _, tc := range cases {
		g, ok := o.GapAt(tc.t)
		if ok != tc.ok || (ok && g != tc.gap) {
			t.Errorf("GapAt(%d) = %d,%v want %d,%v", tc.t, g, ok, tc.gap, tc.ok)
		}
	}
}

func TestGapAtSingleObservation(t *testing.T) {
	c := lineChain(t, 5)
	o, err := NewObject(1, []Observation{{T: 3, State: 1}}, c)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := o.GapAt(3); ok {
		t.Error("single-observation object has no gaps")
	}
}

func TestPath(t *testing.T) {
	p := Path{Start: 10, States: []int32{4, 5, 6}}
	if s, ok := p.At(11); !ok || s != 5 {
		t.Errorf("At(11) = %d,%v", s, ok)
	}
	if _, ok := p.At(9); ok {
		t.Error("At before start")
	}
	if _, ok := p.At(13); ok {
		t.Error("At after end")
	}
	if p.End() != 12 {
		t.Errorf("End = %d", p.End())
	}
}

func TestPathHitsObservations(t *testing.T) {
	c := lineChain(t, 10)
	o, err := NewObject(1, []Observation{{T: 0, State: 2}, {T: 2, State: 4}}, c)
	if err != nil {
		t.Fatal(err)
	}
	good := Path{Start: 0, States: []int32{2, 3, 4}}
	if !good.HitsObservations(o) {
		t.Error("good path should hit observations")
	}
	bad := Path{Start: 0, States: []int32{2, 3, 5}}
	if bad.HitsObservations(o) {
		t.Error("bad path should miss observation at t=2")
	}
}

func TestDiamondLine(t *testing.T) {
	// Line of 7 states, object at state 1 at t=0 and state 3 at t=2.
	// At t=1 the only states on a valid path are {2} (1→2→3) or can it
	// stay/move? From 1 reachable in 1 step: {0,1,2}; states that reach 3
	// in 1 step: {2,3,4}. Intersection: {2}.
	c := lineChain(t, 7)
	o, err := NewObject(1, []Observation{{T: 0, State: 1}, {T: 2, State: 3}}, c)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReach()
	d, err := r.Diamond(o, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 3 {
		t.Fatalf("diamond has %d timesteps, want 3", len(d))
	}
	if len(d[0]) != 1 || d[0][0] != 1 {
		t.Errorf("d[0] = %v", d[0])
	}
	if len(d[1]) != 1 || d[1][0] != 2 {
		t.Errorf("d[1] = %v, want [2]", d[1])
	}
	if len(d[2]) != 1 || d[2][0] != 3 {
		t.Errorf("d[2] = %v", d[2])
	}
}

func TestDiamondWide(t *testing.T) {
	// Same line but 4 steps between observations: slack of one step each
	// way widens the middle.
	c := lineChain(t, 9)
	o, err := NewObject(1, []Observation{{T: 0, State: 2}, {T: 4, State: 4}}, c)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReach()
	d, err := r.Diamond(o, 0)
	if err != nil {
		t.Fatal(err)
	}
	// At offset 2 (middle), forward reach = {0..4}, backward reach = {2..6};
	// intersection {2,3,4}.
	want := []int32{2, 3, 4}
	if len(d[2]) != len(want) {
		t.Fatalf("d[2] = %v, want %v", d[2], want)
	}
	for i := range want {
		if d[2][i] != want[i] {
			t.Fatalf("d[2] = %v, want %v", d[2], want)
		}
	}
}

func TestDiamondContradicting(t *testing.T) {
	// States 0 and 5 on a line cannot be connected in 2 steps.
	c := lineChain(t, 7)
	o, err := NewObject(1, []Observation{{T: 0, State: 0}, {T: 2, State: 5}}, c)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReach()
	if _, err := r.Diamond(o, 0); err == nil {
		t.Error("expected contradiction error")
	}
	if _, err := r.Backward(o, 0); err == nil {
		t.Error("Backward should fail")
	}
}

func TestDiamondBadGap(t *testing.T) {
	c := lineChain(t, 5)
	o, err := NewObject(1, []Observation{{T: 0, State: 0}, {T: 1, State: 1}}, c)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReach()
	if _, err := r.Diamond(o, 1); err == nil {
		t.Error("expected gap index error")
	}
	if _, err := r.Diamond(o, -1); err == nil {
		t.Error("expected gap index error")
	}
}

func TestDiamondTransposeCacheShared(t *testing.T) {
	c := lineChain(t, 9)
	o1, _ := NewObject(1, []Observation{{T: 0, State: 2}, {T: 2, State: 4}}, c)
	o2, _ := NewObject(2, []Observation{{T: 5, State: 1}, {T: 7, State: 3}}, c)
	r := NewReach()
	if _, err := r.Diamond(o1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Diamond(o2, 0); err != nil {
		t.Fatal(err)
	}
	if len(r.tr) != 1 {
		t.Errorf("transpose cache has %d entries, want 1 (shared matrix)", len(r.tr))
	}
}

// TestSameWindow pins which edits keep an object's law over a query
// window: only the chain, the lifetime clip and the observations that
// bracket the clip count, so a gap appended after the window changes
// nothing while any edit inside the bracket does.
func TestSameWindow(t *testing.T) {
	chain, other := lineChain(t, 50), lineChain(t, 50)
	obj := func(c markov.Chain, obs ...Observation) *Object {
		t.Helper()
		o, err := NewObject(1, obs, c)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	base := []Observation{{0, 3}, {8, 4}, {15, 6}, {25, 9}}
	with := func(extra ...Observation) []Observation {
		return append(append([]Observation(nil), base...), extra...)
	}
	const ts, te = 10, 20
	cases := []struct {
		name    string
		prev, o *Object
		want    bool
	}{
		{"gap appended after te", obj(chain, base...), obj(chain, with(Observation{30, 10})...), true},
		{"both clips empty", obj(chain, Observation{30, 1}, Observation{40, 2}), obj(other, Observation{30, 1}, Observation{40, 2}, Observation{50, 3}), true},
		{"identical", obj(chain, base...), obj(chain, base...), true},
		{"observation inserted inside", obj(chain, base...), obj(chain, with(Observation{18, 7})...), false},
		{"bracketing observation replaced", obj(chain, base...), obj(chain, Observation{0, 3}, Observation{8, 4}, Observation{15, 6}, Observation{25, 8}), false},
		{"first observation moved into the window", obj(chain, Observation{5, 3}, Observation{15, 6}, Observation{25, 9}), obj(chain, Observation{12, 3}, Observation{15, 6}, Observation{25, 9}), false},
		{"chain swapped", obj(chain, base...), obj(other, base...), false},
		{"one clip empty", obj(chain, Observation{30, 1}, Observation{40, 2}), obj(chain, Observation{19, 1}, Observation{40, 2}), false},
		{"no previous version", nil, obj(chain, base...), false},
	}
	for _, c := range cases {
		if got := c.o.SameWindow(c.prev, ts, te); got != c.want {
			t.Errorf("%s: SameWindow = %v, want %v", c.name, got, c.want)
		}
	}
}
