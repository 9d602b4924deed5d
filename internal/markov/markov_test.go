package markov

import (
	"math"
	"testing"

	"pnn/internal/sparse"
)

func chain2(t *testing.T) *sparse.CSR {
	t.Helper()
	m, err := sparse.NewCSR(2, []sparse.Triplet{
		{Row: 0, Col: 0, Val: 0.5}, {Row: 0, Col: 1, Val: 0.5},
		{Row: 1, Col: 1, Val: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestHomogeneous(t *testing.T) {
	m := chain2(t)
	h, err := NewHomogeneous(m)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumStates() != 2 {
		t.Errorf("NumStates = %d", h.NumStates())
	}
	if h.At(0) != m || h.At(99) != m {
		t.Error("homogeneous chain should return same matrix at all times")
	}
}

func TestNewHomogeneousRejectsNonStochastic(t *testing.T) {
	bad, err := sparse.NewCSR(2, []sparse.Triplet{
		{Row: 0, Col: 0, Val: 0.7}, {Row: 1, Col: 1, Val: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewHomogeneous(bad); err == nil {
		t.Error("expected stochasticity error")
	}
}

func TestPiecewise(t *testing.T) {
	m1 := chain2(t)
	m2, err := sparse.NewCSR(2, []sparse.Triplet{
		{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 0, Val: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPiecewise([]int{0, 5}, []*sparse.CSR{m1, m2})
	if err != nil {
		t.Fatal(err)
	}
	if p.At(0) != m1 || p.At(4) != m1 {
		t.Error("epoch 0 should use m1")
	}
	if p.At(5) != m2 || p.At(100) != m2 {
		t.Error("epoch 1 should use m2")
	}
	if p.At(-3) != m1 {
		t.Error("times before first start should clamp to first epoch")
	}
}

func TestPiecewiseValidation(t *testing.T) {
	m := chain2(t)
	if _, err := NewPiecewise(nil, nil); err == nil {
		t.Error("expected error for empty chain")
	}
	if _, err := NewPiecewise([]int{0, 0}, []*sparse.CSR{m, m}); err == nil {
		t.Error("expected error for non-increasing starts")
	}
	m3, _ := sparse.NewCSR(3, []sparse.Triplet{
		{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 1}, {Row: 2, Col: 2, Val: 1},
	})
	if _, err := NewPiecewise([]int{0, 1}, []*sparse.CSR{m, m3}); err == nil {
		t.Error("expected dimension mismatch error")
	}
}

func TestPropagate(t *testing.T) {
	h, err := NewHomogeneous(chain2(t))
	if err != nil {
		t.Fatal(err)
	}
	v := sparse.UnitVec(0)
	got := Propagate(h, v, 0, 2)
	// After 2 steps from state 0: P(0)=0.25, P(1)=0.75.
	want := sparse.Vec{0: 0.25, 1: 0.75}
	if !got.Equal(want, 1e-12) {
		t.Errorf("Propagate = %v, want %v", got, want)
	}
	// Zero steps returns a copy.
	same := Propagate(h, v, 3, 3)
	if !same.Equal(v, 0) {
		t.Error("zero-length propagation should be identity")
	}
	same[0] = 99
	if v[0] == 99 {
		t.Error("Propagate must not alias its input")
	}
	if math.Abs(got.Sum()-1) > 1e-12 {
		t.Errorf("mass not preserved: %v", got.Sum())
	}
}
