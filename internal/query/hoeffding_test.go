package query

import (
	"math"
	"reflect"
	"testing"

	"pnn/internal/inference"
	"pnn/internal/space"
)

// TestHoeffdingEdgeCases pins the degenerate inputs of the bound
// helpers: out-of-range accuracy or confidence never panics and never
// pretends precision it cannot have.
func TestHoeffdingEdgeCases(t *testing.T) {
	for _, tc := range []struct{ eps, delta float64 }{
		{0, 0.05}, {-0.1, 0.05}, {0.05, 0}, {0.05, -1}, {0.05, 1}, {0.05, 1.5},
	} {
		if n := RequiredSamples(tc.eps, tc.delta); n != math.MaxInt32 {
			t.Errorf("RequiredSamples(%v, %v) = %d, want MaxInt32", tc.eps, tc.delta, n)
		}
	}
	for _, tc := range []struct {
		n     int
		delta float64
	}{
		{0, 0.05}, {-5, 0.05}, {100, 0}, {100, -1}, {100, 1}, {100, 2},
	} {
		if eps := ErrorBound(tc.n, tc.delta); eps != 1 {
			t.Errorf("ErrorBound(%d, %v) = %v, want 1 (no information)", tc.n, tc.delta, eps)
		}
	}
}

// TestHoeffdingInverseConsistency: RequiredSamples and ErrorBound are
// inverses — the sample count bought for a target eps yields an error
// bound no worse than eps, and one sample fewer does not.
func TestHoeffdingInverseConsistency(t *testing.T) {
	for _, eps := range []float64{0.2, 0.1, 0.05, 0.01, 0.005} {
		for _, delta := range []float64{0.2, 0.05, 0.01} {
			n := RequiredSamples(eps, delta)
			if got := ErrorBound(n, delta); got > eps {
				t.Errorf("ErrorBound(RequiredSamples(%v, %v)=%d) = %v > %v", eps, delta, n, got, eps)
			}
			if got := ErrorBound(n-1, delta); got <= eps {
				t.Errorf("ErrorBound(%d, %v) = %v <= %v: RequiredSamples overshot", n-1, delta, got, eps)
			}
		}
	}
}

func TestConfidenceValidate(t *testing.T) {
	valid := []Confidence{
		{},
		{Eps: 0.05},
		{Eps: 0.05, Delta: 0.01},
		{Eps: 0.5, MaxSamples: 100000},
		{Eps: 0.999, Delta: 0.999},
	}
	for _, c := range valid {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", c, err)
		}
	}
	invalid := []Confidence{
		{Eps: -0.1},
		{Eps: 1},
		{Eps: 1.5},
		{Delta: 0.05},               // enabled (non-zero) but eps unset
		{MaxSamples: 1000},          // enabled but eps unset
		{Eps: 0.05, Delta: 1},       // delta must stay < 1
		{Eps: 0.05, Delta: -0.5},    // negative delta
		{Eps: 0.05, MaxSamples: -1}, // negative cap
	}
	for _, c := range invalid {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", c)
		}
	}
}

func TestConfidenceDefaults(t *testing.T) {
	if d := (Confidence{Eps: 0.05}).EffDelta(); d != DefaultDelta {
		t.Errorf("EffDelta with unset delta = %v, want %v", d, DefaultDelta)
	}
	if d := (Confidence{Eps: 0.05, Delta: 0.2}).EffDelta(); d != 0.2 {
		t.Errorf("EffDelta = %v, want 0.2", d)
	}
	if b := (Confidence{}).Budget(5000); b != 5000 {
		t.Errorf("disabled Budget = %d, want the fixed 5000", b)
	}
	if b := (Confidence{Eps: 0.05}).Budget(5000); b != 5000 {
		t.Errorf("enabled Budget without cap = %d, want the fixed 5000", b)
	}
	if b := (Confidence{Eps: 0.05, MaxSamples: 80000}).Budget(5000); b != 80000 {
		t.Errorf("enabled Budget with cap = %d, want 80000", b)
	}
	if (Confidence{}).Enabled() {
		t.Error("zero Confidence reports Enabled")
	}
	for _, c := range []Confidence{{Eps: 0.05}, {Delta: 0.1}, {MaxSamples: 3}} {
		if !c.Enabled() {
			t.Errorf("%+v reports disabled", c)
		}
	}
}

// adaptiveFixture runs the plan fixture once at a large fixed budget to
// learn the true-ish row probabilities, then picks a tau that every row
// separates from by a wide margin — the setting where adaptive sampling
// should stop long before the cap. It returns everything needed to
// build fresh plans: the space, query, adapted samplers, rows, tau.
func adaptiveFixture(t *testing.T) (*space.Space, Query, []*inference.Sampler, []int, float64) {
	t.Helper()
	sp, q, smps := planFixture(t)
	rows := []int{0, 1, 2}
	ev := NewCountEvaluator(1, true, rows)
	pl := rowPlan(sp, q, smps, 7, 20000)
	pl.Attach(ev)
	if _, err := ExecutePlan(pl); err != nil {
		t.Fatal(err)
	}
	// Midpoint between the two probability clusters; the fixture has one
	// dominant row, so every estimate sits far from it.
	tau := 0.5
	for i, c := range ev.Counts() {
		p := float64(c) / 20000
		if d := math.Abs(p - tau); d < 0.15 {
			t.Fatalf("fixture drifted: row %d has p=%v too close to tau=%v for a separation test", i, p, tau)
		}
	}
	return sp, q, smps, rows, tau
}

// layouts are the worker counts and fill partitions under which a plan
// must reach the identical stop point and counts.
var layouts = []struct {
	workers int
	groups  [][]int
}{
	{1, nil},
	{3, nil},
	{1, [][]int{{0, 2}, {1}}},
	{3, [][]int{{2}, {0}, {1}}},
}

// runLayouts executes a fresh plan from build under every layout and
// fails unless all of them draw the same worlds, stop at the same point
// and count the same; it returns the first layout's counts and stats.
func runLayouts(t *testing.T, build func() (*Plan, *CountEvaluator)) ([]int, ExecStats) {
	t.Helper()
	var counts []int
	var stats ExecStats
	for i, l := range layouts {
		pl, ev := build()
		pl.Workers, pl.FillGroups = l.workers, l.groups
		es, err := ExecutePlan(pl)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			counts, stats = ev.Counts(), es
			continue
		}
		if es != stats || !reflect.DeepEqual(ev.Counts(), counts) {
			t.Errorf("workers %d groups %v: %+v counts %v, want %+v counts %v",
				l.workers, l.groups, es, ev.Counts(), stats, counts)
		}
	}
	return counts, stats
}

// TestAdaptiveEarlyStop: under a confidence policy with well-separated
// estimates the executor stops at a round boundary far below the cap,
// reports it, and reproduces the identical decision and counts for any
// worker count and fill partition.
func TestAdaptiveEarlyStop(t *testing.T) {
	sp, q, smps, rows, tau := adaptiveFixture(t)
	conf := Confidence{Eps: 0.01, MaxSamples: 50000}
	c1, es1 := runLayouts(t, func() (*Plan, *CountEvaluator) {
		ev := NewCountEvaluator(1, true, rows)
		ev.SetBound(conf, tau)
		pl := rowPlan(sp, q, smps, 7, 50000)
		pl.Confidence = conf
		pl.Attach(ev)
		return pl, ev
	})
	if !es1.EarlyStopped || es1.Worlds >= 50000 {
		t.Fatalf("no early stop: %+v", es1)
	}
	if es1.Worlds%1024 != 0 {
		t.Errorf("stop point %d is not a round boundary", es1.Worlds)
	}
	if es1.ErrorBound != ErrorBound(es1.Worlds, DefaultDelta) {
		t.Errorf("ErrorBound = %v, want %v", es1.ErrorBound, ErrorBound(es1.Worlds, DefaultDelta))
	}
	// Every decided estimate is separated from tau by the final bound.
	for i, c := range c1 {
		p := float64(c) / float64(es1.Worlds)
		if math.Abs(p-tau) <= es1.ErrorBound {
			t.Errorf("row %d stopped undecided: |%v - %v| <= %v", i, p, tau, es1.ErrorBound)
		}
	}
}

// TestAdaptiveAccuracyFallback: with tau = 0 no estimate can ever
// separate downward (|0 − 0| is never > eps), so the executor must fall
// back to the accuracy rule and stop at the first round boundary where
// the error bound reaches Eps.
func TestAdaptiveAccuracyFallback(t *testing.T) {
	sp, q, smps, rows, _ := adaptiveFixture(t)
	conf := Confidence{Eps: 0.05, MaxSamples: 50000}
	_, es := runLayouts(t, func() (*Plan, *CountEvaluator) {
		ev := NewCountEvaluator(1, true, rows)
		ev.SetBound(conf, 0)
		pl := rowPlan(sp, q, smps, 7, 50000)
		pl.Confidence = conf
		pl.Attach(ev)
		return pl, ev
	})
	// RequiredSamples(0.05, 0.05) ≈ 738, rounded up to the 1024-world
	// round boundary.
	if es.Worlds != 1024 {
		t.Errorf("accuracy-rule stop at %d worlds, want 1024", es.Worlds)
	}
	if !es.EarlyStopped {
		t.Error("accuracy-rule stop not reported as early")
	}
	if es.ErrorBound > conf.Eps {
		t.Errorf("final bound %v exceeds requested eps %v", es.ErrorBound, conf.Eps)
	}
}

// TestAdaptiveMatchesFixedWithinBound: the adaptive estimate agrees
// with a fixed large-budget estimate to within the sum of both error
// bounds — early stopping trades worlds for the declared accuracy, not
// for bias.
func TestAdaptiveMatchesFixedWithinBound(t *testing.T) {
	sp, q, smps, rows, tau := adaptiveFixture(t)
	fixed, _ := runLayouts(t, func() (*Plan, *CountEvaluator) {
		ev := NewCountEvaluator(1, true, rows)
		pl := rowPlan(sp, q, smps, 8, 40000)
		pl.Attach(ev)
		return pl, ev
	})
	conf := Confidence{Eps: 0.02, MaxSamples: 40000}
	adaptive, es := runLayouts(t, func() (*Plan, *CountEvaluator) {
		ev := NewCountEvaluator(1, true, rows)
		ev.SetBound(conf, tau)
		pl := rowPlan(sp, q, smps, 7, 40000)
		pl.Confidence = conf
		pl.Attach(ev)
		return pl, ev
	})
	slack := es.ErrorBound + ErrorBound(40000, DefaultDelta)
	for i := range rows {
		pa := float64(adaptive[i]) / float64(es.Worlds)
		pf := float64(fixed[i]) / 40000
		if math.Abs(pa-pf) > slack {
			t.Errorf("row %d: adaptive %v vs fixed %v differ beyond %v", i, pa, pf, slack)
		}
	}
}

// TestAdaptiveDisabledDrawsFixedBudget: the zero policy must leave the
// executor byte-for-byte on the old fixed path.
func TestAdaptiveDisabledDrawsFixedBudget(t *testing.T) {
	sp, q, smps, rows, _ := adaptiveFixture(t)
	_, es := runLayouts(t, func() (*Plan, *CountEvaluator) {
		ev := NewCountEvaluator(1, true, rows)
		ev.SetBound(Confidence{}, 0.5)
		pl := rowPlan(sp, q, smps, 7, 2048)
		pl.Attach(ev)
		return pl, ev
	})
	if es.Worlds != 2048 || es.EarlyStopped {
		t.Errorf("disabled policy: %+v, want exactly the 2048 fixed worlds", es)
	}
}
