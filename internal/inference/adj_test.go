package inference

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"pnn/internal/mcrand"
	"pnn/internal/uncertain"
)

func TestAdjBuilderBasic(t *testing.T) {
	b := newAdjBuilder()
	// Rows emitted out of order, columns ascending per row.
	tris := []triple{
		{r: 7, c: 1, p: 1},
		{r: 3, c: 2, p: 2},
		{r: 7, c: 5, p: 3},
		{r: 3, c: 9, p: 2},
	}
	a, sums := b.build(tris)
	if len(a.src) != 2 || a.src[0] != 3 || a.src[1] != 7 {
		t.Fatalf("src = %v, want [3 7]", a.src)
	}
	cols, vals := a.row(3)
	if len(cols) != 2 || cols[0] != 2 || cols[1] != 9 {
		t.Errorf("row 3 cols = %v", cols)
	}
	if math.Abs(vals[0]-0.5) > 1e-15 || math.Abs(vals[1]-0.5) > 1e-15 {
		t.Errorf("row 3 not normalized: %v", vals)
	}
	cols, vals = a.row(7)
	if math.Abs(vals[0]-0.25) > 1e-15 || math.Abs(vals[1]-0.75) > 1e-15 {
		t.Errorf("row 7 vals = %v", vals)
	}
	_ = cols
	if sums.find(3) != 4 || sums.find(7) != 4 {
		t.Errorf("sums = %+v", sums)
	}
	if sums.find(99) != 0 {
		t.Error("missing state should have sum 0")
	}
	// Absent rows.
	if c, _ := a.row(5); c != nil {
		t.Errorf("absent row = %v", c)
	}
	if a.rowIndex(2) != -1 || a.rowIndex(8) != -1 {
		t.Error("rowIndex for absent states should be -1")
	}
}

func TestAdjBuilderReuse(t *testing.T) {
	b := newAdjBuilder()
	a1, _ := b.build([]triple{{r: 1, c: 2, p: 1}})
	a2, _ := b.build([]triple{{r: 5, c: 6, p: 1}, {r: 4, c: 0, p: 2}})
	// First result must be unaffected by the second build.
	if len(a1.src) != 1 || a1.src[0] != 1 {
		t.Errorf("a1 corrupted by reuse: %v", a1.src)
	}
	if len(a2.src) != 2 || a2.src[0] != 4 || a2.src[1] != 5 {
		t.Errorf("a2 = %v", a2.src)
	}
	// Row states far past the slot arrays' capacity grow them mid-build,
	// and a later build over small states must not see the large ones.
	a3, _ := b.build([]triple{{r: 4, c: 1, p: 1}, {r: 70000, c: 2, p: 1}, {r: 4, c: 3, p: 1}})
	a4, _ := b.build([]triple{{r: 5, c: 0, p: 1}})
	if len(a3.src) != 2 || a3.src[0] != 4 || a3.src[1] != 70000 || a3.off[1] != 2 {
		t.Errorf("a3 = %v / %v", a3.src, a3.off)
	}
	if len(a4.src) != 1 || a4.src[0] != 5 {
		t.Errorf("a4 = %v", a4.src)
	}
	if a1.src[0] != 1 || a2.src[0] != 4 || a2.src[1] != 5 {
		t.Errorf("earlier results corrupted by growth: %v, %v", a1.src, a2.src)
	}
}

func TestAdjBuilderEmpty(t *testing.T) {
	b := newAdjBuilder()
	a, sums := b.build(nil)
	if len(a.src) != 0 || len(sums.idx) != 0 {
		t.Errorf("empty build: %v, %v", a.src, sums.idx)
	}
	if len(a.off) != 1 {
		t.Errorf("off = %v, want [0]", a.off)
	}
}

func TestAdjToRowMap(t *testing.T) {
	b := newAdjBuilder()
	a, _ := b.build([]triple{
		{r: 2, c: 1, p: 1},
		{r: 2, c: 3, p: 3},
	})
	rm := a.toRowMap()
	if math.Abs(rm.At(2, 1)-0.25) > 1e-15 || math.Abs(rm.At(2, 3)-0.75) > 1e-15 {
		t.Errorf("toRowMap = %v", rm)
	}
	var nilAdj *adj
	if nilAdj.toRowMap() != nil {
		t.Error("nil adj should convert to nil RowMap")
	}
}

// randomTris emits triples over nRows distinct rows drawn from
// [0, rowSpace), in the sweep pattern (ascending c per r, grouped by c
// as when the forward sweep's outer loop ascends over sources), and
// returns them with the naive row maps they describe.
func randomTris(rng *rand.Rand, rowSpace, nRows int) ([]triple, map[int32]map[int32]float64) {
	var tris []triple
	naive := map[int32]map[int32]float64{}
	usedRows := rng.Perm(rowSpace)[:nRows]
	for c := int32(0); c < 10; c++ {
		for _, ri := range usedRows {
			r := int32(ri)
			if rng.Float64() < 0.5 {
				continue
			}
			p := rng.Float64() + 0.01
			tris = append(tris, triple{r: r, c: c, p: p})
			if naive[r] == nil {
				naive[r] = map[int32]float64{}
			}
			naive[r][c] = p
		}
	}
	return tris, naive
}

// checkNaive compares a build's output with the naive row maps.
func checkNaive(t *testing.T, a *adj, sums svec, naive map[int32]map[int32]float64) {
	t.Helper()
	if len(a.src) != len(naive) {
		t.Fatalf("%d rows, want %d", len(a.src), len(naive))
	}
	for r, row := range naive {
		total := 0.0
		for _, p := range row {
			total += p
		}
		if math.Abs(sums.find(r)-total) > 1e-12 {
			t.Fatalf("sum(%d) = %v, want %v", r, sums.find(r), total)
		}
		cols, vals := a.row(r)
		if len(cols) != len(row) {
			t.Fatalf("row %d has %d entries, want %d", r, len(cols), len(row))
		}
		if !sort.SliceIsSorted(cols, func(i, j int) bool { return cols[i] < cols[j] }) {
			t.Fatalf("row %d cols unsorted: %v", r, cols)
		}
		for k, c := range cols {
			if math.Abs(vals[k]-row[c]/total) > 1e-12 {
				t.Fatalf("entry (%d,%d) = %v, want %v", r, c, vals[k], row[c]/total)
			}
		}
	}
}

func TestAdjBuilderMatchesNaive(t *testing.T) {
	// Property: against a naive map-based construction, the builder
	// produces identical normalized rows, for random inputs emitted in the
	// sweep pattern (ascending c per r).
	rng := rand.New(rand.NewSource(31))
	b := newAdjBuilder()
	for trial := 0; trial < 100; trial++ {
		tris, naive := randomTris(rng, 20, 1+rng.Intn(6))
		a, sums := b.build(tris)
		checkNaive(t, a, sums, naive)
	}
	// The same builder, now over row states that keep outgrowing its
	// slot arrays, interleaved with builds back over small states. Every
	// result is checked again after the last build, which must not have
	// disturbed it.
	type built struct {
		a     *adj
		sums  svec
		naive map[int32]map[int32]float64
	}
	var all []built
	for trial := 0; trial < 120; trial++ {
		rowSpace := 20
		if trial%3 != 0 {
			rowSpace = 20 << (trial / 12)
		}
		tris, naive := randomTris(rng, rowSpace, 1+rng.Intn(20))
		a, sums := b.build(tris)
		checkNaive(t, a, sums, naive)
		all = append(all, built{a, sums, naive})
	}
	if len(b.stamp) < 20<<9 {
		t.Fatalf("slot arrays hold %d states: the rows never outgrew them", len(b.stamp))
	}
	for _, x := range all {
		checkNaive(t, x.a, x.sums, x.naive)
	}
}

func TestAdjBuilderRestrict(t *testing.T) {
	b := newAdjBuilder()
	_, ns := b.build([]triple{{r: 2, c: 0, p: 1}, {r: 5, c: 0, p: 2}, {r: 9, c: 1, p: 3}})
	// The keep set is unordered and reaches past the slot arrays.
	b.restrict(&ns, []int32{90000, 9, 3, 2})
	if !slices.Equal(ns.idx, []int32{2, 9}) || !slices.Equal(ns.val, []float64{1, 3}) {
		t.Fatalf("restricted = %v / %v, want [2 9] / [1 3]", ns.idx, ns.val)
	}
	// A later build sees none of the keep set's stamps.
	a, _ := b.build([]triple{{r: 3, c: 0, p: 1}})
	if !slices.Equal(a.src, []int32{3}) {
		t.Fatalf("build after restrict: src = %v", a.src)
	}
}

func TestSvec(t *testing.T) {
	v := svec{idx: []int32{1, 5, 9}, val: []float64{0.2, 0.3, 0.5}}
	if v.find(5) != 0.3 || v.find(2) != 0 {
		t.Error("find wrong")
	}
	if math.Abs(v.sum()-1) > 1e-15 {
		t.Errorf("sum = %v", v.sum())
	}
	m := v.toVec()
	if m[9] != 0.5 || len(m) != 3 {
		t.Errorf("toVec = %v", m)
	}
	// normalizePruned drops dust and rescales.
	w := svec{idx: []int32{1, 2, 3}, val: []float64{1e-20, 2, 2}}
	if !w.normalizePruned(1e-15) {
		t.Fatal("normalizePruned returned false")
	}
	if len(w.idx) != 2 || w.idx[0] != 2 {
		t.Errorf("pruned idx = %v", w.idx)
	}
	if math.Abs(w.val[0]-0.5) > 1e-15 {
		t.Errorf("val = %v", w.val)
	}
	empty := svec{idx: []int32{1}, val: []float64{1e-20}}
	if empty.normalizePruned(1e-15) {
		t.Error("all-dust vector should report no mass")
	}
}

func TestSampleWindow(t *testing.T) {
	o := lineObject(t, 13, 1, []uncertain.Observation{
		{T: 10, State: 6}, {T: 20, State: 9}, {T: 30, State: 4},
	})
	m, err := Adapt(o)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSampler(m)
	rng := mcrand.New(2)

	// Window fully inside the lifetime.
	dst := make([]int32, 5)
	if !s.SampleWindowInto(&rng, 14, 18, dst) || slices.Contains(dst, -1) {
		t.Fatalf("window sample = %v", dst)
	}
	// Window clamped at both ends: dead outside [10, 30], and the part
	// inside is a trajectory through every observation.
	dst = make([]int32, 100)
	if !s.SampleWindowInto(&rng, 0, 99, dst) {
		t.Fatal("window covering the lifetime must sample")
	}
	for tt, v := range dst {
		if alive := tt >= 10 && tt <= 30; alive != (v >= 0) {
			t.Fatalf("clamped sample: t=%d holds %d", tt, v)
		}
	}
	if p := (uncertain.Path{Start: 10, States: dst[10:31]}); !p.HitsObservations(o) {
		t.Error("full-window sample must hit observations")
	}
	// Disjoint windows.
	dst = make([]int32, 11)
	if s.SampleWindowInto(&rng, 40, 50, dst) {
		t.Error("disjoint window should report !ok")
	}
	if s.SampleWindowInto(&rng, 0, 5, dst[:6]) {
		t.Error("window before lifetime should report !ok")
	}
}

// TestSampleWindowDistribution verifies the window sampler realizes the
// correct marginal law: empirical state frequencies at each window tic
// match the posterior.
func TestSampleWindowDistribution(t *testing.T) {
	o := lineObject(t, 9, 1, []uncertain.Observation{
		{T: 0, State: 3}, {T: 6, State: 5},
	})
	m, err := Adapt(o)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSampler(m)
	rng := mcrand.New(3)
	const n = 40000
	const ws, we = 2, 4
	counts := map[int]map[int]float64{}
	for tt := ws; tt <= we; tt++ {
		counts[tt] = map[int]float64{}
	}
	dst := make([]int32, we-ws+1)
	for i := 0; i < n; i++ {
		if !s.SampleWindowInto(&rng, ws, we, dst) {
			t.Fatal("window must intersect")
		}
		for tt := ws; tt <= we; tt++ {
			counts[tt][int(dst[tt-ws])] += 1.0 / n
		}
	}
	for tt := ws; tt <= we; tt++ {
		for st, want := range m.Posterior(tt) {
			if got := counts[tt][st]; math.Abs(got-want) > 0.015 {
				t.Errorf("t=%d state %d: empirical %v, posterior %v", tt, st, got, want)
			}
		}
	}
}
