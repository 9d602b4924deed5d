package query

import (
	"reflect"
	"strings"
	"testing"

	"pnn/internal/inference"
	"pnn/internal/mcrand"
	"pnn/internal/space"
	"pnn/internal/uncertain"
)

// planFixture returns a three-object line database's space, a query
// and every object's adapted sampler; row i is object i.
func planFixture(t *testing.T) (*space.Space, Query, []*inference.Sampler) {
	t.Helper()
	sp, _, eng := lineDB(t, 600,
		[]uncertain.Observation{{T: 0, State: 30}, {T: 6, State: 32}},
		[]uncertain.Observation{{T: 0, State: 34}, {T: 6, State: 30}},
		[]uncertain.Observation{{T: 0, State: 26}, {T: 6, State: 28}},
	)
	smps := make([]*inference.Sampler, 3)
	for i := range smps {
		s, _, err := eng.SamplerCached(i)
		if err != nil {
			t.Fatal(err)
		}
		smps[i] = s
	}
	return sp, StateQuery(sp.Point(30)), smps
}

// rowPlan returns a plan drawing `samples` worlds over the window [1, 5]
// in which row i draws from mcrand.SubSeed(seed, i), as the shard
// executor seeds the row of object i.
func rowPlan(sp *space.Space, q Query, smps []*inference.Sampler, seed int64, samples int) *Plan {
	rngs := make([]mcrand.RNG, len(smps))
	for i := range rngs {
		rngs[i] = mcrand.New(mcrand.SubSeed(seed, i))
	}
	return &Plan{Query: q, Ts: 1, Te: 5, Samplers: smps, RowRngs: rngs, Space: sp, Samples: samples}
}

// TestExecuteValidation covers the plan validation errors.
func TestExecuteValidation(t *testing.T) {
	sp, q, smps := planFixture(t)
	rows := []int{0, 1, 2}
	for _, tc := range []struct {
		name string
		edit func(*Plan)
		want string
	}{
		{"zero query", func(p *Plan) { p.Query = Query{} }, "zero Query"},
		{"inverted interval", func(p *Plan) { p.Ts, p.Te = 5, 1 }, "inverted interval"},
		{"no space", func(p *Plan) { p.Space = nil }, "no space"},
		{"no samples", func(p *Plan) { p.Samples = 0 }, "samples >= 1"},
		{"rng/sampler mismatch", func(p *Plan) { p.RowRngs = p.RowRngs[:1] }, "row generators"},
		// A row with a sampler but no generator has nothing to draw from.
		{"samplers without generators", func(p *Plan) { p.RowRngs = nil }, "0 row generators for 3 rows"},
		{"replay mixed with samplers", func(p *Plan) { p.Replay = make([][]int32, 3) }, "mixes replay"},
		{"negative floor", func(p *Plan) { p.MinWorlds = -1 }, "min worlds"},
	} {
		pl := rowPlan(sp, q, smps, 1, 100)
		pl.Attach(NewCountEvaluator(1, true, rows))
		tc.edit(pl)
		if _, err := ExecutePlan(pl); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}

	// No evaluators, or no samplers: a no-op, not an error.
	if es, err := ExecutePlan(rowPlan(sp, q, smps, 1, 100)); err != nil || es.Worlds != 0 {
		t.Errorf("evaluator-less plan: %+v, %v", es, err)
	}
	ev := NewCountEvaluator(1, true, nil)
	empty := &Plan{Query: q, Ts: 1, Te: 5, Space: sp, Samples: 100}
	empty.Attach(ev)
	if _, err := ExecutePlan(empty); err != nil {
		t.Errorf("sampler-less plan: %v", err)
	}
	if got := ev.Counts(); len(got) != 0 {
		t.Errorf("sampler-less counts = %v", got)
	}
}

// TestExecuteSharedEvaluators pins the coalescing property the batch
// layer builds on: two evaluators attached to one plan see the same
// worlds, so the ∀ count can never exceed the ∃ count for any row, and
// re-executing an identical plan reproduces both counts exactly.
func TestExecuteSharedEvaluators(t *testing.T) {
	sp, q, smps := planFixture(t)
	rows := []int{0, 1, 2}
	run := func() ([]int, []int) {
		fa := NewCountEvaluator(1, true, rows)
		ex := NewCountEvaluator(1, false, rows)
		pl := rowPlan(sp, q, smps, 99, 600)
		pl.Attach(fa)
		pl.Attach(ex)
		if _, err := ExecutePlan(pl); err != nil {
			t.Fatal(err)
		}
		return fa.Counts(), ex.Counts()
	}
	fa1, ex1 := run()
	for i := range rows {
		if fa1[i] > ex1[i] {
			t.Errorf("row %d: ∀ count %d exceeds ∃ count %d on the same worlds", i, fa1[i], ex1[i])
		}
	}
	total := 0
	for _, c := range ex1 {
		total += c
	}
	if total == 0 {
		t.Fatal("no world had any nearest neighbor; fixture is broken")
	}
	fa2, ex2 := run()
	if !reflect.DeepEqual(fa1, fa2) || !reflect.DeepEqual(ex1, ex2) {
		t.Error("re-executing an identical plan changed counts")
	}
}

// TestExecutePerRowMatchesAnyGrouping: the drawn worlds are independent
// of the worker count and the FillGroups partition, because every row
// draws from its private generator.
func TestExecutePerRowMatchesAnyGrouping(t *testing.T) {
	sp, q, smps := planFixture(t)
	run := func(groups [][]int, workers int) []int {
		ev := NewCountEvaluator(1, false, []int{0, 1, 2})
		pl := rowPlan(sp, q, smps, 7, 600)
		pl.FillGroups, pl.Workers = groups, workers
		pl.Attach(ev)
		if _, err := ExecutePlan(pl); err != nil {
			t.Fatal(err)
		}
		return ev.Counts()
	}
	base := run(nil, 1)
	for _, tc := range []struct {
		name   string
		groups [][]int
		wk     int
	}{
		{"one-group-parallel", nil, 4},
		{"split-groups", [][]int{{0, 2}, {}, {1}}, 2},
		{"singleton-groups", [][]int{{2}, {0}, {1}}, 3},
	} {
		if got := run(tc.groups, tc.wk); !reflect.DeepEqual(got, base) {
			t.Errorf("%s: counts %v differ from baseline %v", tc.name, got, base)
		}
	}
}
