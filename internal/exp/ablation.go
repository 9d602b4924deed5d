package exp

import (
	"math/rand"
	"strconv"
	"time"

	"pnn/internal/datagen"
	"pnn/internal/query"
	"pnn/internal/ustree"
)

// Ablation measures the implementation's main design choices, on one
// synthetic database: the UST-tree filter step (on/off), the sample budget
// (fixed vs. Hoeffding-sized), and query parallelism. Results are average
// per-query refinement times over cfg.Queries P∀NN queries.
func Ablation(cfg Config) (*Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	dcfg := datagen.DefaultSyntheticConfig()
	dcfg.States = cfg.pick(2000, 10000, 100000)
	dcfg.Objects = cfg.pick(200, 1000, 10000)
	ds, err := datagen.Synthetic(dcfg, rng)
	if err != nil {
		return nil, err
	}
	tree, err := ustree.Build(ds.Space, ds.Objects, nil)
	if err != nil {
		return nil, err
	}

	type variant struct {
		name  string
		setup func() *query.Engine
	}
	variants := []variant{
		{"baseline (filter, fixed samples)", func() *query.Engine {
			return query.NewEngine(tree, cfg.Samples)
		}},
		{"no UST filter", func() *query.Engine {
			e := query.NewEngine(tree, cfg.Samples)
			e.DisablePruning()
			return e
		}},
		{"hoeffding eps=0.02", func() *query.Engine {
			return query.NewEngine(tree, query.RequiredSamples(0.02, 0.05))
		}},
		{"hoeffding eps=0.05", func() *query.Engine {
			return query.NewEngine(tree, query.RequiredSamples(0.05, 0.05))
		}},
		{"parallel x4", func() *query.Engine {
			e := query.NewEngine(tree, cfg.Samples)
			e.SetParallelism(4)
			return e
		}},
	}

	// Fixed query workload shared by every variant.
	type qspec struct {
		q      query.Query
		ts, te int
	}
	var qs []qspec
	for i := 0; i < cfg.Queries*3; i++ {
		o := ds.Objects[rng.Intn(len(ds.Objects))]
		ts := o.First().T + 1
		te := ts + 9
		if te >= o.Last().T {
			te = o.Last().T - 1
		}
		if te < ts {
			te = ts
		}
		qs = append(qs, qspec{
			q:  query.StateQuery(ds.Space.Point(datagen.RandomQueryState(ds.Space, rng))),
			ts: ts, te: te,
		})
	}

	t := &Table{
		Title:  "Ablation: filter step, sample budget, parallelism",
		Note:   "average per-query refine time over a fixed P∀NN workload",
		Header: []string{"variant", "worlds", "refine(ms)", "|I(q)| avg"},
	}
	for _, v := range variants {
		eng := v.setup()
		if _, err := eng.PrepareAll(); err != nil {
			return nil, err
		}
		var total time.Duration
		var infl float64
		qrng := rand.New(rand.NewSource(cfg.Seed + 99))
		for _, sp := range qs {
			_, st, err := eng.ForAllNN(sp.q, sp.ts, sp.te, 0, qrng)
			if err != nil {
				return nil, err
			}
			total += st.RefineTime
			infl += float64(st.Influencers)
		}
		n := float64(len(qs))
		t.AddRow(v.name,
			itoa(eng.SampleCount()),
			ms(total.Seconds()*1000/n),
			f1(infl/n))
	}
	return t, nil
}

func itoa(v int) string { return strconv.Itoa(v) }
