package exp

import (
	"math/rand"
	"strconv"
	"time"

	"pnn/internal/datagen"
	"pnn/internal/query"
	"pnn/internal/shard"
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
	type variant struct {
		name    string
		samples int
		setup   func(*shard.Set)
	}
	variants := []variant{
		{"baseline (filter, fixed samples)", cfg.Samples, nil},
		{"no UST filter", cfg.Samples, func(set *shard.Set) {
			set.Snapshot().Parts[0].Engine.DisablePruning()
		}},
		{"hoeffding eps=0.02", query.RequiredSamples(0.02, 0.05), nil},
		{"hoeffding eps=0.05", query.RequiredSamples(0.05, 0.05), nil},
		{"parallel x4", cfg.Samples, func(set *shard.Set) { set.SetParallelism(4) }},
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
		snap, _, err := prepared(ds.Space, ds.Objects, v.samples, v.setup)
		if err != nil {
			return nil, err
		}
		var total time.Duration
		var infl float64
		qrng := rand.New(rand.NewSource(cfg.Seed + 99))
		for _, sp := range qs {
			spec := shard.GroupSpec{Q: sp.q, Ts: sp.ts, Te: sp.te, K: 1, Seed: qrng.Int63()}
			_, st, err := answer(snap, spec, shard.OpForAll, 0)
			if err != nil {
				return nil, err
			}
			total += st.RefineTime
			infl += float64(st.Influencers)
		}
		n := float64(len(qs))
		t.AddRow(v.name,
			itoa(v.samples),
			ms(total.Seconds()*1000/n),
			f1(infl/n))
	}
	return t, nil
}

func itoa(v int) string { return strconv.Itoa(v) }
