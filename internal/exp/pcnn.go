package exp

import (
	"fmt"
	"math/rand"

	"pnn/internal/datagen"
	"pnn/internal/query"
	"pnn/internal/shard"
)

// The PCNN experiments (Figures 13, 14) measure the continuous query: TS
// (model adaptation) time, SA (sampling + Apriori lattice) time, and the
// number of returned timestamp sets.

type pcnnPoint struct {
	label   string
	ts, sa  float64 // ms
	sets    float64 // qualifying sets (paper's unprocessed result size)
	maximal float64 // maximal sets actually returned
}

func runPCNN(ds *datagen.Dataset, cfg Config, tau float64, rng *rand.Rand) (pcnnPoint, error) {
	snap, prep, err := prepared(ds.Space, ds.Objects, cfg.Samples, nil)
	if err != nil {
		return pcnnPoint{}, err
	}
	pt := pcnnPoint{ts: prep}
	for qi := 0; qi < cfg.Queries; qi++ {
		qs := datagen.RandomQueryState(ds.Space, rng)
		q := query.StateQuery(ds.Space.Point(qs))
		o := ds.Objects[rng.Intn(len(ds.Objects))]
		ts := o.First().T + 1
		te := ts + 9
		if te >= o.Last().T {
			te = o.Last().T - 1
		}
		if te < ts {
			te = ts
		}
		spec := shard.GroupSpec{Q: q, Ts: ts, Te: te, K: 1, Seed: rng.Int63()}
		ans, st, err := answer(snap, spec, shard.OpCNN, tau)
		if err != nil {
			return pcnnPoint{}, err
		}
		pt.sa += st.RefineTime.Seconds() * 1000
		pt.sets += float64(st.LatticeSets)
		pt.maximal += float64(len(ans.Intervals))
	}
	n := float64(cfg.Queries)
	pt.sa /= n
	pt.sets /= n
	pt.maximal /= n
	return pt, nil
}

// Fig13 varies |D| for PCNN queries at τ=0.5: adaptation time grows with
// the number of relevant objects while more pruners shrink the per-object
// probability of long intervals, reducing the returned sets.
func Fig13(cfg Config) (*Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	sizes := cfg.sweep3(
		[3]int{60, 200, 500},
		[3]int{200, 1000, 2000},
		[3]int{1000, 10000, 20000})
	t := &Table{
		Title:  "Fig 13: PCNN vs database size |D| (tau = 0.5)",
		Note:   "TS = model adaptation, SA = sampling + Apriori lattice; sets counted before maximality filtering",
		Header: []string{"|D|", "TS(ms)", "SA(ms)", "#timestamp sets", "#maximal"},
	}
	for _, d := range sizes {
		dcfg := datagen.DefaultSyntheticConfig()
		dcfg.Objects = d
		dcfg.States = cfg.pick(2000, 10000, 100000)
		// Halve the horizon so enough objects are alive simultaneously to
		// create NN contention; without it one certain winner trivializes
		// the lattice.
		dcfg.Horizon = 2 * dcfg.Lifetime
		ds, err := datagen.Synthetic(dcfg, rng)
		if err != nil {
			return nil, err
		}
		pt, err := runPCNN(ds, cfg, 0.5, rand.New(rand.NewSource(cfg.Seed+7)))
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", d), ms(pt.ts), ms(pt.sa), f1(pt.sets), f1(pt.maximal))
	}
	return t, nil
}

// Fig14 varies τ: small thresholds blow up the qualifying lattice (the
// Apriori candidate sets grow toward 2^|T|), large ones shrink results.
func Fig14(cfg Config) (*Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	dcfg := datagen.DefaultSyntheticConfig()
	dcfg.States = cfg.pick(2000, 10000, 100000)
	dcfg.Objects = cfg.pick(200, 1000, 10000)
	dcfg.Horizon = 2 * dcfg.Lifetime // concurrent objects → NN contention
	ds, err := datagen.Synthetic(dcfg, rng)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Fig 14: PCNN vs probability threshold tau",
		Note:   "TS = model adaptation, SA = sampling + Apriori lattice; identical query workload per row",
		Header: []string{"tau", "TS(ms)", "SA(ms)", "#timestamp sets", "#maximal"},
	}
	for _, tau := range []float64{0.1, 0.5, 0.9} {
		// Reseed per row so every tau faces the same query workload; the
		// sweep then isolates the effect of the threshold.
		pt, err := runPCNN(ds, cfg, tau, rand.New(rand.NewSource(cfg.Seed+7)))
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.1f", tau), ms(pt.ts), ms(pt.sa), f1(pt.sets), f1(pt.maximal))
	}
	return t, nil
}
