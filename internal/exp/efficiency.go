package exp

import (
	"fmt"
	"math/rand"

	"pnn/internal/datagen"
	"pnn/internal/query"
	"pnn/internal/shard"
)

// The efficiency experiments (Figures 6-9) measure, per parameter setting:
//
//	TS — time to initialize the trajectory sampler (adapt the a-posteriori
//	     models of the refinement set),
//	FA — time to sample and evaluate the P∀NNQ,
//	EX — time to sample and evaluate the P∃NNQ,
//	|C(q)| and |I(q)| — candidate and influence set sizes.
//
// Queries use uniformly drawn query states and an interval placed inside
// the database horizon, as in Section 7.

type effPoint struct {
	label       string
	ts, fa, ex  float64 // milliseconds
	cands, infl float64
}

// runEfficiency executes cfg.Queries queries against one dataset and
// averages the measurements. TS is the one-off sampler initialization of
// the whole database ("this phase can be performed once and used for all
// queries", Section 7.1); FA and EX are per-query sampling/evaluation.
func runEfficiency(ds *datagen.Dataset, cfg Config, intervalLen int, rng *rand.Rand) (effPoint, error) {
	snap, prep, err := prepared(ds.Space, ds.Objects, cfg.Samples, nil)
	if err != nil {
		return effPoint{}, err
	}
	pt := effPoint{ts: prep}
	for qi := 0; qi < cfg.Queries; qi++ {
		qs := datagen.RandomQueryState(ds.Space, rng)
		q := query.StateQuery(ds.Space.Point(qs))
		// Anchor the interval on a random alive object so queries do not
		// land in empty time regions.
		o := ds.Objects[rng.Intn(len(ds.Objects))]
		ts := o.First().T + 1
		te := ts + intervalLen - 1
		if te >= o.Last().T {
			te = o.Last().T - 1
		}
		if te < ts {
			te = ts
		}
		spec := shard.GroupSpec{Q: q, Ts: ts, Te: te, K: 1, Seed: rng.Int63()}
		_, stFA, err := answer(snap, spec, shard.OpForAll, 0)
		if err != nil {
			return effPoint{}, err
		}
		_, stEX, err := answer(snap, spec, shard.OpExists, 0)
		if err != nil {
			return effPoint{}, err
		}
		pt.fa += stFA.RefineTime.Seconds() * 1000
		pt.ex += stEX.RefineTime.Seconds() * 1000
		pt.cands += float64(stFA.Candidates)
		pt.infl += float64(stFA.Influencers)
	}
	n := float64(cfg.Queries)
	pt.fa /= n
	pt.ex /= n
	pt.cands /= n
	pt.infl /= n
	return pt, nil
}

func efficiencyTable(title, param string, pts []effPoint) *Table {
	t := &Table{
		Title:  title,
		Note:   "times in ms per query; counts averaged over queries",
		Header: []string{param, "TS(ms)", "FA(ms)", "EX(ms)", "|C(q)|", "|I(q)|"},
	}
	for _, p := range pts {
		t.AddRow(p.label, ms(p.ts), ms(p.fa), ms(p.ex), f1(p.cands), f1(p.infl))
	}
	return t
}

// Fig6 varies the number of states N at constant branching factor: larger
// spaces make adaptation costlier (TS grows) but pruning sharper (|C|,
// |I| shrink), so refinement gets cheaper.
func Fig6(cfg Config) (*Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	sizes := cfg.sweep3(
		[3]int{600, 2000, 6000},
		[3]int{2000, 10000, 50000},
		[3]int{10000, 100000, 500000})
	objects := cfg.pick(150, 1000, 10000)
	var pts []effPoint
	for _, n := range sizes {
		dcfg := datagen.DefaultSyntheticConfig()
		dcfg.States = n
		dcfg.Objects = objects
		ds, err := datagen.Synthetic(dcfg, rng)
		if err != nil {
			return nil, err
		}
		pt, err := runEfficiency(ds, cfg, 10, rng)
		if err != nil {
			return nil, err
		}
		pt.label = fmt.Sprintf("%d", n)
		pts = append(pts, pt)
	}
	return efficiencyTable("Fig 6: varying number of states N", "N", pts), nil
}

// Fig7 varies the branching factor b: more transitions per state raise
// both adaptation and refinement cost and enlarge influence sets.
func Fig7(cfg Config) (*Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var pts []effPoint
	for _, b := range []float64{6, 8, 10} {
		dcfg := datagen.DefaultSyntheticConfig()
		dcfg.Branching = b
		dcfg.States = cfg.pick(2000, 10000, 100000)
		dcfg.Objects = cfg.pick(200, 1000, 10000)
		ds, err := datagen.Synthetic(dcfg, rng)
		if err != nil {
			return nil, err
		}
		pt, err := runEfficiency(ds, cfg, 10, rng)
		if err != nil {
			return nil, err
		}
		pt.label = fmt.Sprintf("%.0f", b)
		pts = append(pts, pt)
	}
	return efficiencyTable("Fig 7: varying branching factor b", "b", pts), nil
}

// Fig8 varies the database size |D|: more objects mean more candidates and
// influencers, hence costlier refinement.
func Fig8(cfg Config) (*Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	sizes := cfg.sweep3(
		[3]int{60, 200, 500},
		[3]int{200, 1000, 2000},
		[3]int{1000, 10000, 20000})
	var pts []effPoint
	for _, d := range sizes {
		dcfg := datagen.DefaultSyntheticConfig()
		dcfg.Objects = d
		dcfg.States = cfg.pick(2000, 10000, 100000)
		ds, err := datagen.Synthetic(dcfg, rng)
		if err != nil {
			return nil, err
		}
		pt, err := runEfficiency(ds, cfg, 10, rng)
		if err != nil {
			return nil, err
		}
		pt.label = fmt.Sprintf("%d", d)
		pts = append(pts, pt)
	}
	return efficiencyTable("Fig 8: varying database size |D|", "|D|", pts), nil
}

// Fig9 repeats the |D| sweep on the taxi dataset (the T-Drive substitute):
// the smaller, denser state space yields more candidates and influencers
// than the synthetic network at equal |D|.
func Fig9(cfg Config) (*Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	sizes := cfg.sweep3(
		[3]int{60, 200, 500},
		[3]int{200, 1000, 2000},
		[3]int{1000, 10000, 20000})
	states := cfg.pick(1500, 7000, 68902)
	var pts []effPoint
	for _, d := range sizes {
		tcfg := datagen.DefaultTaxiConfig()
		tcfg.States = states
		tcfg.Taxis = d
		tcfg.TrainTraces = cfg.pick(300, 3000, 10000)
		ds, err := datagen.Taxi(tcfg, rng)
		if err != nil {
			return nil, err
		}
		pt, err := runEfficiency(ds, cfg, 10, rng)
		if err != nil {
			return nil, err
		}
		pt.label = fmt.Sprintf("%d", d)
		pts = append(pts, pt)
	}
	return efficiencyTable("Fig 9: taxi data, varying |D|", "|D|", pts), nil
}
