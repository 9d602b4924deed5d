package exp

import (
	"fmt"
	"math/rand"

	"pnn/internal/datagen"
	"pnn/internal/inference"
	"pnn/internal/uncertain"
)

// Fig12 reproduces the model-adaptation effectiveness study on the taxi
// dataset: for held-out ground-truth positions, the expected distance
// between each model's predicted distribution and the true position, per
// time offset inside a 30-tic window (three observation gaps at l = 10).
//
// Models compared (Section 7.1 "Effectiveness of the Forward-Backward
// Model"):
//
//	NO  — a-priori chain from the first observation, later ones ignored
//	F   — forward-filtered only (observations up to t)
//	FB  — forward-backward posterior (this paper)
//	U   — uniform over the reachability diamond (cylinders/beads-style)
//	FBU — forward-backward over a uniformized chain
//
// Expected shape: NO ≫ U > F > FBU ≥ FB, with F spiking right before
// observations and FB staying low throughout.
func Fig12(cfg Config) (*Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	tcfg := datagen.DefaultTaxiConfig()
	tcfg.States = cfg.pick(1500, 4000, 68902)
	tcfg.Taxis = cfg.pick(25, 60, 200)
	tcfg.TrainTraces = cfg.pick(300, 3000, 10000)
	tcfg.ObsInterval = 10
	tcfg.Lifetime = 30
	tcfg.Horizon = 31
	ds, err := datagen.Taxi(tcfg, rng)
	if err != nil {
		return nil, err
	}

	const window = 30
	sums := map[string][]float64{}
	counts := make([]int, window+1)
	names := []string{"NO", "F", "FB", "U", "FBU"}
	for _, n := range names {
		sums[n] = make([]float64, window+1)
	}
	reach := uncertain.NewReach()
	for i, o := range ds.Objects {
		truth := ds.Truth[i]
		m, err := inference.Adapt(o)
		if err != nil {
			return nil, err
		}
		u, err := inference.NewUniformDiamondModel(o, reach)
		if err != nil {
			return nil, err
		}
		fbu, err := inference.FBUModel(o)
		if err != nil {
			return nil, err
		}
		models := map[string]inference.MarginalModel{
			"NO":  inference.NewNoObservationModel(o),
			"F":   inference.ForwardModel{M: m},
			"FB":  inference.PosteriorModel{M: m},
			"U":   u,
			"FBU": fbu,
		}
		for off := 0; off <= window; off++ {
			t := o.First().T + off
			if t > o.Last().T {
				break
			}
			trueState, ok := truth.At(t)
			if !ok {
				continue
			}
			truePt := ds.Space.Point(trueState)
			distTo := func(s int) float64 { return ds.Space.Point(s).Dist(truePt) }
			for _, n := range names {
				sums[n][off] += inference.ExpectedError(models[n], t, distTo)
			}
			counts[off]++
		}
	}

	t := &Table{
		Title:  "Fig 12: mean location error of adapted models over time (taxi data)",
		Note:   "expected distance to held-out ground truth; observations every 10 tics",
		Header: []string{"t", "NO", "F", "FB", "U", "FBU"},
	}
	for off := 0; off <= window; off++ {
		if counts[off] == 0 {
			continue
		}
		n := float64(counts[off])
		t.AddRow(fmt.Sprintf("%d", off),
			f3(sums["NO"][off]/n), f3(sums["F"][off]/n), f3(sums["FB"][off]/n),
			f3(sums["U"][off]/n), f3(sums["FBU"][off]/n))
	}
	return t, nil
}

// MeanColumn averages a numeric column of a Fig12-style table; exported
// for shape assertions in tests and for summarizing regenerated figures.
func MeanColumn(t *Table, col string) float64 {
	idx := -1
	for i, h := range t.Header {
		if h == col {
			idx = i
		}
	}
	if idx < 0 {
		panic("exp: unknown column " + col)
	}
	var sum float64
	for _, row := range t.Rows {
		var v float64
		fmt.Sscanf(row[idx], "%f", &v)
		sum += v
	}
	return sum / float64(len(t.Rows))
}
