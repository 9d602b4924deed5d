package exp

import (
	"fmt"
	"math"
	"math/rand"

	"pnn/internal/inference"
	"pnn/internal/markov"
	"pnn/internal/query"
	"pnn/internal/shard"
	"pnn/internal/space"
	"pnn/internal/uncertain"
)

// Fig10 reproduces the sampling-efficiency experiment: the expected number
// of trajectory draws required to obtain ONE sample consistent with all
// observations, as a function of the number of observations. TS1 (full-
// trajectory rejection) grows exponentially, TS2 (segment-wise rejection)
// linearly, and the forward-backward sampler needs exactly one draw by
// construction. Expected counts are computed analytically by exact forward
// propagation; an empirical column validates them where affordable.
func Fig10(cfg Config) (*Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	sp, err := space.Synthetic(1200, 8, rng)
	if err != nil {
		return nil, err
	}
	chain, err := markov.NewHomogeneous(sp.TransitionMatrix(0.5))
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:  "Fig 10: sample attempts per valid trajectory vs #observations",
		Note:   "TS1 = full-trajectory rejection, TS2 = segment-wise, FB = forward-backward (this paper)",
		Header: []string{"#obs", "TS1(expected)", "TS2(expected)", "TS1(empirical)", "FB"},
	}
	maxObs := 5
	if cfg.Paper {
		maxObs = 7
	}
	for nObs := 2; nObs <= maxObs; nObs++ {
		// Average the analytic expectations over several random objects.
		var ts1Sum, ts2Sum, empSum float64
		var empCount int
		const reps = 5
		for r := 0; r < reps; r++ {
			o, err := randomObject(sp, chain, rng, nObs, 4)
			if err != nil {
				return nil, err
			}
			e1, e2 := inference.ExpectedRejectionCost(o)
			ts1Sum += e1
			ts2Sum += e2
			// Empirical check only while the expectation is affordable.
			if e1 < 5000 {
				res, err := inference.RejectionSample(o, rng, 1<<22)
				if err == nil {
					empSum += float64(res.Attempts)
					empCount++
				}
			}
		}
		emp := "-"
		if empCount > 0 {
			emp = f1(empSum / float64(empCount))
		}
		t.AddRow(fmt.Sprintf("%d", nObs), f1(ts1Sum/reps), f1(ts2Sum/reps), emp, "1.0")
	}
	return t, nil
}

// walkObject builds an object whose ground truth is a chain random walk of
// the given lifetime starting at `start`, observed every `gap` tics —
// consistent by construction.
func walkObject(sp *space.Space, chain markov.Chain, rng *rand.Rand, id, start, lifetime, gap int) (*uncertain.Object, error) {
	cur := start
	states := []int{cur}
	m := chain.At(0)
	for len(states) <= lifetime {
		cols, vals := m.Row(cur)
		u := rng.Float64()
		acc := 0.0
		next := int(cols[len(cols)-1])
		for k, v := range vals {
			acc += v
			if u <= acc {
				next = int(cols[k])
				break
			}
		}
		cur = next
		states = append(states, cur)
	}
	var obs []uncertain.Observation
	for t := 0; t <= lifetime; t += gap {
		obs = append(obs, uncertain.Observation{T: t, State: states[t]})
	}
	if (lifetime % gap) != 0 {
		obs = append(obs, uncertain.Observation{T: lifetime, State: states[lifetime]})
	}
	return uncertain.NewObject(id, obs, chain)
}

// randomObject builds an object with nObs observations spaced `gap` tics
// apart along a random network walk (so observations are always
// consistent).
func randomObject(sp *space.Space, chain markov.Chain, rng *rand.Rand, nObs, gap int) (*uncertain.Object, error) {
	lifetime := (nObs - 1) * gap
	// Random walk under the chain itself guarantees consistency.
	cur := rng.Intn(sp.Len())
	states := []int{cur}
	m := chain.At(0)
	for len(states) <= lifetime {
		cols, vals := m.Row(cur)
		u := rng.Float64()
		acc := 0.0
		next := int(cols[len(cols)-1])
		for k, v := range vals {
			acc += v
			if u <= acc {
				next = int(cols[k])
				break
			}
		}
		cur = next
		states = append(states, cur)
	}
	var obs []uncertain.Observation
	for k := 0; k < nObs; k++ {
		obs = append(obs, uncertain.Observation{T: k * gap, State: states[k*gap]})
	}
	return uncertain.NewObject(0, obs, chain)
}

// Fig11 reproduces the effectiveness scatter plot: against a high-sample
// reference (REF), the paper's sampler (SA) is unbiased while the snapshot
// estimator (SS, [19]) underestimates P∀NN and overestimates P∃NN. The
// table reports mean signed deviation from REF over many random queries.
func Fig11(cfg Config) (*Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	scenarios := cfg.pick(4, 6, 12)
	refSamples := cfg.pick(30000, 80000, 1000000)
	saSamples := cfg.Samples
	if cfg.Paper {
		saSamples = 10000
	}

	// One shared space and chain; per scenario a handful of objects
	// clustered around the query anchor, so NN probabilities are
	// genuinely fractional (v = 0.2-style slack comes from random walks).
	sp, err := space.Synthetic(1200, 8, rng)
	if err != nil {
		return nil, err
	}
	chain, err := markov.NewHomogeneous(sp.TransitionMatrix(0.5))
	if err != nil {
		return nil, err
	}

	var saAllErr, ssAllErr, saExErr, ssExErr []float64
	for sc := 0; sc < scenarios; sc++ {
		anchor := rng.Intn(sp.Len())
		anchorPt := sp.Point(anchor)
		nearby := sp.StatesWithin(anchorPt, 0.08)
		var objs []*uncertain.Object
		for id := 0; id < 5; id++ {
			start := nearby[rng.Intn(len(nearby))]
			o, err := walkObject(sp, chain, rng, id, start, 30, 10)
			if err != nil {
				return nil, err
			}
			objs = append(objs, o)
		}
		q := query.StateQuery(anchorPt)
		const ts, te = 12, 16 // |T| = 5 as in the paper

		// estimate answers P∀NN and P∃NN over one shared set of `samples`
		// worlds, as probability maps keyed by object ID (= index in objs).
		estimate := func(samples int) (forall, exists map[int]float64, err error) {
			set, err := shard.New(sp, objs, samples, 1)
			if err != nil {
				return nil, nil, err
			}
			spec := shard.GroupSpec{Q: q, Ts: ts, Te: te, K: 1, Seed: rng.Int63()}
			ans, _, err := set.Snapshot().RunShared(spec, []shard.GroupItem{{Op: shard.OpForAll}, {Op: shard.OpExists}})
			if err != nil {
				return nil, nil, err
			}
			return probs(ans[0].Results), probs(ans[1].Results), nil
		}
		refAllM, refExM, err := estimate(refSamples)
		if err != nil {
			return nil, err
		}
		saAllM, saExM, err := estimate(saSamples)
		if err != nil {
			return nil, err
		}

		var models []*inference.Model
		for _, o := range objs {
			m, err := inference.Adapt(o)
			if err != nil {
				return nil, err
			}
			models = append(models, m)
		}
		ss := query.NewSnapshotEstimator(sp, models)
		ssAll := ss.ForAllNN(q, ts, te)
		ssEx := ss.ExistsNN(q, ts, te)

		for oi := range objs {
			if refAllM[oi] > 0.001 {
				saAllErr = append(saAllErr, saAllM[oi]-refAllM[oi])
				ssAllErr = append(ssAllErr, ssAll[oi]-refAllM[oi])
			}
			if refExM[oi] > 0.001 {
				saExErr = append(saExErr, saExM[oi]-refExM[oi])
				ssExErr = append(ssExErr, ssEx[oi]-refExM[oi])
			}
		}
	}
	t := &Table{
		Title:  "Fig 11: estimation bias against reference probabilities",
		Note:   "mean signed deviation from REF; SA ≈ 0, SS < 0 for ∀ and > 0 for ∃",
		Header: []string{"estimator", "semantics", "mean bias", "mean |error|", "points"},
	}
	add := func(name, sem string, errs []float64) {
		var sum, abs float64
		for _, e := range errs {
			sum += e
			abs += math.Abs(e)
		}
		n := float64(len(errs))
		if n == 0 {
			n = 1
		}
		t.AddRow(name, sem, f3(sum/n), f3(abs/n), fmt.Sprintf("%d", len(errs)))
	}
	add("SA", "P∀NN", saAllErr)
	add("SS", "P∀NN", ssAllErr)
	add("SA", "P∃NN", saExErr)
	add("SS", "P∃NN", ssExErr)
	return t, nil
}

// probs maps each result's object ID to its probability.
func probs(rs []shard.Result) map[int]float64 {
	m := make(map[int]float64, len(rs))
	for _, r := range rs {
		m[r.ID] = r.Prob
	}
	return m
}
