package datagen

import (
	"errors"
	"fmt"
	"math/rand"

	"pnn/internal/geo"
	"pnn/internal/markov"
	"pnn/internal/space"
	"pnn/internal/sparse"
	"pnn/internal/uncertain"
)

// TaxiConfig parameterizes the T-Drive substitute: a simulated city road
// network with a dense center and a heterogeneous taxi fleet. The paper's
// real-data experiments use 68 902 map-matched OSM states, one shared
// chain trained from turning probabilities, a 10-second tic, trajectories
// capped at 100 tics and observations every l-th measurement; this
// simulator reproduces those structural properties (the paper's Section 7
// "Real Data"; see PAPER.md).
type TaxiConfig struct {
	States      int     // road-network nodes
	Taxis       int     // fleet size
	Lifetime    int     // tics per taxi trace (paper: 100)
	Horizon     int     // database horizon (paper: 1000)
	ObsInterval int     // l: keep every l-th measurement as observation
	ParkedFrac  float64 // fraction of taxis that mostly idle
	FastFrac    float64 // fraction of through-traffic taxis (rarely idle)
	TrainTraces int     // simulated training traces for the turning model
}

// DefaultTaxiConfig returns a scaled-down city: ~7k nodes (vs 69k),
// 1k taxis.
func DefaultTaxiConfig() TaxiConfig {
	return TaxiConfig{
		States:      7000,
		Taxis:       1000,
		Lifetime:    100,
		Horizon:     1000,
		ObsInterval: 8,
		ParkedFrac:  0.15,
		FastFrac:    0.25,
		TrainTraces: 3000,
	}
}

func (c TaxiConfig) validate() error {
	switch {
	case c.States < 2:
		return errors.New("datagen: taxi network needs at least 2 states")
	case c.Taxis < 1:
		return errors.New("datagen: need at least 1 taxi")
	case c.Lifetime < 1 || c.Horizon < c.Lifetime:
		return fmt.Errorf("datagen: bad lifetime/horizon %d/%d", c.Lifetime, c.Horizon)
	case c.ObsInterval < 1:
		return errors.New("datagen: observation interval must be >= 1")
	case c.ParkedFrac < 0 || c.FastFrac < 0 || c.ParkedFrac+c.FastFrac > 1:
		return errors.New("datagen: taxi class fractions invalid")
	case c.TrainTraces < 1:
		return errors.New("datagen: need at least 1 training trace")
	}
	return nil
}

// Taxi generates the real-data substitute. The pipeline mirrors the
// paper's: (1) build the road network (center-skewed, like Beijing);
// (2) simulate fine-grained taxi traces; (3) aggregate turning
// probabilities into one shared a-priori chain (the paper's "all objects
// utilize the same Markov model M"); (4) take every l-th position of fresh
// traces as observations and keep the rest as ground truth.
func Taxi(cfg TaxiConfig, rng *rand.Rand) (*Dataset, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sp, err := space.Clustered(cfg.States, 4, 0.6, 0.07, 8, rng)
	if err != nil {
		return nil, err
	}

	// Phase 2+3: train the turning model from simulated traces.
	counts := sparse.NewRowMap()
	for tr := 0; tr < cfg.TrainTraces; tr++ {
		trace := taxiTrace(sp, cfg, rng, taxiClass(cfg, rng), 40)
		for k := 1; k < len(trace); k++ {
			counts.Add(int(trace[k-1]), int(trace[k]), 1)
		}
	}
	chain, err := trainChain(sp, counts)
	if err != nil {
		return nil, err
	}

	// Phase 4: the database fleet.
	ds := &Dataset{Space: sp, Chain: chain}
	for id := 0; id < cfg.Taxis; id++ {
		truth := taxiTrace(sp, cfg, rng, taxiClass(cfg, rng), cfg.Lifetime)
		start := 0
		if cfg.Horizon > cfg.Lifetime {
			start = rng.Intn(cfg.Horizon - cfg.Lifetime)
		}
		obs := observe(truth, start, cfg.ObsInterval)
		o, err := uncertain.NewObject(id, obs, chain)
		if err != nil {
			return nil, fmt.Errorf("datagen: taxi %d: %w", id, err)
		}
		ds.Objects = append(ds.Objects, o)
		ds.Truth = append(ds.Truth, uncertain.Path{Start: start, States: truth})
	}
	return ds, nil
}

type class int

const (
	classLocal class = iota
	classFast
	classParked
)

func taxiClass(cfg TaxiConfig, rng *rand.Rand) class {
	u := rng.Float64()
	switch {
	case u < cfg.ParkedFrac:
		return classParked
	case u < cfg.ParkedFrac+cfg.FastFrac:
		return classFast
	default:
		return classLocal
	}
}

// moveProb is the per-tic probability that a taxi of the given class
// advances to a neighbouring node (otherwise it idles). Parked taxis
// barely move, which gives them the wide uncertainty diamonds the paper
// observes; through-traffic rarely stops.
func moveProb(c class) float64 {
	switch c {
	case classParked:
		return 0.05
	case classFast:
		return 0.95
	default:
		return 0.6
	}
}

// taxiTrace simulates one per-tic trace of the given length (lifetime+1
// states). Taxis start anywhere but bias their destinations toward the
// city center, which concentrates the fleet there over time — the paper's
// observation about query cost near the Beijing center.
func taxiTrace(sp *space.Space, cfg TaxiConfig, rng *rand.Rand, c class, lifetime int) []int32 {
	cur := rng.Intn(sp.Len())
	out := make([]int32, lifetime+1)
	out[0] = int32(cur)
	// Current destination path (node indices ahead of us).
	var route []int
	center := sp.NearestState(geo.Point{X: 0.5, Y: 0.5})
	for t := 1; t <= lifetime; t++ {
		if rng.Float64() >= moveProb(c) {
			out[t] = int32(cur) // idle this tic
			continue
		}
		if len(route) == 0 {
			dest := nearbyState(sp, cur, rng)
			if rng.Float64() < 0.4 {
				// Head toward the center area instead.
				dest = nearbyState(sp, center, rng)
			}
			full := sp.ShortestPath(cur, dest)
			if len(full) > 1 {
				route = full[1:]
			}
		}
		if len(route) > 0 {
			cur = route[0]
			route = route[1:]
		}
		out[t] = int32(cur)
	}
	return out
}

// trainChain normalizes transition counts into a stochastic chain. Network
// edges never seen in training get a small smoothing weight so the trained
// model's support covers the whole drivable network (otherwise unseen turns
// would contradict test observations); states never visited fall back to
// the distance-weighted default.
func trainChain(sp *space.Space, counts sparse.RowMap) (markov.Chain, error) {
	const smoothing = 0.1
	m, err := sp.BuildTransitionMatrix(func(i, j int) float64 {
		w := counts.At(i, j)
		return w + smoothing
	})
	if err != nil {
		return nil, err
	}
	return markov.NewHomogeneous(m)
}
