// Package datagen builds the two evaluation datasets of Section 7: the
// artificial networks ("Artificial Data") and a taxi-fleet dataset standing
// in for the proprietary T-Drive GPS logs ("Real Data" — the logs are not
// public, so a simulator with their structural properties replaces them;
// see TaxiConfig). Both generators keep the discarded
// ground-truth trajectories so effectiveness experiments (Figure 12) can
// measure prediction error against them.
package datagen

import (
	"fmt"
	"math/rand"

	"pnn/internal/markov"
	"pnn/internal/space"
	"pnn/internal/uncertain"
)

// Dataset is a generated uncertain-trajectory database.
type Dataset struct {
	Space   *space.Space
	Chain   markov.Chain
	Objects []*uncertain.Object
	// Truth holds the full ground-truth trajectory of each object (every
	// tic, not only the observed ones), aligned with Objects.
	Truth []uncertain.Path
}

// SyntheticConfig parameterizes the artificial data generator, mirroring
// the knobs of Section 7: N states, average branching factor b, database
// size |D|, object lifetime, database horizon, observation interval i and
// lag parameter v.
type SyntheticConfig struct {
	States      int     // N: number of states
	Branching   float64 // b: average node degree
	Objects     int     // |D|: number of uncertain objects
	Lifetime    int     // tics per object (paper default: 100)
	Horizon     int     // database time horizon (paper default: 1000)
	ObsInterval int     // i: tics between consecutive observations
	Lag         float64 // v ∈ (0, 1]: fraction of tics the object advances
	SelfWeight  float64 // self-loop weight of the a-priori chain
}

// DefaultSyntheticConfig returns the paper's default parameters scaled down
// ~10× so the full experiment suite runs in seconds (cmd/pnnbench -paper
// restores paper scale).
func DefaultSyntheticConfig() SyntheticConfig {
	return SyntheticConfig{
		States:      10000,
		Branching:   8,
		Objects:     1000,
		Lifetime:    100,
		Horizon:     1000,
		ObsInterval: 10,
		Lag:         0.5,
		SelfWeight:  0.5,
	}
}

func (c SyntheticConfig) validate() error {
	switch {
	case c.States < 2:
		return fmt.Errorf("datagen: need at least 2 states, got %d", c.States)
	case c.Branching <= 0:
		return fmt.Errorf("datagen: branching must be positive, got %g", c.Branching)
	case c.Objects < 1:
		return fmt.Errorf("datagen: need at least 1 object, got %d", c.Objects)
	case c.Lifetime < 1:
		return fmt.Errorf("datagen: lifetime must be >= 1, got %d", c.Lifetime)
	case c.Horizon < c.Lifetime:
		return fmt.Errorf("datagen: horizon %d shorter than lifetime %d", c.Horizon, c.Lifetime)
	case c.ObsInterval < 1:
		return fmt.Errorf("datagen: observation interval must be >= 1, got %d", c.ObsInterval)
	case c.Lag <= 0 || c.Lag > 1:
		return fmt.Errorf("datagen: lag must be in (0, 1], got %g", c.Lag)
	case c.SelfWeight <= 0:
		return fmt.Errorf("datagen: self weight must be positive (objects can idle), got %g", c.SelfWeight)
	}
	return nil
}

// Synthetic generates the artificial dataset of Section 7: a uniform
// Euclidean network, a distance-weighted a-priori chain shared by all
// objects, and |D| objects whose ground-truth motion follows shortest paths
// between sampled anchors, slowed down by the lag parameter v. Every l-th
// position (l = ObsInterval) becomes an observation; the rest is kept as
// ground truth.
func Synthetic(cfg SyntheticConfig, rng *rand.Rand) (*Dataset, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sp, err := space.Synthetic(cfg.States, cfg.Branching, rng)
	if err != nil {
		return nil, err
	}
	chain, err := markov.NewHomogeneous(sp.TransitionMatrix(cfg.SelfWeight))
	if err != nil {
		return nil, err
	}
	return buildObjects(sp, chain, cfg, rng)
}

// buildObjects creates objects on an existing space+chain. Shared by the
// synthetic and clustered generators.
func buildObjects(sp *space.Space, chain markov.Chain, cfg SyntheticConfig, rng *rand.Rand) (*Dataset, error) {
	ds := &Dataset{Space: sp, Chain: chain}
	for id := 0; id < cfg.Objects; id++ {
		truth := truthTrajectory(sp, cfg, rng)
		start := 0
		if cfg.Horizon > cfg.Lifetime {
			start = rng.Intn(cfg.Horizon - cfg.Lifetime)
		}
		obs := observe(truth, start, cfg.ObsInterval)
		o, err := uncertain.NewObject(id, obs, chain)
		if err != nil {
			return nil, fmt.Errorf("datagen: object %d: %w", id, err)
		}
		ds.Objects = append(ds.Objects, o)
		ds.Truth = append(ds.Truth, uncertain.Path{Start: start, States: truth})
	}
	return ds, nil
}

// truthTrajectory builds one object's true per-tic state sequence of length
// cfg.Lifetime+1: shortest paths between nearby random anchors, traversed
// at rate v (the object advances one path node on a fraction v of tics and
// idles otherwise).
func truthTrajectory(sp *space.Space, cfg SyntheticConfig, rng *rand.Rand) []int32 {
	// Concatenate shortest-path segments until enough nodes exist.
	nodes := []int{rng.Intn(sp.Len())}
	// Anchors are drawn near the current position so path computation
	// stays local; radius grows with remaining need.
	needed := int(float64(cfg.Lifetime)*cfg.Lag) + 2
	for len(nodes) < needed {
		cur := nodes[len(nodes)-1]
		next := nearbyState(sp, cur, rng)
		seg := sp.ShortestPath(cur, next)
		if len(seg) <= 1 {
			// Unreachable or same node: idle a step to guarantee progress.
			nodes = append(nodes, cur)
			continue
		}
		nodes = append(nodes, seg[1:]...)
	}
	// Stretch the node sequence over the lifetime at rate v.
	out := make([]int32, cfg.Lifetime+1)
	acc := 0.0
	idx := 0
	for t := range out {
		out[t] = int32(nodes[idx])
		acc += cfg.Lag
		for acc >= 1 && idx < len(nodes)-1 {
			acc--
			idx++
		}
	}
	return out
}

// nearbyState picks a random state within a moderate radius of cur,
// falling back to a uniform state when the neighbourhood is empty.
func nearbyState(sp *space.Space, cur int, rng *rand.Rand) int {
	const radius = 0.08
	within := sp.StatesWithin(sp.Point(cur), radius)
	if len(within) <= 1 {
		return rng.Intn(sp.Len())
	}
	return within[rng.Intn(len(within))]
}

// observe turns a truth trajectory into observations every `interval` tics,
// always including the final tic so the object's lifetime is fully covered.
func observe(truth []int32, start, interval int) []uncertain.Observation {
	var obs []uncertain.Observation
	last := len(truth) - 1
	for k := 0; k <= last; k += interval {
		obs = append(obs, uncertain.Observation{T: start + k, State: int(truth[k])})
	}
	if obs[len(obs)-1].T != start+last {
		obs = append(obs, uncertain.Observation{T: start + last, State: int(truth[last])})
	}
	return obs
}

// RandomQueryState draws a uniform query state index, matching the paper's
// "query states uniformly drawn from the underlying state space".
func RandomQueryState(sp *space.Space, rng *rand.Rand) int {
	return rng.Intn(sp.Len())
}
