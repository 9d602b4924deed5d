package inference

import (
	"math/rand"
	"reflect"
	"testing"

	"pnn/internal/markov"
	"pnn/internal/mcrand"
	"pnn/internal/space"
	"pnn/internal/uncertain"
)

// walkObservations returns a random walk of the chain observed every
// few tics: n observations, always consistent with the chain.
func walkObservations(chain markov.Chain, states, n int, rng *rand.Rand) []uncertain.Observation {
	cur := rng.Intn(states)
	obs := []uncertain.Observation{{T: 0, State: cur}}
	for t := 1; len(obs) < n; t++ {
		cols, vals := chain.At(t - 1).Row(cur)
		u, acc := rng.Float64(), 0.0
		next := int(cols[len(cols)-1])
		for k, v := range vals {
			if acc += v; u <= acc {
				next = int(cols[k])
				break
			}
		}
		cur = next
		if t >= obs[len(obs)-1].T+2+rng.Intn(5) {
			obs = append(obs, uncertain.Observation{T: t, State: cur})
		}
	}
	return obs
}

// fullSampler is the reference build: Algorithm 2 over the whole object.
func fullSampler(t testing.TB, o *uncertain.Object) *Sampler {
	t.Helper()
	m, err := AdaptShared(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSampler(m)
	m.ReleaseReverse()
	return s
}

// TestExtendSamplerMatchesFullBuild is the model half of "a write costs
// the gap it adds": whatever observations an earlier version lacked — the
// last (an append), a middle one (a late observation splitting a gap),
// the first (a prepend), the last two, or all but one — extending its
// sampler yields, element for element, the sampler a full build of the
// new version yields. Both sweeps restart from an exact unit vector at
// each observation, so a gap's matrices never see another gap.
func TestExtendSamplerMatchesFullBuild(t *testing.T) {
	sp, err := space.Synthetic(600, 8, rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	chain, err := markov.NewHomogeneous(sp.TransitionMatrix(0.5))
	if err != nil {
		t.Fatal(err)
	}
	without := func(obs []uncertain.Observation, drop ...int) []uncertain.Observation {
		var out []uncertain.Observation
		for i, ob := range obs {
			dropped := false
			for _, d := range drop {
				dropped = dropped || d == i
			}
			if !dropped {
				out = append(out, ob)
			}
		}
		return out
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(6)
		obs := walkObservations(chain, sp.Len(), n, rng)
		upd, err := uncertain.NewObject(1, obs, chain)
		if err != nil {
			t.Fatal(err)
		}
		want := fullSampler(t, upd)
		prevs := map[string][]uncertain.Observation{
			"last":        without(obs, n-1),
			"middle":      without(obs, 1+rng.Intn(n-2)),
			"first":       without(obs, 0),
			"last two":    without(obs, n-2, n-1),
			"all but one": obs[:1],
		}
		for name, pobs := range prevs {
			prevObj, err := uncertain.NewObject(1, pobs, chain)
			if err != nil {
				t.Fatal(err)
			}
			prev := fullSampler(t, prevObj)
			got, err := ExtendSampler(prev, upd, nil)
			if err != nil {
				t.Fatalf("seed %d, prev without %s: %v", seed, name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d: extending the sampler without the %s observation differs from the full build", seed, name)
			}
			// The seed was only read: it still equals its own full build.
			if !reflect.DeepEqual(prev, fullSampler(t, prevObj)) {
				t.Errorf("seed %d: extension modified its seed (prev without %s)", seed, name)
			}
		}
		// Extending from nothing is the full build.
		if got, err := ExtendSampler(nil, upd, nil); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: ExtendSampler(nil) differs from the full build (err %v)", seed, err)
		}
	}
}

// TestExtendSamplerContradiction: an extension the chain cannot realize
// returns the error the full build returns and leaves the seed usable.
func TestExtendSamplerContradiction(t *testing.T) {
	obs := []uncertain.Observation{{T: 0, State: 50}, {T: 10, State: 55}, {T: 20, State: 52}}
	prevObj := lineObject(t, 101, 1, obs)
	prev := fullSampler(t, prevObj)
	// The same chain, so the two gaps above are shared with prev.
	plus := func(ob uncertain.Observation) *uncertain.Object {
		o, err := uncertain.NewObject(1, append(obs[:3:3], ob), prevObj.Chain)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	bad := plus(uncertain.Observation{T: 22, State: 90})

	_, wantErr := AdaptShared(bad, nil)
	if wantErr == nil {
		t.Fatal("fixture does not contradict its chain")
	}
	if _, err := ExtendSampler(prev, bad, nil); err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("ExtendSampler error = %v, want %v", err, wantErr)
	}
	if !reflect.DeepEqual(prev, fullSampler(t, prevObj)) {
		t.Fatal("failed extension modified its seed")
	}
	rng, dst := mcrand.New(3), make([]int32, 21)
	if !prev.SampleWindowInto(&rng, 0, 20, dst) || dst[0] != 50 || dst[10] != 55 || dst[20] != 52 {
		t.Fatalf("seed sampler unusable after failed extension: %v", dst)
	}
	good := plus(uncertain.Observation{T: 22, State: 53})
	if got, err := ExtendSampler(prev, good, nil); err != nil || !reflect.DeepEqual(got, fullSampler(t, good)) {
		t.Fatalf("seed does not extend after a failed extension (err %v)", err)
	}
}
