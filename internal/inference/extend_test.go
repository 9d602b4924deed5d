package inference

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
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
	return NewSampler(m)
}

// sameTables reports where the draw tables of two samplers differ ("" if
// nowhere): their lifetimes, every gap's tables, and the rows at which
// walks enter the gaps.
func sameTables(got, want *Sampler) string {
	switch {
	case got.start != want.start || got.end != want.end:
		return fmt.Sprintf("lifetime [%d, %d], want [%d, %d]", got.start, got.end, want.start, want.end)
	case len(got.gaps) != len(want.gaps):
		return fmt.Sprintf("%d gaps, want %d", len(got.gaps), len(want.gaps))
	case !slices.Equal(got.enter, want.enter):
		return fmt.Sprintf("entry rows %v, want %v", got.enter, want.enter)
	}
	for g := range got.gaps {
		if !reflect.DeepEqual(got.gaps[g], want.gaps[g]) {
			return fmt.Sprintf("the tables of gap %d", g)
		}
	}
	return ""
}

// TestExtendSamplerMatchesFullBuild is the model half of "a write costs
// the gap it adds": whatever observations an earlier version lacked — the
// last (an append), a middle one (a late observation splitting a gap),
// the first (a prepend), the last two, or all but one — extending its
// sampler yields, table for table, the sampler a full build of the new
// version yields. Both sweeps restart from an exact unit vector at
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
			if diff := sameTables(got, want); diff != "" {
				t.Errorf("seed %d: extending the sampler without the %s observation differs from the full build in %s", seed, name, diff)
			}
			// The seed was only read: it still equals its own full build.
			if diff := sameTables(prev, fullSampler(t, prevObj)); diff != "" {
				t.Errorf("seed %d: extension modified its seed (prev without %s) in %s", seed, name, diff)
			}
		}
		// Extending from nothing is the full build.
		got, err := ExtendSampler(nil, upd, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if diff := sameTables(got, want); diff != "" {
			t.Errorf("seed %d: ExtendSampler(nil) differs from the full build in %s", seed, diff)
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
	if diff := sameTables(prev, fullSampler(t, prevObj)); diff != "" {
		t.Fatalf("failed extension modified its seed in %s", diff)
	}
	rng, dst := mcrand.New(3), make([]int32, 21)
	if !prev.SampleWindowInto(&rng, 0, 20, dst) || dst[0] != 50 || dst[10] != 55 || dst[20] != 52 {
		t.Fatalf("seed sampler unusable after failed extension: %v", dst)
	}
	good := plus(uncertain.Observation{T: 22, State: 53})
	got, err := ExtendSampler(prev, good, nil)
	if err != nil {
		t.Fatalf("seed does not extend after a failed extension: %v", err)
	}
	if diff := sameTables(got, fullSampler(t, good)); diff != "" {
		t.Fatalf("extension after a failed one differs from the full build in %s", diff)
	}
}

// TestExtendSamplerDrawsMatchFullBuild is the draw half of the property:
// an object grows one observation at a time in random order — appends,
// prepends and gap splits mixed — and every sampler of the ExtendSampler
// chain draws, over random windows and seeds, exactly the columns the
// full build of its version draws. Once the chain is complete, every
// earlier sampler still draws what it drew before.
func TestExtendSamplerDrawsMatchFullBuild(t *testing.T) {
	sp, err := space.Synthetic(600, 8, rand.New(rand.NewSource(78)))
	if err != nil {
		t.Fatal(err)
	}
	chain, err := markov.NewHomogeneous(sp.TransitionMatrix(0.5))
	if err != nil {
		t.Fatal(err)
	}
	draw := func(s *Sampler, ts, te int, seed int64) []int32 {
		rng, dst := mcrand.New(seed), make([]int32, te-ts+1)
		out := make([]int32, 0, 4*len(dst))
		for k := 0; k < 4; k++ {
			s.SampleWindowInto(&rng, ts, te, dst)
			out = append(out, dst...)
		}
		return out
	}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		obs := walkObservations(chain, sp.Len(), 5+rng.Intn(5), rng)
		lo, hi := obs[0].T, obs[len(obs)-1].T
		type window struct {
			ts, te int
			seed   int64
		}
		windows := make([]window, 30)
		for i := range windows {
			ts := lo - 3 + rng.Intn(hi-lo+7)
			windows[i] = window{ts, ts + rng.Intn(hi-lo+4), rng.Int63()}
		}
		var (
			have     []uncertain.Observation
			samplers []*Sampler
			drawn    [][][]int32
			prev     *Sampler
		)
		for _, k := range rng.Perm(len(obs)) {
			have = append(have, obs[k])
			sort.Slice(have, func(i, j int) bool { return have[i].T < have[j].T })
			o, err := uncertain.NewObject(1, slices.Clone(have), chain)
			if err != nil {
				t.Fatal(err)
			}
			if prev, err = ExtendSampler(prev, o, nil); err != nil {
				t.Fatalf("seed %d, %d observations: %v", seed, len(have), err)
			}
			full := fullSampler(t, o)
			var cols [][]int32
			for _, w := range windows {
				got, want := draw(prev, w.ts, w.te, w.seed), draw(full, w.ts, w.te, w.seed)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d, %d observations, window [%d, %d]: extended sampler draws %v, full build %v",
						seed, len(have), w.ts, w.te, got, want)
				}
				cols = append(cols, got)
			}
			samplers = append(samplers, prev)
			drawn = append(drawn, cols)
		}
		for v, s := range samplers {
			for i, w := range windows {
				if got := draw(s, w.ts, w.te, w.seed); !slices.Equal(got, drawn[v][i]) {
					t.Fatalf("seed %d: version %d draws differently once later versions extended it", seed, v)
				}
			}
		}
	}
}
