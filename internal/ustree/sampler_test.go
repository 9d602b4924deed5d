package ustree

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"pnn/internal/inference"
	"pnn/internal/markov"
	"pnn/internal/mcrand"
	"pnn/internal/space"
	"pnn/internal/uncertain"
)

// synthWorld is a 600-state synthetic network with a homogeneous chain.
func synthWorld(t testing.TB, seed int64) (*space.Space, markov.Chain) {
	t.Helper()
	sp, err := space.Synthetic(600, 8, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	chain, err := markov.NewHomogeneous(sp.TransitionMatrix(0.5))
	if err != nil {
		t.Fatal(err)
	}
	return sp, chain
}

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
func fullSampler(t testing.TB, o *uncertain.Object) *inference.Sampler {
	t.Helper()
	m, err := inference.AdaptShared(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	return inference.NewSampler(m)
}

// treeSampler returns the tree's sampler of object oi, failing on error.
func treeSampler(t testing.TB, tree *Tree, oi int) *inference.Sampler {
	t.Helper()
	s, _, err := tree.Sampler(oi, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// sharedGaps reports where the gap records of object oi in tree and in
// prev share draw tables, and where they must but do not ("" if
// nowhere): a gap of the same two observations shares prev's record,
// any other gap has a record of its own.
func sharedGaps(tree, prev *Tree, oi int) string {
	o, po := tree.objs[oi], prev.objs[oi]
	for g := range o.Obs[:len(o.Obs)-1] {
		for pg := range po.Obs[:len(po.Obs)-1] {
			same := o.Obs[g] == po.Obs[pg] && o.Obs[g+1] == po.Obs[pg+1]
			if shared := tree.runs[oi].gaps[g].draw == prev.runs[oi].gaps[pg].draw; shared != same {
				return fmt.Sprintf("gap %d against the previous gap %d: shared %v, same observations %v", g, pg, shared, same)
			}
		}
	}
	return ""
}

// TestTreeSamplerMatchesFullBuild is the model half of "a write costs
// the gap it adds": whatever observations an earlier version lacked — the
// last (an append), a middle one (a late observation splitting a gap),
// the first (a prepend), the last two, or all but one — the sampler of
// the tree WithUpdatedObject derives equals, table for table, the
// sampler a full build of the new version yields, while the gaps the two
// versions share keep one table. Both sweeps restart from an exact unit
// vector at each observation, so a gap's matrices never see another gap.
func TestTreeSamplerMatchesFullBuild(t *testing.T) {
	sp, chain := synthWorld(t, 77)
	without := func(obs []uncertain.Observation, drop ...int) []uncertain.Observation {
		var out []uncertain.Observation
		for i, ob := range obs {
			if !slices.Contains(drop, i) {
				out = append(out, ob)
			}
		}
		return out
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(6)
		obs := walkObservations(chain, sp.Len(), n, rng)
		upd := mkObj(t, 1, chain, obs...)
		want := fullSampler(t, upd)
		prevs := map[string][]uncertain.Observation{
			"last":        without(obs, n-1),
			"middle":      without(obs, 1+rng.Intn(n-2)),
			"first":       without(obs, 0),
			"last two":    without(obs, n-2, n-1),
			"all but one": obs[:1],
		}
		for name, pobs := range prevs {
			prevObj := mkObj(t, 1, chain, pobs...)
			prev, err := Build(sp, []*uncertain.Object{prevObj}, nil)
			if err != nil {
				t.Fatal(err)
			}
			treeSampler(t, prev, 0) // the carried gaps' tables are built
			next, err := prev.WithUpdatedObject(0, upd, nil)
			if err != nil {
				t.Fatalf("seed %d, prev without %s: %v", seed, name, err)
			}
			if got := treeSampler(t, next, 0); !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d: the updated sampler (prev without the %s observation) differs from the full build", seed, name)
			}
			if diff := sharedGaps(next, prev, 0); diff != "" {
				t.Errorf("seed %d, prev without %s: %s", seed, name, diff)
			}
			// The previous version was only read: its sampler still
			// equals its own full build.
			if got := treeSampler(t, prev, 0); !reflect.DeepEqual(got, fullSampler(t, prevObj)) {
				t.Errorf("seed %d: the update modified the previous version (without %s)", seed, name)
			}
		}
		// A tree built from nothing holds the full build.
		tree, err := Build(sp, []*uncertain.Object{upd}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := treeSampler(t, tree, 0); !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: a built tree's sampler differs from the full build", seed)
		}
	}
}

// TestTreeSamplerContradiction: an update the chain cannot realize is
// refused and leaves the previous version usable, drawing through its
// observations, and that version still takes a consistent update.
func TestTreeSamplerContradiction(t *testing.T) {
	sp, c := lineWorld(t)
	obs := []uncertain.Observation{{T: 0, State: 50}, {T: 10, State: 55}, {T: 20, State: 52}}
	prevObj := mkObj(t, 1, c, obs...)
	prev, err := Build(sp, []*uncertain.Object{prevObj}, nil)
	if err != nil {
		t.Fatal(err)
	}
	prev.Freeze()
	// The same chain, so the two gaps above are shared with prev.
	plus := func(ob uncertain.Observation) *uncertain.Object {
		return mkObj(t, 1, c, append(obs[:3:3], ob)...)
	}
	bad := plus(uncertain.Observation{T: 22, State: 90})
	if _, err := inference.AdaptShared(bad, nil); err == nil {
		t.Fatal("fixture does not contradict its chain")
	}
	if _, err := prev.WithUpdatedObject(0, bad, nil); err == nil {
		t.Fatal("contradicting update accepted")
	}
	s := treeSampler(t, prev, 0)
	if !reflect.DeepEqual(s, fullSampler(t, prevObj)) {
		t.Fatal("refused update modified the previous version")
	}
	rng, dst := mcrand.New(3), make([]int32, 21)
	if !s.SampleWindowInto(&rng, 0, 20, dst) || dst[0] != 50 || dst[10] != 55 || dst[20] != 52 {
		t.Fatalf("previous version unusable after a refused update: %v", dst)
	}
	good := plus(uncertain.Observation{T: 22, State: 53})
	next, err := prev.WithUpdatedObject(0, good, nil)
	if err != nil {
		t.Fatalf("previous version refuses a consistent update after a contradicting one: %v", err)
	}
	if !reflect.DeepEqual(treeSampler(t, next, 0), fullSampler(t, good)) {
		t.Fatal("update after a refused one differs from the full build")
	}
	if diff := sharedGaps(next, prev, 0); diff != "" {
		t.Fatal(diff)
	}
}

// TestTreeSamplerDrawsMatchFullBuild is the draw half of the property:
// an object grows one observation at a time in random order — appends,
// prepends and gap splits mixed — and every tree version's sampler draws,
// over random windows and seeds, exactly the columns the full build of
// its version draws. Once the history is complete, every earlier version
// still draws what it drew before.
func TestTreeSamplerDrawsMatchFullBuild(t *testing.T) {
	sp, chain := synthWorld(t, 78)
	draw := func(s *inference.Sampler, ts, te int, seed int64) []int32 {
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
			versions []*Tree
			drawn    [][][]int32
			tree     *Tree
		)
		for _, k := range rng.Perm(len(obs)) {
			have = append(have, obs[k])
			sort.Slice(have, func(i, j int) bool { return have[i].T < have[j].T })
			o := mkObj(t, 1, chain, slices.Clone(have)...)
			var err error
			if tree == nil {
				tree, err = Build(sp, []*uncertain.Object{o}, nil)
			} else {
				tree, err = tree.WithUpdatedObject(0, o, nil)
			}
			if err != nil {
				t.Fatalf("seed %d, %d observations: %v", seed, len(have), err)
			}
			tree.Freeze()
			s, full := treeSampler(t, tree, 0), fullSampler(t, o)
			var cols [][]int32
			for _, w := range windows {
				got, want := draw(s, w.ts, w.te, w.seed), draw(full, w.ts, w.te, w.seed)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d, %d observations, window [%d, %d]: tree sampler draws %v, full build %v",
						seed, len(have), w.ts, w.te, got, want)
				}
				cols = append(cols, got)
			}
			versions = append(versions, tree)
			drawn = append(drawn, cols)
		}
		for v, tree := range versions {
			s := treeSampler(t, tree, 0)
			for i, w := range windows {
				if got := draw(s, w.ts, w.te, w.seed); !slices.Equal(got, drawn[v][i]) {
					t.Fatalf("seed %d: version %d draws differently once later versions shared its gaps", seed, v)
				}
			}
		}
	}
}

// TestTreeSamplerSharedGapsRace: two tree versions that share gaps race
// their first sampler lookups from many goroutines. Each object version
// counts exactly one build (an untouched object is one version in both
// trees), each shared gap keeps one record whose table
// both versions use, and the samplers equal their full builds. Run it
// under -race.
func TestTreeSamplerSharedGapsRace(t *testing.T) {
	sp, chain := synthWorld(t, 79)
	rng := rand.New(rand.NewSource(1))
	const objects = 6
	var full, older []*uncertain.Object
	for id := 0; id < objects; id++ {
		obs := walkObservations(chain, sp.Len(), 5, rng)
		full = append(full, mkObj(t, id, chain, obs...))
		older = append(older, mkObj(t, id, chain, obs[:len(obs)-1]...))
	}
	v1, err := Build(sp, older, nil)
	if err != nil {
		t.Fatal(err)
	}
	v1.Freeze()
	// v2 appends the last observation of every even object.
	v2 := v1
	for oi := 0; oi < objects; oi += 2 {
		if v2, err = v2.WithUpdatedObject(oi, full[oi], nil); err != nil {
			t.Fatal(err)
		}
	}
	v2.Freeze()
	versions := []*Tree{v1, v2}

	var builds [2][objects]atomic.Int32
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for k := 0; k < 2*objects; k++ {
				// Every worker walks the lookups in its own order, so
				// first lookups of shared gaps collide across versions.
				i := (k + w*5) % (2 * objects)
				v, oi := i%2, i/2
				_, built, err := versions[v].Sampler(oi, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if built {
					builds[v][oi].Add(1)
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()

	for oi := 0; oi < objects; oi++ {
		// An untouched object is one object version in both trees.
		n1, n2 := builds[0][oi].Load(), builds[1][oi].Load()
		if oi%2 == 1 && n1+n2 != 1 || oi%2 == 0 && (n1 != 1 || n2 != 1) {
			t.Errorf("object %d: %d + %d sampler builds, want one per object version", oi, n1, n2)
		}
	}
	for v, tree := range versions {
		for oi := 0; oi < objects; oi++ {
			if !reflect.DeepEqual(treeSampler(t, tree, oi), fullSampler(t, tree.objs[oi])) {
				t.Errorf("version %d, object %d: sampler differs from the full build", v+1, oi)
			}
		}
	}
	for oi := 0; oi < objects; oi++ {
		r1, r2 := v1.runs[oi], v2.runs[oi]
		if oi%2 == 1 {
			if r1 != r2 {
				t.Errorf("untouched object %d: the versions hold distinct runs", oi)
			}
			continue
		}
		// The appended object keeps its first gaps' records; only the
		// last gap is its own.
		for g, ga := range r1.gaps {
			if ga.draw != r2.gaps[g].draw || ga.draw.table == nil {
				t.Errorf("object %d, gap %d: shared gap built twice or not at all", oi, g)
			}
		}
		if last := r2.gaps[len(r2.gaps)-1].draw; last == nil || last == r1.gaps[len(r1.gaps)-1].draw || last.table == nil {
			t.Errorf("object %d: the appended gap has no table of its own", oi)
		}
	}
}
