package ustree

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"pnn/internal/datagen"
	"pnn/internal/geo"
	"pnn/internal/markov"
	"pnn/internal/space"
	"pnn/internal/uncertain"
)

// mover is one object of a random write history: a ground-truth walk of
// the chain over [0, span] and the set of its tics observed so far, so
// every observation ever written is consistent with every other.
type mover struct {
	truth    []int
	observed []int // ascending tics
}

func (m *mover) obs() []uncertain.Observation {
	out := make([]uncertain.Observation, len(m.observed))
	for i, tt := range m.observed {
		out[i] = uncertain.Observation{T: tt, State: m.truth[tt]}
	}
	return out
}

// observe marks n more tics observed, drawn uniformly from [lo, hi]
// minus what is observed already; it reports whether any was left.
func (m *mover) observe(rng *rand.Rand, lo, hi, n int) bool {
	var free []int
	for tt := lo; tt <= hi; tt++ {
		if k := sort.SearchInts(m.observed, tt); k == len(m.observed) || m.observed[k] != tt {
			free = append(free, tt)
		}
	}
	if len(free) == 0 {
		return false
	}
	rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
	m.observed = append(m.observed, free[:min(n, len(free))]...)
	sort.Ints(m.observed)
	return true
}

// TestIncrementalIndexMatchesBuild pins the invariant recovery and every
// byte-identity suite rest on: index shape cannot reach an answer. Over
// random write histories — appends, multi-observation appends, late
// observations, prepends, adds, a single-observation object gaining its
// second, and contradicting updates, which must be refused — the tree
// maintained write by write (Clone+Insert, WithUpdatedObject, as
// internal/store does) and ustree.Build over the final objects return the
// same PruneK for random queries and the same RectAt at every (object, t).
func TestIncrementalIndexMatchesBuild(t *testing.T) {
	const span = 40
	sp, err := space.Grid(9, 9)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := markov.NewHomogeneous(sp.TransitionMatrix(0.5))
	if err != nil {
		t.Fatal(err)
	}
	mat := chain.At(0)
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		newMover := func(nObs int) *mover {
			m := &mover{truth: []int{rng.Intn(sp.Len())}}
			for len(m.truth) <= span {
				cols, _ := mat.Row(m.truth[len(m.truth)-1])
				m.truth = append(m.truth, int(cols[rng.Intn(len(cols))]))
			}
			m.observe(rng, 10, 30, nObs)
			return m
		}
		object := func(id int, m *mover) *uncertain.Object {
			o, err := uncertain.NewObject(id, m.obs(), chain)
			if err != nil {
				t.Fatal(err)
			}
			return o
		}

		movers := []*mover{newMover(1), newMover(2), newMover(3)}
		var objs []*uncertain.Object
		for id, m := range movers {
			objs = append(objs, object(id, m))
		}
		tree, err := Build(sp, append([]*uncertain.Object(nil), objs...), nil)
		if err != nil {
			t.Fatal(err)
		}
		tree.Freeze()

		for w := 0; w < 60; w++ {
			oi := rng.Intn(len(movers))
			m := movers[oi]
			first, last := m.observed[0], m.observed[len(m.observed)-1]
			wrote := false
			switch kind := rng.Intn(7); {
			case w == 0:
				oi, m = 0, movers[0] // the single-observation object gains its second
				wrote = m.observe(rng, m.observed[0]+1, span, 1)
			case kind == 0:
				movers = append(movers, newMover(1+rng.Intn(3)))
				o := object(len(objs), movers[len(movers)-1])
				next := tree.Clone()
				if _, err := next.Insert(o, nil); err != nil {
					t.Fatalf("seed %d write %d: Insert: %v", seed, w, err)
				}
				next.Freeze()
				tree, objs = next, append(objs, o)
				continue
			case kind == 1:
				// Contradiction: in a far corner one tic after the last fix.
				far := 0
				if s := m.truth[last]; s%9+s/9 < 2 {
					far = sp.Len() - 1
				}
				bad, err := uncertain.NewObject(oi, append(m.obs(), uncertain.Observation{T: last + 1, State: far}), chain)
				if err != nil {
					t.Fatal(err)
				}
				before := *tree
				if _, err := tree.WithUpdatedObject(oi, bad, nil); err == nil {
					t.Fatalf("seed %d write %d: contradicting update accepted", seed, w)
				}
				if !reflect.DeepEqual(before, *tree) {
					t.Fatalf("seed %d write %d: rejected update modified the tree", seed, w)
				}
				continue
			case kind == 2:
				wrote = m.observe(rng, last+1, span, 2+rng.Intn(2)) // multi-observation append
			case kind == 3:
				wrote = m.observe(rng, first+1, last-1, 1) // late observation
			case kind == 4:
				wrote = m.observe(rng, 0, first-1, 1) // prepend
			default:
				wrote = m.observe(rng, last+1, min(last+6, span), 1) // append
			}
			if !wrote {
				continue
			}
			upd := object(oi, m)
			next, err := tree.WithUpdatedObject(oi, upd, nil)
			if err != nil {
				t.Fatalf("seed %d write %d: WithUpdatedObject: %v", seed, w, err)
			}
			next.Freeze()
			tree, objs[oi] = next, upd
		}

		bulk, err := Build(sp, objs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tree.NumLeaves() != bulk.NumLeaves() || tree.Len() != bulk.Len() {
			t.Fatalf("seed %d: maintained tree has %d objects / %d gaps, bulk build %d / %d",
				seed, tree.Len(), tree.NumLeaves(), bulk.Len(), bulk.NumLeaves())
		}
		if lo, hi := tree.Horizon(); [2]int{lo, hi} != bulk.horizon {
			t.Errorf("seed %d: maintained horizon [%d, %d], bulk build %v", seed, lo, hi, bulk.horizon)
		}
		for oi := range objs {
			for tt := -1; tt <= span+1; tt++ {
				gr, gok := tree.RectAt(oi, tt)
				wr, wok := bulk.RectAt(oi, tt)
				if gok != wok || (gok && gr != wr) {
					t.Fatalf("seed %d: RectAt(%d, %d) = %v, %v; bulk build %v, %v", seed, oi, tt, gr, gok, wr, wok)
				}
			}
		}
		for trial := 0; trial < 40; trial++ {
			qp := sp.Point(rng.Intn(sp.Len()))
			q := func(int) geo.Point { return qp }
			ts := rng.Intn(span)
			te := min(ts+rng.Intn(8), span)
			for _, k := range []int{1, 3} {
				got, want := tree.PruneK(q, ts, te, k), bulk.PruneK(q, ts, te, k)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: PruneK(state query, [%d, %d], k=%d) = %+v; bulk build %+v", seed, ts, te, k, got, want)
				}
			}
		}
	}
}

var benchTree *Tree

// BenchmarkWithUpdatedObjectAppend is the index step of an observation
// append at the repository benchmark's size — 300 objects of 10 gaps, 10
// tics a gap, over 10 000 states: one diamond and a copy of the run
// headers.
func BenchmarkWithUpdatedObjectAppend(b *testing.B) {
	cfg := datagen.DefaultSyntheticConfig()
	cfg.Objects, cfg.Horizon = 300, 300
	ds, err := datagen.Synthetic(cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	// Index every object without its last observation; appending it back
	// is the timed write, each against the same frozen tree.
	before := make([]*uncertain.Object, len(ds.Objects))
	for i, o := range ds.Objects {
		if before[i], err = uncertain.NewObject(o.ID, o.Obs[:len(o.Obs)-1], o.Chain); err != nil {
			b.Fatal(err)
		}
	}
	reach := uncertain.NewReach()
	tree, err := Build(ds.Space, before, reach)
	if err != nil {
		b.Fatal(err)
	}
	tree.Freeze()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oi := i % len(before)
		if benchTree, err = tree.WithUpdatedObject(oi, ds.Objects[oi], reach); err != nil {
			b.Fatal(err)
		}
	}
}
