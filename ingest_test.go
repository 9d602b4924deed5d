package pnn

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// ingestNet builds a grid world with `n` objects parked on distinct
// states, observed at t=0 and t=8.
func ingestNet(t testing.TB, n int) (*Network, *Processor) {
	t.Helper()
	net, err := NewGridNetwork(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB(net)
	for id := 0; id < n; id++ {
		st := (id * 7) % net.NumStates()
		if err := db.Add(id, []Observation{{T: 0, State: st}, {T: 8, State: st}}); err != nil {
			t.Fatal(err)
		}
	}
	proc, err := db.Build(100)
	if err != nil {
		t.Fatal(err)
	}
	return net, proc
}

// TestIngestFacade is the sequential before/after contract of the
// facade: a query issued before a write answers from the old database,
// a query issued after a write sees it, and Version advances once per
// successful write only.
func TestIngestFacade(t *testing.T) {
	net, proc := ingestNet(t, 3)
	if v := proc.Version(); v != 1 {
		t.Fatalf("fresh Version = %d, want 1", v)
	}

	// Nobody covers [10, 14] yet.
	q := AtState(net, 55)
	if res, _, err := proc.ForAllNN(q, 10, 14, 0.3, 1); err != nil || len(res) != 0 {
		t.Fatalf("pre-write query: res=%v err=%v, want empty", res, err)
	}

	ing, err := proc.AddObject(50, []Observation{{T: 10, State: 55}, {T: 14, State: 55}})
	if err != nil {
		t.Fatal(err)
	}
	if ing.Version != 2 || ing.Objects != 4 || proc.Version() != 2 || proc.NumObjects() != 4 {
		t.Fatalf("after AddObject: ing=%+v Version=%d NumObjects=%d", ing, proc.Version(), proc.NumObjects())
	}
	res, _, err := proc.ForAllNN(q, 10, 14, 0.3, 1)
	if err != nil || len(res) != 1 || res[0].ObjectID != 50 {
		t.Fatalf("post-AddObject query: res=%v err=%v, want object 50", res, err)
	}

	// Observe extends object 50's lifetime; the extension is queryable.
	ing, err = proc.Observe(50, Observation{T: 20, State: 55})
	if err != nil || ing.Version != 3 || ing.Objects != 4 {
		t.Fatalf("Observe: ing=%+v err=%v", ing, err)
	}
	res, _, err = proc.ForAllNN(q, 15, 19, 0.3, 1)
	if err != nil || len(res) != 1 || res[0].ObjectID != 50 {
		t.Fatalf("post-Observe query: res=%v err=%v, want object 50", res, err)
	}

	// Failed writes advance nothing.
	if _, err := proc.AddObject(50, []Observation{{T: 0, State: 0}}); err == nil {
		t.Error("duplicate AddObject succeeded")
	}
	if _, err := proc.Observe(99, Observation{T: 0, State: 0}); err == nil {
		t.Error("Observe on unknown object succeeded")
	}
	if v := proc.Version(); v != 3 {
		t.Errorf("Version after failed writes = %d, want 3", v)
	}

	// The sampler of an updated object reflects the update.
	path, err := proc.SampleTrajectory(50, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 11 { // t = 10 .. 20
		t.Errorf("sampled trajectory spans %d tics, want 11", len(path))
	}
}

// TestIngestWhileQuerying hammers Observe/AddObject against single and
// batch queries under the race detector: every answer must come from a
// consistent snapshot (only IDs that exist, never an error), Version
// must be monotone from every goroutine's point of view, and in-flight
// queries must survive any number of snapshot swaps.
func TestIngestWhileQuerying(t *testing.T) {
	const (
		initial = 8
		writes  = 40
		readers = 4
	)
	net, proc := ingestNet(t, initial)
	proc.SetParallelism(2)

	// The full ID universe: initial objects plus everything the writer
	// will ever add. Any result outside it proves a torn snapshot.
	valid := make(map[int]bool)
	for id := 0; id < initial; id++ {
		valid[id] = true
	}
	for w := 0; w < writes; w++ {
		valid[1000+w] = true
	}

	var wg sync.WaitGroup
	var writerDone atomic.Bool
	var lastVersion atomic.Int64

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer writerDone.Store(true)
		nextT := make(map[int]int) // next free timestamp per observed object
		for w := 0; w < writes; w++ {
			var ing Ingest
			var err error
			if w%2 == 0 {
				st := (w * 11) % net.NumStates()
				ing, err = proc.AddObject(1000+w, []Observation{{T: 0, State: st}, {T: 8, State: st}})
			} else {
				id := w % initial
				tt, ok := nextT[id]
				if !ok {
					tt = 9
				}
				nextT[id] = tt + 1
				ing, err = proc.Observe(id, Observation{T: tt, State: (id * 7) % net.NumStates()})
			}
			if err != nil {
				t.Errorf("write %d: %v", w, err)
				return
			}
			if prev := lastVersion.Swap(ing.Version); ing.Version <= prev {
				t.Errorf("write %d published version %d after %d", w, ing.Version, prev)
				return
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			check := func(res []Result, err error) {
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				for _, rr := range res {
					if !valid[rr.ObjectID] {
						t.Errorf("reader %d: result names unknown object %d", r, rr.ObjectID)
					}
					if rr.Prob <= 0 || rr.Prob > 1 {
						t.Errorf("reader %d: probability %v out of range", r, rr.Prob)
					}
				}
			}
			seen := int64(0)
			for i := 0; !writerDone.Load(); i++ {
				v := proc.Version()
				if v < seen {
					t.Errorf("reader %d: Version went backwards %d -> %d", r, seen, v)
					return
				}
				seen = v
				q := AtState(net, (r*13+i*29)%net.NumStates())
				switch i % 3 {
				case 0:
					res, _, err := proc.ForAllNN(q, 1, 7, 0.05, int64(i))
					check(res, err)
				case 1:
					res, _, err := proc.ExistsNN(q, 1, 7, 0.05, int64(i))
					check(res, err)
				default:
					for _, resp := range proc.RunBatch([]Request{
						{Semantics: ForAll, Query: q, Ts: 1, Te: 7, Tau: 0.05, Seed: int64(i)},
						{Semantics: Exists, Query: q, Ts: 2, Te: 9, Tau: 0.05, Seed: int64(i + 1)},
					}, 2) {
						check(resp.Results, resp.Err)
					}
				}
			}
		}(r)
	}
	wg.Wait()

	if v := proc.Version(); v != int64(1+writes) {
		t.Errorf("final Version = %d, want %d", v, 1+writes)
	}
	if n := proc.NumObjects(); n != initial+writes/2 {
		t.Errorf("final NumObjects = %d, want %d", n, initial+writes/2)
	}
	// Determinism across snapshots: the same seed against the final
	// quiescent database answers identically twice.
	q := AtState(net, 55)
	a, _, err := proc.ExistsNN(q, 1, 7, 0.01, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := proc.ExistsNN(q, 1, 7, 0.01, 42)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("quiescent queries diverged: %v vs %v", a, b)
	}
}

// historyMover is one object of a random write history: a ground-truth
// walk of the grid chain over [0, span] and the tics observed so far, so
// every observation ever written is consistent with every other.
type historyMover struct {
	truth    []int
	observed map[int]bool
	lo, hi   int // first and last observed tic
}

func (m *historyMover) observe(tics ...int) []Observation {
	var obs []Observation
	for _, tt := range tics {
		if tt < 0 || tt >= len(m.truth) || m.observed[tt] {
			continue
		}
		m.observed[tt] = true
		m.lo, m.hi = min(m.lo, tt), max(m.hi, tt)
		obs = append(obs, Observation{T: tt, State: m.truth[tt]})
	}
	return obs
}

// TestWriteHistoryMatchesRebuild is the engine half of "a write costs
// the gap it adds": after a random write history — appends,
// multi-observation appends, late observations, prepends, adds, refused
// contradictions — served from a processor whose index was maintained
// run by run and whose samplers were extended gap by gap, every response
// (results, stats, sampling block, version vector; fixed-budget and
// confidence requests) equals that of a processor recovered from a spill
// of the final objects, which store.NewAt bulk-builds and which adapts
// every model from nothing.
func TestWriteHistoryMatchesRebuild(t *testing.T) {
	const side, span = 9, 40
	net, err := NewGridNetwork(side, side)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		newMover := func() *historyMover {
			m := &historyMover{truth: []int{rng.Intn(net.NumStates())}, observed: map[int]bool{}, lo: span, hi: 0}
			for len(m.truth) <= span {
				cols, _ := net.chain.At(0).Row(m.truth[len(m.truth)-1])
				m.truth = append(m.truth, int(cols[rng.Intn(len(cols))]))
			}
			return m
		}
		d := Durability{Dir: t.TempDir()}
		live, _, err := NewDB(net).BuildShardedDurable(300, 2, d)
		if err != nil {
			t.Fatal(err)
		}
		var movers []*historyMover
		for w := 0; w < 70; w++ {
			var werr error
			switch kind := rng.Intn(8); {
			case len(movers) < 4 || kind == 0:
				m := newMover()
				start := 10 + rng.Intn(15)
				tics := []int{start, start + 3 + rng.Intn(4), start + 9}[:1+rng.Intn(3)]
				_, werr = live.AddObject(len(movers), m.observe(tics...))
				movers = append(movers, m)
			case kind == 1:
				// Across the grid one tic after the last fix: refused.
				id := rng.Intn(len(movers))
				m := movers[id]
				far := 0
				if s := m.truth[m.hi]; s%side+s/side < 2 {
					far = net.NumStates() - 1
				}
				before := live.Version()
				if _, err := live.Observe(id, Observation{T: m.hi + 1, State: far}); err == nil {
					t.Fatalf("seed %d write %d: contradicting observation accepted", seed, w)
				}
				if live.Version() != before {
					t.Fatalf("seed %d write %d: refused write advanced the version", seed, w)
				}
			default:
				id := rng.Intn(len(movers))
				m := movers[id]
				var obs []Observation
				switch kind {
				case 2:
					obs = m.observe(m.hi+2, m.hi+4, m.hi+5) // multi-observation append
				case 3:
					obs = m.observe(m.lo + 1 + rng.Intn(max(m.hi-m.lo, 1))) // late observation
				case 4:
					obs = m.observe(m.lo - 1 - rng.Intn(3)) // prepend
				default:
					obs = m.observe(m.hi + 1 + rng.Intn(5)) // append
				}
				if len(obs) > 0 {
					_, werr = live.Observe(id, obs...)
				}
			}
			if werr != nil {
				t.Fatalf("seed %d write %d: %v", seed, w, werr)
			}
			// Warm every few writes, so later writes find completed
			// samplers to extend, and others find none or an old one.
			if w%4 == 3 {
				if err := live.PrepareAll(); err != nil {
					t.Fatal(err)
				}
			}
		}

		battery := func(p *Processor) []Response {
			if err := p.PrepareAll(); err != nil {
				t.Fatal(err)
			}
			brng := rand.New(rand.NewSource(seed))
			var out []Response
			for i := 0; i < 12; i++ {
				q := AtState(net, brng.Intn(net.NumStates()))
				ts := 5 + brng.Intn(25)
				te := ts + brng.Intn(6)
				for _, req := range []Request{
					{Semantics: ForAll, Query: q, Ts: ts, Te: te, Tau: 0.05, Seed: int64(i)},
					{Semantics: Exists, Query: q, Ts: ts, Te: te, K: 3, Tau: 0.05, Seed: int64(i)},
					{Semantics: Exists, Query: q, Ts: ts, Te: te, Tau: 0.3, Seed: int64(i), Confidence: Confidence{Eps: 0.05, MaxSamples: 4096}},
					{Semantics: Continuous, Query: q, Ts: ts, Te: min(te, ts+3), Tau: 0.3, Seed: int64(i)},
				} {
					resp := p.Run(req)
					if resp.Err != nil {
						t.Fatalf("seed %d: %+v: %v", seed, req, resp.Err)
					}
					out = append(out, resp)
				}
			}
			return out
		}
		want := battery(live)
		if err := live.SpillNow(); err != nil {
			t.Fatal(err)
		}
		_, _, shardVersions := live.SnapshotDetail()
		if err := live.Close(); err != nil {
			t.Fatal(err)
		}
		rebuilt, rec, err := NewDB(net).BuildShardedDurable(300, 2, d)
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Recovered || !reflect.DeepEqual(rec.SpillVersions, shardVersions) {
			t.Fatalf("seed %d: recovery %+v, want every shard rebuilt from a spill at %v", seed, rec, shardVersions)
		}
		got := battery(rebuilt)
		if err := rebuilt.Close(); err != nil {
			t.Fatal(err)
		}
		nonEmpty := 0
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("seed %d, request %d:\n maintained %+v\n rebuilt    %+v", seed, i, want[i], got[i])
			}
			if len(want[i].Results)+len(want[i].Intervals) > 0 {
				nonEmpty++
			}
		}
		if nonEmpty < len(want)/4 {
			t.Errorf("seed %d: only %d of %d responses name an object; the battery misses the data", seed, nonEmpty, len(want))
		}
	}
}
