package query

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pnn/internal/markov"
	"pnn/internal/mcrand"
	"pnn/internal/sparse"
	"pnn/internal/uncertain"
	"pnn/internal/ustree"
)

// TestSamplerCacheSingleFlight hammers the cache from many goroutines and
// checks that every object is adapted exactly once (the per-entry build
// lock makes duplicate adaptation impossible, not just unlikely).
func TestSamplerCacheSingleFlight(t *testing.T) {
	obsSets := [][]uncertain.Observation{
		{{T: 0, State: 30}, {T: 8, State: 32}},
		{{T: 0, State: 34}, {T: 8, State: 30}},
		{{T: 0, State: 26}, {T: 8, State: 28}},
		{{T: 0, State: 40}, {T: 8, State: 44}},
		{{T: 0, State: 10}, {T: 8, State: 14}},
	}
	_, _, eng := lineDB(t, 100, obsSets...)
	const workers = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for oi := range obsSets {
				if _, _, err := eng.SamplerCached(oi); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	cs := eng.CacheStats()
	if cs.Builds != int64(len(obsSets)) {
		t.Errorf("Builds = %d, want exactly %d", cs.Builds, len(obsSets))
	}
	if want := int64(workers*len(obsSets)) - cs.Builds; cs.Hits != want {
		t.Errorf("Hits = %d, want %d", cs.Hits, want)
	}
}

// TestNewEngineFromCarriesCache is the snapshot-swap contract: deriving
// an engine over an updated tree keeps the adapted samplers of
// untouched objects, re-adapts exactly the updated one, and keeps
// the cumulative counters shared across versions — while the previous
// engine stays consistent with its own tree.
func TestNewEngineFromCarriesCache(t *testing.T) {
	obsSets := [][]uncertain.Observation{
		{{T: 0, State: 30}, {T: 8, State: 32}},
		{{T: 0, State: 34}, {T: 8, State: 30}},
		{{T: 0, State: 26}, {T: 8, State: 28}},
	}
	_, tree, eng := lineDB(t, 500, obsSets...)
	if _, err := eng.PrepareAll(); err != nil {
		t.Fatal(err)
	}
	if cs := eng.CacheStats(); cs.Builds != 3 {
		t.Fatalf("Builds after PrepareAll = %d, want 3", cs.Builds)
	}

	// Object 1 gains an observation; the tree derives its new run.
	objs := tree.Objects()
	upd, err := uncertain.NewObject(1, append(append([]uncertain.Observation(nil), obsSets[1]...),
		uncertain.Observation{T: 12, State: 27}), objs[1].Chain)
	if err != nil {
		t.Fatal(err)
	}
	tree2, err := tree.WithUpdatedObject(1, upd, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng2 := NewEngineFrom(eng, tree2)

	// Only the updated object re-adapts.
	built := 0
	for oi := range objs {
		_, b, err := eng2.SamplerCached(oi)
		if err != nil {
			t.Fatal(err)
		}
		if b {
			built++
		}
	}
	if built != 1 {
		t.Errorf("derived engine built %d samplers, want 1 (the updated object)", built)
	}
	if cs := eng2.CacheStats(); cs.Builds != 4 {
		t.Errorf("cumulative Builds = %d, want 4 (shared across versions)", cs.Builds)
	}
	// The previous engine still samples the pre-update model: object 1's
	// lifetime there ends at t=8, so a window beyond it is empty.
	sOld, _, err := eng.SamplerCached(1)
	if err != nil {
		t.Fatal(err)
	}
	rng, dst := mcrand.New(4), make([]int32, 3)
	if sOld.SampleWindowInto(&rng, 10, 12, dst) {
		t.Error("old snapshot's sampler covers the post-update window")
	}
	sNew, _, err := eng2.SamplerCached(1)
	if err != nil {
		t.Fatal(err)
	}
	if !sNew.SampleWindowInto(&rng, 10, 12, dst) {
		t.Error("new snapshot's sampler misses the appended observation window")
	}
}

// armedChain is a chain whose matrices panic once armed: a model build
// that panics, for objects indexed before it was armed.
type armedChain struct {
	markov.Chain
	armed *atomic.Bool
}

func (c armedChain) At(t int) *sparse.CSR {
	if c.armed.Load() {
		panic("boom")
	}
	return c.Chain.At(t)
}

// TestSamplerCachePanicContained: a build that panics must not leave
// the object's sampler pending forever or crash the caller — it is
// demoted to a kept error, and later lookups return it immediately
// instead of blocking or rebuilding.
func TestSamplerCachePanicContained(t *testing.T) {
	sp, objs := LineObjects(t, []uncertain.Observation{{T: 0, State: 30}, {T: 8, State: 32}})
	c := armedChain{objs[0].Chain, new(atomic.Bool)}
	o, err := uncertain.NewObject(0, objs[0].Obs, c)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := ustree.Build(sp, []*uncertain.Object{o}, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(tree, 10)
	c.armed.Store(true)
	_, built, err := eng.SamplerCached(0)
	if !built || err == nil || !strings.Contains(err.Error(), "query: adapting object 0: ") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panicking build: built=%v err=%v, want built with the panic as error", built, err)
	}
	done := make(chan error, 1)
	go func() {
		_, built, err := eng.SamplerCached(0)
		if built {
			t.Error("second lookup must not rebuild")
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("kept panic error lost")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("lookup after panicking build blocked")
	}
	if cs := eng.CacheStats(); cs.Builds != 1 || cs.Hits != 1 {
		t.Errorf("CacheStats = %+v, want 1 build and 1 hit", cs)
	}
}

func TestPrepareAllCaches(t *testing.T) {
	_, _, eng := lineDB(t, 10,
		[]uncertain.Observation{{T: 0, State: 30}, {T: 6, State: 30}},
		[]uncertain.Observation{{T: 0, State: 40}, {T: 6, State: 42}},
	)
	d, err := eng.PrepareAll()
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Error("PrepareAll should report positive duration")
	}
	s1, built, err := eng.SamplerCached(0)
	if err != nil {
		t.Fatal(err)
	}
	if built {
		t.Error("PrepareAll left object 0 unbuilt")
	}
	s2, _, err := eng.SamplerCached(0)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Error("samplers must be cached")
	}
	if eng.SampleCount() != 10 {
		t.Errorf("SampleCount = %d", eng.SampleCount())
	}
	if eng.Tree() == nil {
		t.Error("Tree accessor")
	}
}
