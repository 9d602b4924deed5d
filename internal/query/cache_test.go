package query

import (
	"errors"
	"sync"
	"testing"
	"time"

	"pnn/internal/inference"
	"pnn/internal/mcrand"
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
// untouched objects, re-adapts exactly the invalidated ones, and keeps
// the cumulative counters shared across versions — while the previous
// engine stays consistent with its own tree.
func TestNewEngineFromCarriesCache(t *testing.T) {
	obsSets := [][]uncertain.Observation{
		{{T: 0, State: 30}, {T: 8, State: 32}},
		{{T: 0, State: 34}, {T: 8, State: 30}},
		{{T: 0, State: 26}, {T: 8, State: 28}},
	}
	sp, tree, eng := lineDB(t, 500, obsSets...)
	if _, err := eng.PrepareAll(); err != nil {
		t.Fatal(err)
	}
	if cs := eng.CacheStats(); cs.Builds != 3 {
		t.Fatalf("Builds after PrepareAll = %d, want 3", cs.Builds)
	}

	// Object 1 gains an observation; rebuild its tree entry.
	objs := append([]*uncertain.Object(nil), tree.Objects()...)
	upd, err := uncertain.NewObject(1, append(append([]uncertain.Observation(nil), obsSets[1]...),
		uncertain.Observation{T: 12, State: 27}), objs[1].Chain)
	if err != nil {
		t.Fatal(err)
	}
	objs[1] = upd
	tree2, err := ustree.Build(sp, objs, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng2 := NewEngineFrom(eng, tree2, []int{1})

	// Only the invalidated object re-adapts.
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

// TestDeriveWithoutSeeds pins which sampler an invalidated object's next
// build extends: the last one completed for it, through any number of
// derivations until the object is rebuilt; never one still in flight or
// failed; and nothing once the rebuild has taken it.
func TestDeriveWithoutSeeds(t *testing.T) {
	_, _, eng := lineDB(t, 10, []uncertain.Observation{{T: 0, State: 30}, {T: 8, State: 32}})
	done, _, err := eng.SamplerCached(0)
	if err != nil {
		t.Fatal(err)
	}
	seedOf := func(c *samplerCache, oi int) (seed *inference.Sampler) {
		t.Helper()
		if _, built, _ := c.get(oi, func(s *inference.Sampler) (*inference.Sampler, error) {
			seed = s
			return done, nil
		}); !built {
			t.Fatalf("object %d was not rebuilt", oi)
		}
		return seed
	}

	// Object 0 completed, 1 failed, 2 is in flight, 3 was never asked for.
	c := newSamplerCache()
	seedOf(c, 0)
	c.get(1, func(*inference.Sampler) (*inference.Sampler, error) { return nil, errors.New("contradiction") })
	c.entries[2] = &cacheEntry{ready: make(chan struct{})}

	d := c.deriveWithout([]int{0, 1, 2, 3})
	if len(d.entries) != 0 {
		t.Fatalf("derived cache kept %d invalidated entries", len(d.entries))
	}
	d2 := d.deriveWithout([]int{0}) // invalidated again before anyone rebuilt it
	for oi, want := range []*inference.Sampler{done, nil, nil, nil} {
		if got := seedOf(d2, oi); got != want {
			t.Errorf("object %d rebuilt from seed %p, want %p", oi, got, want)
		}
	}
	// Rebuilt in d2: its seed is spent there, and a cache derived after
	// the rebuild seeds the next one from the rebuilt sampler.
	if len(d2.seeds) != 0 {
		t.Errorf("%d seeds left after every object was rebuilt", len(d2.seeds))
	}
	if got := seedOf(d2.deriveWithout([]int{0}), 0); got != done {
		t.Errorf("rebuilt object seeds from %p, want its rebuilt sampler %p", got, done)
	}
	// d never rebuilt object 0 and still holds the seed for its own readers.
	if got := seedOf(d, 0); got != done {
		t.Errorf("sibling cache lost its seed: %p", got)
	}
}

// TestSamplerCachePanicContained: a build that panics must not leave
// the single-flight entry pending forever — it is demoted to a cached
// error, and later lookups return it immediately instead of blocking.
func TestSamplerCachePanicContained(t *testing.T) {
	c := newSamplerCache()
	_, built, err := c.get(0, func(*inference.Sampler) (*inference.Sampler, error) { panic("boom") })
	if !built || err == nil {
		t.Fatalf("panicking build: built=%v err=%v, want built with error", built, err)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := c.get(0, func(*inference.Sampler) (*inference.Sampler, error) {
			t.Error("second lookup must not rebuild")
			return nil, nil
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("cached panic error lost")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("lookup after panicking build blocked")
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
