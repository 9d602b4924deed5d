package query

import (
	"fmt"
	"maps"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"pnn/internal/inference"
	"pnn/internal/ustree"
)

// samplerCache holds the adapted a-posteriori sampler of every object that
// has been touched by a query, so the expensive forward-backward model
// adaptation (the TS phase of the paper's experiments) runs at most once
// per object over the lifetime of an Engine, no matter how many queries —
// or how many concurrent goroutines — ask for it.
//
// Synchronization is per entry: the cache-wide mutex only guards the map,
// while each entry carries its own ready channel. A goroutine that finds
// an in-flight entry waits for that entry alone, so concurrent queries
// adapt distinct objects in parallel and duplicate adaptation of the same
// object is impossible (single-flight).
type samplerCache struct {
	mu      sync.Mutex
	entries map[int]*cacheEntry
	// seeds holds, for an object invalidated by a write and not rebuilt
	// since, the last sampler completed for an earlier version of it: the
	// next build extends that instead of starting over. An object has a
	// seed or an entry, never both.
	seeds map[int]*inference.Sampler

	// The counters are shared between a cache and every cache derived
	// from it (see deriveWithout), so CacheStats stays cumulative across
	// engine versions of a live store.
	builds *atomic.Int64 // model adaptations performed (cache misses)
	hits   *atomic.Int64 // lookups served from a completed entry
}

type cacheEntry struct {
	ready chan struct{} // closed once s/err are set
	s     *inference.Sampler
	err   error
}

func newSamplerCache() *samplerCache {
	return &samplerCache{
		entries: make(map[int]*cacheEntry),
		seeds:   make(map[int]*inference.Sampler),
		builds:  new(atomic.Int64),
		hits:    new(atomic.Int64),
	}
}

// deriveWithout returns a new cache carrying over every completed or
// in-flight entry except those for the object indices in drop — the
// carry-over half of a snapshot swap: untouched objects keep their
// adapted samplers, updated ones re-adapt lazily in the derived engine.
// A dropped entry that completed becomes the seed of that re-adaptation;
// one still in flight or failed leaves none, and the object starts over.
// In-flight entries are safe to share: their ready channel is closed by
// whichever engine started the build. The cumulative counters are
// shared, not copied.
func (c *samplerCache) deriveWithout(drop []int) *samplerCache {
	c.mu.Lock()
	defer c.mu.Unlock()
	nc := &samplerCache{
		entries: maps.Clone(c.entries),
		seeds:   maps.Clone(c.seeds),
		builds:  c.builds,
		hits:    c.hits,
	}
	for _, oi := range drop {
		if e, ok := nc.entries[oi]; ok {
			delete(nc.entries, oi)
			select {
			case <-e.ready:
				if e.s != nil {
					nc.seeds[oi] = e.s
				}
			default:
			}
		}
	}
	return nc
}

// get returns the sampler for object oi, building it on first use with
// build(seed), seed being the object's seed sampler (nil: none), which
// the new entry replaces. The boolean reports whether this call performed
// the build. Errors are cached: an object whose observations cannot be
// adapted keeps failing without redoing the work, until an update to the
// object invalidates its entry (deriveWithout).
func (c *samplerCache) get(oi int, build func(seed *inference.Sampler) (*inference.Sampler, error)) (*inference.Sampler, bool, error) {
	c.mu.Lock()
	if e, ok := c.entries[oi]; ok {
		c.mu.Unlock()
		<-e.ready
		c.hits.Add(1)
		return e.s, false, e.err
	}
	e := &cacheEntry{ready: make(chan struct{})}
	c.entries[oi] = e
	seed := c.seeds[oi]
	delete(c.seeds, oi)
	c.mu.Unlock()

	func() {
		// Close ready even if build panics — otherwise every later
		// lookup of this object would block forever on the entry. The
		// panic is demoted to a cached error so one poisoned object
		// cannot take down callers that merely share a batch with it.
		defer func() {
			if r := recover(); r != nil {
				e.s, e.err = nil, fmt.Errorf("query: sampler build for object %d panicked: %v", oi, r)
			}
			close(e.ready)
		}()
		e.s, e.err = build(seed)
	}()
	c.builds.Add(1)
	return e.s, true, e.err
}

// CacheStats reports the cumulative sampler-cache traffic of an Engine:
// builds is the number of model adaptations performed (one per distinct
// object touched), hits the number of lookups answered without building.
type CacheStats struct {
	Builds int64
	Hits   int64
}

// CacheStats returns the engine's cumulative sampler-cache counters. A
// warmed engine serving repeat traffic should show Builds frozen at the
// number of distinct objects while Hits grows with every query.
func (e *Engine) CacheStats() CacheStats {
	return CacheStats{Builds: e.cache.builds.Load(), Hits: e.cache.hits.Load()}
}

// Sampler returns the cached a-posteriori sampler for object oi, adapting
// the model on first use. Safe for concurrent use; distinct objects adapt
// in parallel.
func (e *Engine) Sampler(oi int) (*inference.Sampler, error) {
	s, _, err := e.sampler(oi)
	return s, err
}

func (e *Engine) sampler(oi int) (*inference.Sampler, bool, error) {
	return e.cache.get(oi, func(seed *inference.Sampler) (*inference.Sampler, error) {
		s, err := inference.ExtendSampler(seed, e.tree.Objects()[oi], e.reach)
		if err != nil {
			return nil, fmt.Errorf("query: adapting object %d: %w", oi, err)
		}
		return s, nil
	})
}

// buildSamplers returns the refine set (object indices), their samplers
// (parallel slice), the time spent adapting models that were not yet
// cached, and how many models this call actually built.
func (e *Engine) buildSamplers(objIdx []int) ([]int, []*inference.Sampler, time.Duration, int, error) {
	begin := time.Now()
	samplers := make([]*inference.Sampler, len(objIdx))
	built := 0
	for i, oi := range objIdx {
		s, b, err := e.sampler(oi)
		if err != nil {
			return nil, nil, 0, built, err
		}
		if b {
			built++
		}
		samplers[i] = s
	}
	return objIdx, samplers, time.Since(begin), built, nil
}

// PrepareAll adapts every object's model up front, so that subsequent
// queries measure only sampling and evaluation time. It returns the time
// spent (the TS phase of the experiments). Adaptation of distinct objects
// is independent and runs on e's parallelism setting.
func (e *Engine) PrepareAll() (time.Duration, error) {
	begin := time.Now()
	objs := e.tree.Objects()
	workers := e.Parallelism()
	if workers < 1 {
		workers = 1
	}
	if workers > len(objs) {
		workers = len(objs)
	}
	if workers <= 1 {
		for oi := range objs {
			if _, err := e.Sampler(oi); err != nil {
				return 0, err
			}
		}
		return time.Since(begin), nil
	}
	jobs := make(chan int)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for oi := range jobs {
				if _, err := e.Sampler(oi); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	var firstErr error
feed:
	for oi := range objs {
		select {
		case jobs <- oi:
		case firstErr = <-errs:
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr == nil {
		select {
		case firstErr = <-errs:
		default:
		}
	}
	if firstErr != nil {
		return 0, firstErr
	}
	return time.Since(begin), nil
}

// timePrune is the pruning fallback used when the filter step is disabled:
// lifetime checks only.
func (e *Engine) timePrune(ts, te int) ustree.Pruning {
	var pr ustree.Pruning
	if te >= ts {
		// No distance filtering happened, so the influence region is
		// unbounded: every alive object may matter.
		pr.PruneDist = make([]float64, te-ts+1)
		for i := range pr.PruneDist {
			pr.PruneDist[i] = math.Inf(1)
		}
	}
	for oi, o := range e.tree.Objects() {
		if o.First().T <= te && o.Last().T >= ts {
			pr.Influencers = append(pr.Influencers, oi)
			if o.AliveThroughout(ts, te) {
				pr.Candidates = append(pr.Candidates, oi)
			}
		}
	}
	return pr
}
