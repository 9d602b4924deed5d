package query

import (
	"fmt"
	"math"
	"sync"
	"time"

	"pnn/internal/inference"
	"pnn/internal/ustree"
)

// CacheStats reports the cumulative sampler traffic of an Engine and of
// every engine derived from it: builds is the number of model
// adaptations performed (one per distinct object version touched), hits
// the number of lookups answered without building.
type CacheStats struct {
	Builds int64
	Hits   int64
}

// CacheStats returns the engine's cumulative sampler counters. A warmed
// engine serving repeat traffic should show Builds frozen at the number
// of distinct objects while Hits grows with every query.
func (e *Engine) CacheStats() CacheStats {
	return CacheStats{Builds: e.builds.Load(), Hits: e.hits.Load()}
}

// SamplerCached returns the a-posteriori sampler of object oi, which the
// tree keeps with the object's gaps (ustree.Tree.Sampler), adapting the
// model on first use; built reports whether this call performed the
// adaptation (the per-query SamplerBuilds accounting). Errors, a
// panicking build's included, are kept like samplers. Safe for
// concurrent use; distinct objects adapt in parallel.
func (e *Engine) SamplerCached(oi int) (s *inference.Sampler, built bool, err error) {
	s, built, err = e.tree.Sampler(oi, e.reach)
	if built {
		e.builds.Add(1)
	} else {
		e.hits.Add(1)
	}
	if err != nil {
		return nil, built, fmt.Errorf("query: adapting object %d: %w", oi, err)
	}
	return s, built, nil
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
			if _, _, err := e.SamplerCached(oi); err != nil {
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
				if _, _, err := e.SamplerCached(oi); err != nil {
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
