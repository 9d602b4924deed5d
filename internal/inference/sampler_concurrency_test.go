package inference

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"pnn/internal/mcrand"
	"pnn/internal/uncertain"
)

// TestSamplerConcurrentUse enforces the sharing contract the query service
// is built on: one Sampler, many goroutines, each with its OWN generator
// — no data races (run under -race) and every drawn path is valid. The
// Sampler itself is read-only after NewSampler; the rng is the only
// mutable state, which is why it must not be shared.
func TestSamplerConcurrentUse(t *testing.T) {
	o := lineObject(t, 60, 1, []uncertain.Observation{
		{T: 0, State: 20}, {T: 6, State: 24}, {T: 12, State: 20},
	})
	m, err := Adapt(o)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSampler(m)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng, mrng := rand.New(rand.NewSource(int64(w))), mcrand.New(int64(w))
			dst := make([]int32, 7)
			for i := 0; i < 200; i++ {
				p := s.Sample(rng)
				if !p.HitsObservations(o) {
					t.Errorf("worker %d: sample misses an observation", w)
					return
				}
				if !s.SampleWindowInto(&mrng, 3, 9, dst) || dst[3] != 24 || slices.Contains(dst, -1) {
					t.Errorf("worker %d: bad window sample %v", w, dst)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestSamplerDeterministicPerSeed pins down what "deterministic" means for
// the service layer: identical seeds yield identical paths regardless of
// what other goroutines do with their own generators.
func TestSamplerDeterministicPerSeed(t *testing.T) {
	o := lineObject(t, 40, 1, []uncertain.Observation{
		{T: 0, State: 10}, {T: 8, State: 14},
	})
	m, err := Adapt(o)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSampler(m)
	draw := func() []int32 {
		return s.Sample(rand.New(rand.NewSource(99))).States
	}
	base := draw()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 100; i++ {
				s.Sample(rng)
			}
		}()
	}
	again := draw()
	wg.Wait()
	if len(base) != len(again) {
		t.Fatal("path lengths differ")
	}
	for i := range base {
		if base[i] != again[i] {
			t.Fatalf("same seed diverged at %d: %d vs %d", i, base[i], again[i])
		}
	}
}
