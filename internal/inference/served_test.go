package inference

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"pnn/internal/datagen"
	"pnn/internal/markov"
	"pnn/internal/mcrand"
	"pnn/internal/sparse"
	"pnn/internal/uncertain"
)

// benchSynthetic is the benchmark service's dataset (bench/workload.go):
// 300 objects on a 10 000-state, branching-8 network, observed every 10
// tics over 100-tic lifetimes.
func benchSynthetic(tb testing.TB) *datagen.Dataset {
	tb.Helper()
	ds, err := datagen.Synthetic(datagen.SyntheticConfig{
		States: 10000, Branching: 8, Objects: 300, Lifetime: 100, Horizon: 300,
		ObsInterval: 10, Lag: 0.5, SelfWeight: 0.5,
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		tb.Fatal(err)
	}
	return ds
}

// benchTaxi is the default taxi city with 100 taxis.
func benchTaxi(tb testing.TB) *datagen.Dataset {
	tb.Helper()
	cfg := datagen.DefaultTaxiConfig()
	cfg.Taxis = 100
	ds, err := datagen.Taxi(cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		tb.Fatal(err)
	}
	return ds
}

// servedSamplers builds the sampler of every object as a server does.
func servedSamplers(tb testing.TB, ds *datagen.Dataset, reach *uncertain.Reach) []*Sampler {
	tb.Helper()
	ss := make([]*Sampler, len(ds.Objects))
	for i, o := range ds.Objects {
		var err error
		if ss[i], err = ExtendSampler(nil, o, reach); err != nil {
			tb.Fatal(err)
		}
	}
	return ss
}

func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestServedTableBytes bounds what a served object holds: the live heap
// its sampler adds, after the build's transients are collected. The
// budgets are about half of what keeping Algorithm 2's whole output
// costs (0.89 MiB per synthetic object, 10.45 MiB per taxi), so a table
// that creeps back into the served sampler fails here.
func TestServedTableBytes(t *testing.T) {
	type data struct {
		name   string
		ds     func(testing.TB) *datagen.Dataset
		budget float64 // MiB per object
	}
	sets := []data{{"synthetic", benchSynthetic, 0.45}}
	if !testing.Short() {
		sets = append(sets, data{"taxi", benchTaxi, 5.5})
	}
	for _, d := range sets {
		ds := d.ds(t)
		// The chain transposes the reachability cache computes are the
		// database's, not the objects'.
		reach := uncertain.NewReach()
		servedSamplers(t, &datagen.Dataset{Objects: ds.Objects[:1]}, reach)
		before := heapAlloc()
		ss := servedSamplers(t, ds, reach)
		after := heapAlloc()
		runtime.KeepAlive(ss)
		perObject := float64(after-before) / float64(len(ss)) / (1 << 20)
		t.Logf("%s: %.3f MiB per object over %d objects", d.name, perObject, len(ss))
		if perObject > d.budget {
			t.Errorf("%s: %.3f MiB per object, budget %.2f", d.name, perObject, d.budget)
		}
	}
}

// TestRowWidthLimit: a state with more adapted successors than a draw
// table row addresses is refused by name, not tabled wrong.
func TestRowWidthLimit(t *testing.T) {
	const n = maxRowWidth + 2 // state 0 fans out to every other state
	var elems []sparse.Triplet
	for j := 1; j < n; j++ {
		elems = append(elems, sparse.Triplet{Row: 0, Col: j, Val: 1.0 / (n - 1)}, sparse.Triplet{Row: j, Col: 0, Val: 1})
	}
	mat, err := sparse.NewCSR(n, elems)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := markov.NewHomogeneous(mat)
	if err != nil {
		t.Fatal(err)
	}
	o, err := uncertain.NewObject(7, []uncertain.Observation{{T: 0, State: 0}, {T: 2, State: 0}}, chain)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ExtendSampler(nil, o, nil)
	if err == nil || !strings.Contains(err.Error(), "object 7 state 0 at t=0") {
		t.Fatalf("ExtendSampler error = %v, want the object and state named", err)
	}
	if _, aerr := Adapt(o); aerr == nil || aerr.Error() != err.Error() {
		t.Fatalf("Adapt error = %v, want %v", aerr, err)
	}
}

// BenchmarkSampleWindowInto times the draw kernel over served samplers:
// windows of 1, 5 and 10 tics inside random objects' lifetimes, 64 draws
// per window, as a query draws many worlds over few candidates. ns/state
// is the time per drawn state.
func BenchmarkSampleWindowInto(b *testing.B) {
	for _, d := range []struct {
		name string
		ds   func(testing.TB) *datagen.Dataset
	}{{"synthetic", benchSynthetic}, {"taxi", benchTaxi}} {
		b.Run(d.name, func(b *testing.B) {
			ds := d.ds(b)
			ss := servedSamplers(b, ds, uncertain.NewReach())
			type window struct {
				s      *Sampler
				ts, te int
			}
			rng := rand.New(rand.NewSource(3))
			windows := make([]window, 3000)
			for i := range windows {
				oi := rng.Intn(len(ss))
				o, l := ds.Objects[oi], []int{1, 5, 10}[i%3]
				ts := o.First().T + rng.Intn(o.Last().T-o.First().T-l+2)
				windows[i] = window{ss[oi], ts, ts + l - 1}
			}
			g, dst := mcrand.New(9), make([]int32, 10)
			states := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := windows[i%len(windows)]
				for k := 0; k < 64; k++ {
					w.s.SampleWindowInto(&g, w.ts, w.te, dst[:w.te-w.ts+1])
				}
				states += 64 * (w.te - w.ts + 1)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(states), "ns/state")
		})
	}
}
