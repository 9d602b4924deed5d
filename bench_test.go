package pnn

// One benchmark per reproduced table/figure (the paper's evaluation has no
// numbered tables; Figures 6-14 carry all quantitative results), plus the
// ablation benchmarks of exp.Ablation (the filter step, the sample budget
// and query parallelism, each on and off). Figure benchmarks run
// the full experiment pipeline at the Tiny scale — dataset generation,
// indexing, model adaptation and querying — so one iteration corresponds
// to one complete regeneration of the figure's data.

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"pnn/internal/datagen"
	"pnn/internal/exp"
	"pnn/internal/inference"
	"pnn/internal/markov"
	"pnn/internal/mcrand"
	"pnn/internal/query"
	"pnn/internal/shard"
	"pnn/internal/space"
	"pnn/internal/sparse"
	"pnn/internal/store"
	"pnn/internal/uncertain"
)

func benchFigure(b *testing.B, run func(exp.Config) (*exp.Table, error)) {
	b.Helper()
	cfg := exp.TinyConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExample1(b *testing.B) { benchFigure(b, exp.Example1) }
func BenchmarkFig6(b *testing.B)     { benchFigure(b, exp.Fig6) }
func BenchmarkFig7(b *testing.B)     { benchFigure(b, exp.Fig7) }
func BenchmarkFig8(b *testing.B)     { benchFigure(b, exp.Fig8) }
func BenchmarkFig9(b *testing.B)     { benchFigure(b, exp.Fig9) }
func BenchmarkFig10(b *testing.B)    { benchFigure(b, exp.Fig10) }
func BenchmarkFig11(b *testing.B)    { benchFigure(b, exp.Fig11) }
func BenchmarkFig12(b *testing.B)    { benchFigure(b, exp.Fig12) }
func BenchmarkFig13(b *testing.B)    { benchFigure(b, exp.Fig13) }
func BenchmarkFig14(b *testing.B)    { benchFigure(b, exp.Fig14) }

// benchDB builds one reusable dataset for the query-path ablations.
func benchDB(b *testing.B) *datagen.Dataset {
	b.Helper()
	cfg := datagen.DefaultSyntheticConfig()
	cfg.States = 3000
	cfg.Objects = 300
	ds, err := datagen.Synthetic(cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// benchSet indexes ds in a one-shard set drawing `samples` worlds per
// query; setup, when set, configures it before every model is adapted.
func benchSet(b *testing.B, ds *datagen.Dataset, samples int, setup func(*shard.Set)) *shard.Snap {
	b.Helper()
	set, err := shard.New(ds.Space, ds.Objects, samples, 1)
	if err != nil {
		b.Fatal(err)
	}
	if setup != nil {
		setup(set)
	}
	if err := set.PrepareAll(); err != nil {
		b.Fatal(err)
	}
	return set.Snapshot()
}

// runQueries times random 10-tic queries of one semantics through
// RunShared, the call a served request ends in.
func runQueries(b *testing.B, ds *datagen.Dataset, snap *shard.Snap, item shard.GroupItem, rng *rand.Rand) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := ds.Objects[rng.Intn(len(ds.Objects))]
		q := query.StateQuery(ds.Space.Point(datagen.RandomQueryState(ds.Space, rng)))
		ts := o.First().T + 1
		spec := shard.GroupSpec{Q: q, Ts: ts, Te: ts + 9, K: 1, Seed: rng.Int63()}
		ans, _, err := snap.RunShared(spec, []shard.GroupItem{item})
		if err == nil {
			err = ans[0].Err
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// forAllNN is the P∀NN query the ablations time.
var forAllNN = shard.GroupItem{Op: shard.OpForAll}

// BenchmarkAblationPruning quantifies the UST-tree filter step: identical
// queries with the spatial filter on vs. lifetime-only filtering.
func BenchmarkAblationPruning(b *testing.B) {
	ds := benchDB(b)
	b.Run("ust-filter", func(b *testing.B) {
		runQueries(b, ds, benchSet(b, ds, 1000, nil), forAllNN, rand.New(rand.NewSource(2)))
	})
	b.Run("no-filter", func(b *testing.B) {
		snap := benchSet(b, ds, 1000, func(set *shard.Set) {
			set.Snapshot().Parts[0].Engine.DisablePruning()
		})
		runQueries(b, ds, snap, forAllNN, rand.New(rand.NewSource(2)))
	})
}

// BenchmarkAblationSamples compares a fixed paper-style sample count with
// Hoeffding-derived counts at two accuracy targets.
func BenchmarkAblationSamples(b *testing.B) {
	ds := benchDB(b)
	for _, tc := range []struct {
		name string
		n    int
	}{
		{"fixed-10000", 10000},
		{"hoeffding-eps0.02", query.RequiredSamples(0.02, 0.05)},
		{"hoeffding-eps0.05", query.RequiredSamples(0.05, 0.05)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			runQueries(b, ds, benchSet(b, ds, tc.n, nil), forAllNN, rand.New(rand.NewSource(2)))
		})
	}
}

// BenchmarkAblationDenseVsSparse compares the sparse forward kernel of
// Algorithm 2 with a dense |S|² matrix-vector product, the representation
// the paper's complexity analysis assumes.
func BenchmarkAblationDenseVsSparse(b *testing.B) {
	const n = 500
	rng := rand.New(rand.NewSource(3))
	sp, err := space.Synthetic(n, 8, rng)
	if err != nil {
		b.Fatal(err)
	}
	m := sp.TransitionMatrix(0.5)
	dense := make([][]float64, n)
	for i := range dense {
		dense[i] = make([]float64, n)
		cols, vals := m.Row(i)
		for k, c := range cols {
			dense[i][c] = vals[k]
		}
	}
	start := sparse.UnitVec(0)

	b.Run("sparse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v := start.Clone()
			for t := 0; t < 20; t++ {
				v = m.MulVecLeft(v)
			}
		}
	})
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v := make([]float64, n)
			v[0] = 1
			for t := 0; t < 20; t++ {
				nv := make([]float64, n)
				for row := 0; row < n; row++ {
					x := v[row]
					if x == 0 {
						continue
					}
					for col := 0; col < n; col++ {
						nv[col] += x * dense[row][col]
					}
				}
				v = nv
			}
		}
	})
}

// BenchmarkAblationApriori shows the PCNN lattice growth as τ shrinks
// (Section 4.3: result sets explode for small τ).
func BenchmarkAblationApriori(b *testing.B) {
	ds := benchDB(b)
	rng := rand.New(rand.NewSource(4))
	for _, tau := range []float64{0.9, 0.5, 0.1} {
		b.Run(map[float64]string{0.9: "tau-0.9", 0.5: "tau-0.5", 0.1: "tau-0.1"}[tau], func(b *testing.B) {
			runQueries(b, ds, benchSet(b, ds, 1000, nil), shard.GroupItem{Op: shard.OpCNN, Tau: tau}, rng)
		})
	}
}

// BenchmarkBatchService measures the concurrent service path: RunBatch
// over a warm sampler cache at several worker counts, the configuration
// pnnserve runs in steady state.
func BenchmarkBatchService(b *testing.B) {
	net, db, err := SyntheticDataset(3000, 8, 300, 100, 1000, 10, 1)
	if err != nil {
		b.Fatal(err)
	}
	proc, err := db.Build(1000)
	if err != nil {
		b.Fatal(err)
	}
	if err := proc.PrepareAll(); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	reqs := make([]Request, 64)
	for i := range reqs {
		sem := ForAll
		if i%2 == 1 {
			sem = Exists
		}
		ts := 450 + rng.Intn(100)
		reqs[i] = Request{
			Semantics: sem,
			Query:     AtState(net, rng.Intn(net.NumStates())),
			Ts:        ts, Te: ts + 9,
			Tau:  0.05,
			Seed: int64(i),
		}
	}
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, resp := range proc.RunBatch(reqs, workers) {
					if resp.Err != nil {
						b.Fatal(resp.Err)
					}
				}
			}
		})
	}
}

// BenchmarkBatchSharedWorlds measures what shared-world coalescing buys
// on the workload it targets: 8 requests against the same query point
// and window (mixed ∀/∃ semantics, distinct thresholds), answered
// independently vs. from one shared world set. The shared side prunes,
// adapts and samples once for the whole group, so it should run several
// times faster than the 8 independent sampling passes.
func BenchmarkBatchSharedWorlds(b *testing.B) {
	net, db, err := SyntheticDataset(3000, 8, 300, 100, 1000, 10, 1)
	if err != nil {
		b.Fatal(err)
	}
	proc, err := db.Build(1000)
	if err != nil {
		b.Fatal(err)
	}
	if err := proc.PrepareAll(); err != nil {
		b.Fatal(err)
	}
	q := AtState(net, 17)
	reqs := make([]Request, 8)
	for i := range reqs {
		sem := ForAll
		if i%2 == 1 {
			sem = Exists
		}
		reqs[i] = Request{
			Semantics: sem, Query: q, Ts: 450, Te: 459,
			Tau:  0.01 * float64(i+1),
			Seed: int64(i),
		}
	}
	for _, tc := range []struct {
		name string
		opts BatchOptions
	}{
		{"independent", BatchOptions{Workers: 4}},
		{"shared", BatchOptions{Workers: 4, ShareWorlds: true, SharedSeed: 42}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				resps, _ := proc.RunBatchStats(reqs, tc.opts)
				for _, resp := range resps {
					if resp.Err != nil {
						b.Fatal(resp.Err)
					}
				}
			}
		})
	}
}

// BenchmarkAdaptiveBudget measures what confidence-adaptive sampling
// buys against the fixed 20000-world budget, on the two workloads that
// bracket it. The "easy" query's estimates sit far from tau (min margin
// ≈ 0.43), so the Hoeffding bound separates every row at the first
// poll: the confidence run should finish several times faster than the
// fixed one. The "hard" query's tau is planted on the top candidate's
// estimate, so separation never happens and eps=0.005 needs more worlds
// than the budget holds: the confidence run draws all 20000 worlds and
// shows the polling overhead of the adaptive executor, which should be
// in the noise.
func BenchmarkAdaptiveBudget(b *testing.B) {
	net, db, err := SyntheticDataset(3000, 8, 300, 100, 1000, 10, 1)
	if err != nil {
		b.Fatal(err)
	}
	proc, err := db.Build(20000)
	if err != nil {
		b.Fatal(err)
	}
	if err := proc.PrepareAll(); err != nil {
		b.Fatal(err)
	}
	q := AtState(net, 17)
	base := Request{Semantics: ForAll, Query: q, Ts: 450, Te: 459, Seed: 7}
	easy, hard := base, base
	easy.Tau = 0.5
	hard.Tau = 0.9267 // the top candidate's estimate at 20000 worlds
	for _, tc := range []struct {
		name string
		req  Request
		conf Confidence
	}{
		{"easy/fixed-20000", easy, Confidence{}},
		{"easy/confidence-eps0.05", easy, Confidence{Eps: 0.05}},
		{"hard/fixed-20000", hard, Confidence{}},
		{"hard/confidence-eps0.005", hard, Confidence{Eps: 0.005}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			req := tc.req
			req.Confidence = tc.conf
			worlds := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp := proc.Run(req)
				if resp.Err != nil {
					b.Fatal(resp.Err)
				}
				worlds = resp.Stats.Worlds
			}
			b.ReportMetric(float64(worlds), "worlds/op")
		})
	}
}

// BenchmarkAblationWindowSampling compares whole-lifetime sampling with
// the window-restricted sampler used by the engine.
func BenchmarkAblationWindowSampling(b *testing.B) {
	sp, err := space.Line(200)
	if err != nil {
		b.Fatal(err)
	}
	mat, err := sp.BuildTransitionMatrix(func(i, j int) float64 { return 1 })
	if err != nil {
		b.Fatal(err)
	}
	chain, err := markov.NewHomogeneous(mat)
	if err != nil {
		b.Fatal(err)
	}
	o, err := uncertain.NewObject(1, []uncertain.Observation{
		{T: 0, State: 100}, {T: 50, State: 120}, {T: 100, State: 80},
	}, chain)
	if err != nil {
		b.Fatal(err)
	}
	model, err := inference.Adapt(o)
	if err != nil {
		b.Fatal(err)
	}
	s := inference.NewSampler(model)
	rng := rand.New(rand.NewSource(5))
	b.Run("full-lifetime", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Sample(rng)
		}
	})
	b.Run("window-10", func(b *testing.B) {
		wrng, dst := mcrand.New(5), make([]int32, 10)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !s.SampleWindowInto(&wrng, 45, 54, dst) {
				b.Fatal("window must intersect lifetime")
			}
		}
	})
}

// BenchmarkSubscriptionFanout measures the write path under a large
// standing-query registry: 1000 subscriptions, one object moving
// through the space. Each op is one Observe plus the full drain of the
// re-evaluations it triggers, so ns/op is the end-to-end per-update
// cost, evals/write counts evaluation passes (the fanout scoreboard —
// full per-sub fan-out would be 1000 per op) and ms/write restates
// ns/op in milliseconds. Two populations:
//
//   - spread: 1000 distinct query shapes — every touched subscription
//     is a group of one and pays its own pass.
//   - mix: the same 1000 subscriptions folded onto 10 shapes (100
//     members each, differing only in tau) — each touched shape pays
//     ONE shared-world pass.
func BenchmarkSubscriptionFanout(b *testing.B) {
	const nShapes = 10
	b.Run("spread", func(b *testing.B) {
		fanoutBench(b, func(net *Network, i int) Request {
			return Request{
				Semantics: Exists, Query: AtState(net, RandomQueryState(net, int64(i))),
				Ts: 40, Te: 47, Tau: 0.3, Seed: int64(i),
			}
		})
	})
	mixReq := func(net *Network, i int) Request {
		shape := i % nShapes
		return Request{
			Semantics: Exists, Query: AtState(net, RandomQueryState(net, int64(shape))),
			Ts: 40, Te: 47, Tau: 0.1 + float64(i/nShapes)*0.008, Seed: int64(shape),
		}
	}
	b.Run("mix", func(b *testing.B) { fanoutBench(b, mixReq) })
}

// fanoutBench is the shared harness of BenchmarkSubscriptionFanout:
// build, subscribe 1000 standing queries from reqAt, then measure
// Observe + drain per op. The sweep interval is zero so ms/write
// measures evaluation cost, not the configurable batching delay.
func fanoutBench(b *testing.B, reqAt func(net *Network, i int) Request) {
	net, db, err := SyntheticDataset(2500, 8, 600, 100, 100, 5, 7)
	if err != nil {
		b.Fatal(err)
	}
	proc, err := db.Build(150)
	if err != nil {
		b.Fatal(err)
	}
	if err := proc.PrepareAll(); err != nil {
		b.Fatal(err)
	}
	proc.SetSweepInterval(0)
	const nSubs = 1000
	for i := 0; i < nSubs; i++ {
		if _, err := proc.Subscribe(reqAt(net, i), Delivery{QueueCap: 2}); err != nil {
			b.Fatal(err)
		}
	}
	if !proc.WaitSubscriptionsIdle(120 * time.Second) {
		b.Fatal("initial evaluations did not quiesce")
	}
	// The moving object parks at the first query state — every op lands
	// inside some influence regions.
	const moverID = 900001
	if _, err := proc.AddObject(moverID, []Observation{{T: 40, State: RandomQueryState(net, 0)}}); err != nil {
		b.Fatal(err)
	}
	if !proc.WaitSubscriptionsIdle(120 * time.Second) {
		b.Fatal("mover registration did not quiesce")
	}
	base := proc.SubscriptionStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Staying put is always chain-consistent; the influence sweep
		// still runs against every registered group.
		if _, err := proc.Observe(moverID, Observation{T: 41 + i, State: RandomQueryState(net, 0)}); err != nil {
			b.Fatal(err)
		}
		if !proc.WaitSubscriptionsIdle(120 * time.Second) {
			b.Fatal("re-evaluations did not quiesce")
		}
	}
	b.StopTimer()
	st := proc.SubscriptionStats()
	ops := float64(b.N)
	b.ReportMetric(float64(st.Evaluations-base.Evaluations)/ops, "evals/write")
	b.ReportMetric(b.Elapsed().Seconds()*1000/ops, "ms/write")
	b.ReportMetric(nSubs, "subs")
	proc.CloseSubscriptions()
}

// BenchmarkWALAppend measures the write-path durability tax without the
// disk: one framed, checksummed WAL record per op (a 3-observation
// observe, the common live-ingest shape), fsync off so the cost is the
// encoding and buffered write alone. With -fsync the same path adds one
// fdatasync per acknowledged write, which is device-bound and therefore
// not pinned by this benchmark.
func BenchmarkWALAppend(b *testing.B) {
	w, err := store.OpenWAL(filepath.Join(b.TempDir(), "wal-0000000000000001.log"), 1, 0, 1, false)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	obs := []uncertain.Observation{{T: 10, State: 17}, {T: 20, State: 23}, {T: 30, State: 23}}
	b.ReportAllocs()
	b.ResetTimer()
	var bytes int64
	for i := 0; i < b.N; i++ {
		n, err := w.Append(store.WALRecord{Version: int64(i) + 2, Op: store.OpObserve, ID: 42, Obs: obs})
		if err != nil {
			b.Fatal(err)
		}
		bytes += int64(n)
	}
	b.SetBytes(bytes / int64(b.N))
}

// BenchmarkRecovery measures a warm restart: rebuild the exact
// versioned two-shard snapshot from a boot spill plus a 100-record WAL
// tail (spill cadence off, so every live write replays). One op is a
// full BuildShardedDurable + Close cycle over the same directory.
func BenchmarkRecovery(b *testing.B) {
	net, db, err := SyntheticDataset(400, 8, 40, 60, 120, 10, 1)
	if err != nil {
		b.Fatal(err)
	}
	_ = net
	dir := b.TempDir()
	proc, _, err := db.BuildShardedDurable(200, 2, Durability{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := proc.AddObject(9000+i, []Observation{{T: i % 100, State: (i * 13) % 400}}); err != nil {
			b.Fatal(err)
		}
	}
	if err := proc.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, rec, err := db.BuildShardedDurable(200, 2, Durability{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		if !rec.Recovered || rec.ReplayedRecords != 100 {
			b.Fatalf("recovery = %+v, want 100 replayed records", rec)
		}
		if err := p.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
