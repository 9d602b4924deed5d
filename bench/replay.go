package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pnn"
	"pnn/internal/inference"
	"pnn/internal/mcrand"
	"pnn/internal/nn"
	"pnn/internal/query"
	"pnn/internal/rtree"
	"pnn/internal/server"
	"pnn/internal/shard"
	"pnn/internal/store"
	"pnn/internal/uncertain"
	"pnn/internal/ustree"
)

// Sizes of the traced replay: the first traceQueries queries and
// traceWrites writes of the workload's list, one goroutine, in process.
const (
	traceQueries  = 200
	traceWrites   = 20
	overheadOps   = 50 // operations replayed with and without spans for driver.trace_overhead_share
	rejectedReps  = 50 // rejected writes timing the server's own write-path self time
	rtreeSearches = 200
)

// inproc is one in-process copy of the system under test: the facade a
// server would hold, the server around it, and a loopback listener in
// front of that.
type inproc struct {
	net  *pnn.Network
	proc *pnn.Processor
	srv  *server.Server
	ts   *httptest.Server
}

// newInproc builds a processor the way pnnserve does for the
// benchmark's flags (-samples, -shards, -warm, per-query parallelism 1),
// durable when dir is set.
func (r *runner) newInproc(dir string, warm bool) (*inproc, error) {
	net, db, err := r.data.load()
	if err != nil {
		return nil, err
	}
	var proc *pnn.Processor
	if dir != "" {
		proc, _, err = db.BuildShardedDurable(serverSamples, serverShards, pnn.Durability{Dir: dir, Fsync: true})
	} else {
		proc, err = db.BuildSharded(serverSamples, serverShards)
	}
	if err != nil {
		return nil, err
	}
	proc.SetParallelism(1)
	if warm {
		if err := proc.PrepareAll(); err != nil {
			return nil, err
		}
	}
	srv := server.New(net, proc, server.Config{BatchWorkers: runtime.NumCPU(), Ingest: true, Role: server.RoleStandalone})
	return &inproc{net: net, proc: proc, srv: srv, ts: httptest.NewServer(srv)}, nil
}

func (e *inproc) close() {
	e.ts.Close()
	e.proc.CloseSubscriptions()
	_ = e.proc.Close() // scratch state; nothing reads it after the replay
}

// replay accumulates what the traced pass measures besides spans.
type replay struct {
	r  *runner
	tr *tracer
	hc *http.Client

	queries, writes int // operations replayed
	rows, colBytes  float64
	statesDrawn     float64
	worldsEvaluated float64
	adaptNS         time.Duration // Σ ScatterResult.AdaptTime (prune + adapt, cold)
	refineNS        time.Duration // Σ RunShared Stats.RefineTime
	lattice, pcnn   float64
	boxes           float64

	// Played-router legs (cluster_router).
	legMS             []float64
	slowestLeg        time.Duration // Σ per answer of its slower leg
	gzBytes, rawBytes float64

	dirty   map[int]bool // objects written since their model was last adapted
	adapted map[int]bool // objects whose adaptation has been timed (static workloads)
	reach   *uncertain.Reach
	batch   nn.WorldBatch
}

func newReplay(r *runner, tr *tracer) *replay {
	return &replay{
		r: r, tr: tr, hc: &http.Client{},
		dirty: make(map[int]bool), adapted: make(map[int]bool), reach: uncertain.NewReach(),
	}
}

// group is one shared-world unit of a query operation: a one-shot query
// is a group of one, a share_worlds batch splits into its coalescing
// groups exactly as Processor.RunBatchStats forms them.
type group struct {
	spec  shard.GroupSpec
	items []shard.GroupItem
}

func groupsOf(net *pnn.Network, o *op) ([]group, error) {
	if o.Kind != opBatch {
		spec, item, err := pnn.NormalizeRequest(o.Items[0].request(net))
		return []group{{spec: spec, items: []shard.GroupItem{item}}}, err
	}
	var out []group
	index := make(map[string]int)
	for _, it := range o.Items {
		req := it.request(net)
		key, seed, err := pnn.ShareGroup(o.SharedSeed, req)
		if err != nil {
			return nil, err
		}
		spec, item, err := pnn.NormalizeRequest(req)
		if err != nil {
			return nil, err
		}
		gi, ok := index[key]
		if !ok {
			spec.Seed = seed
			gi = len(out)
			index[key] = gi
			out = append(out, group{spec: spec})
		}
		out[gi].items = append(out[gi].items, item)
	}
	return out, nil
}

// facadeQuery runs the operation through the facade call the server
// makes for it and reports how many models the call adapted.
func facadeQuery(e *inproc, o *op) (builds int, err error) {
	if o.Kind != opBatch {
		resp := e.proc.Run(o.Items[0].request(e.net))
		return resp.Stats.SamplerBuilds, resp.Err
	}
	reqs := make([]pnn.Request, len(o.Items))
	for i, it := range o.Items {
		reqs[i] = it.request(e.net)
	}
	resps, bst := e.proc.RunBatchStats(reqs, pnn.BatchOptions{Workers: runtime.NumCPU(), ShareWorlds: true, SharedSeed: o.SharedSeed})
	for _, resp := range resps {
		if resp.Err != nil {
			return bst.SamplerBuilds, resp.Err
		}
	}
	return bst.SamplerBuilds, nil
}

func serveRecorded(e *inproc, o *op) error {
	req := httptest.NewRequest(http.MethodPost, o.Kind.path(), bytes.NewReader(o.Body))
	rec := httptest.NewRecorder()
	e.srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("ServeHTTP %s: %d %s", o.Kind.path(), rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return nil
}

// query replays one query operation at every depth. px answers the
// facade-and-above depths (pnn.run first, so that it pays whatever cold
// adaptation the operation meets; the server and loopback depths are
// replayed only when it met none, which keeps the three comparable), py
// the seam and the leaves. On a static workload px and py are the same
// processor.
func (rp *replay) query(i int, o *op, px, py *inproc) error {
	tr := rp.tr
	rp.queries++
	var builds int
	var err error
	run := tr.timed(spRun, i, -1, func() { builds, err = facadeQuery(px, o) })
	if err != nil {
		return fmt.Errorf("op %d: pnn.run: %w", i, err)
	}
	if builds == 0 {
		srv := tr.timed(spServerQuery, i, -1, func() { err = serveRecorded(px, o) })
		if err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
		loop := tr.timed(spHTTPQuery, i, -1, func() {
			var status int
			var raw []byte
			if status, raw, err = post(rp.r.ctx, rp.hc, px.ts.URL+o.Kind.path(), o.Body); err == nil && status != http.StatusOK {
				err = fmt.Errorf("loopback %s: %d %s", o.Kind.path(), status, bytes.TrimSpace(raw))
			}
		})
		if err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
		tr.setParent(run, srv)
		tr.setParent(srv, loop)
	}

	var groups []group
	tr.timed(spNormalize, i, run, func() { groups, err = groupsOf(py.net, o) })
	if err != nil {
		return fmt.Errorf("op %d: %w", i, err)
	}
	for _, g := range groups {
		if err := rp.seam(i, run, g, py); err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
	}
	return nil
}

// seam replays one normalised group through the PR 8 seam composed from
// outside — Snap.Scatter, MergeScatters, Gather, ResponseFromAnswer —
// and then through the leaf calls those make.
func (rp *replay) seam(i, run int, g group, py *inproc) error {
	tr := rp.tr
	snap := py.proc.ShardSet().Snapshot()
	spec := g.spec
	var res *shard.ScatterResult
	var err error
	scatter := tr.timed(spScatter, i, run, func() { res, err = snap.Scatter(spec) })
	if err != nil {
		return err
	}
	var in shard.GatherInput
	tr.timed(spMerge, i, run, func() {
		in, err = shard.MergeScatters([]*shard.ScatterResult{res})
		in.Space = py.net.Space()
		in.Workers = runtime.NumCPU()
	})
	if err != nil {
		return err
	}
	var answers []shard.GroupAnswer
	var stats query.Stats
	gather := tr.timed(spGather, i, run, func() { answers, stats, _, err = shard.Gather(spec, g.items, in) })
	if err != nil {
		return err
	}
	tr.timed(spResponse, i, run, func() {
		for j, a := range answers {
			_ = pnn.ResponseFromAnswer(g.items[j].Op, a, stats)
		}
	})
	rp.rows += float64(len(res.Rows))
	for _, row := range res.Rows {
		rp.colBytes += float64(4 * len(row.States))
	}
	rp.adaptNS += res.AdaptTime

	if err := rp.leaves(i, scatter, gather, g, snap, res, stats.Worlds); err != nil {
		return err
	}
	// The facade's own path once more, now warm, for the refine time the
	// engine itself reports (draw + evaluate + lattice walk).
	_, st, err := snap.RunShared(spec, g.items)
	if err != nil {
		return err
	}
	rp.refineNS += st.RefineTime
	for _, it := range g.items {
		if it.Op == shard.OpCNN {
			rp.pcnn++
			rp.lattice += float64(st.LatticeSets)
			break
		}
	}
	return nil
}

// leaves replays the calls under a scatter and a gather: UST-tree
// pruning per shard, model adaptation for the influencers whose model a
// write invalidated, world drawing for every influencer, and the
// columnar NN evaluation of the worlds the gather actually consumed.
func (rp *replay) leaves(i, scatter, gather int, g group, snap *shard.Snap, res *shard.ScatterResult, worlds int) error {
	tr := rp.tr
	spec := g.spec
	nT := spec.Te - spec.Ts + 1

	type row struct {
		id  int
		smp *inference.Sampler
		obj *uncertain.Object
	}
	var rows []row
	var err error
	tr.timed(spPrune, i, scatter, func() {
		for _, part := range snap.Parts {
			pr := part.Engine.Tree().PruneK(spec.Q.At, spec.Ts, spec.Te, spec.K)
			for _, oi := range pr.Influencers {
				rows = append(rows, row{id: part.IDs[oi], obj: part.Engine.Tree().Objects()[oi]})
				if rows[len(rows)-1].smp, _, err = part.Engine.SamplerCached(oi); err != nil {
					return
				}
			}
		}
	})
	if err != nil {
		return err
	}
	for _, rw := range rows {
		// On a static workload nothing is ever dirty; the first few
		// distinct influencers are adapted anyway, off the tree, so that
		// inference.adapt_ms_per_build has a value to stay flat at.
		parent, due := scatter, rp.dirty[rw.id]
		if !due && len(rp.dirty) == 0 && len(rp.adapted) < 20 && !rp.adapted[rw.id] {
			parent, due = -1, true
		}
		if !due {
			continue
		}
		delete(rp.dirty, rw.id)
		rp.adapted[rw.id] = true
		tr.timed(spAdapt, i, parent, func() {
			var m *inference.Model
			if m, err = inference.AdaptShared(rw.obj, rp.reach); err == nil {
				_ = inference.NewSampler(m)
			}
		})
		if err != nil {
			return err
		}
	}

	maxN := res.Worlds
	cols := make([][]int32, len(rows))
	tr.timed(spDraw, i, scatter, func() {
		for li, rw := range rows {
			col := make([]int32, maxN*nT)
			rng := mcrand.New(mcrand.SubSeed(spec.Seed, rw.id))
			for w := 0; w < maxN; w++ {
				rw.smp.SampleWindowInto(&rng, spec.Ts, spec.Te, col[w*nT:(w+1)*nT])
			}
			cols[li] = col
		}
	})
	rp.statesDrawn += float64(len(rows) * maxN * nT)

	cand := make(map[int]bool, len(res.CandIDs))
	for _, id := range res.CandIDs {
		cand[id] = true
	}
	mask := make([]bool, nT)
	sp := snap.Parts[0].Engine.Tree().Space()
	tr.timed(spEvaluate, i, gather, func() {
		b := &rp.batch
		for w0 := 0; w0 < worlds; w0 += nn.WorldChunk {
			cn := min(nn.WorldChunk, worlds-w0)
			b.Reset(len(rows), cn, spec.Ts, spec.Te)
			for li := range rows {
				for w := 0; w < cn; w++ {
					copy(b.States(li, w), cols[li][(w0+w)*nT:(w0+w+1)*nT])
				}
			}
			b.ComputeDistances(sp, spec.Q.At)
			for w := 0; w < cn; w++ {
				for _, it := range g.items {
					for li, rw := range rows {
						switch {
						case it.Op == shard.OpForAll && cand[rw.id]:
							_ = b.KNNThroughout(w, li, spec.K)
						case it.Op == shard.OpExists:
							_ = b.KNNSometime(w, li, spec.K)
						case it.Op == shard.OpCNN:
							b.KNNMask(w, li, spec.K, mask)
						}
					}
				}
			}
		}
	})
	rp.worldsEvaluated += float64(worlds)
	return nil
}

// shardStores are standalone store.Store copies of each shard's objects:
// the structures the write leaves are timed on, kept in step with the
// processors by receiving every write themselves.
type shardStores struct {
	stores []*store.Store
	set    *shard.Set // routes ids to shards exactly as the processors do
}

func (r *runner) newShardStores(set *shard.Set) (*shardStores, error) {
	ss := &shardStores{set: set, stores: make([]*store.Store, set.NumShards())}
	parts := make([][]*uncertain.Object, set.NumShards())
	for _, o := range r.data.ds.Objects {
		si := set.ShardFor(o.ID)
		parts[si] = append(parts[si], o)
	}
	for si, objs := range parts {
		st, err := store.New(r.data.ds.Space, objs, serverSamples)
		if err != nil {
			return nil, err
		}
		ss.stores[si] = st
	}
	return ss, nil
}

// gapBoxes rebuilds, from outside the UST-tree, the (x, y, t) box of
// every observation gap it registers in its R*-tree: the union of the
// gap's per-timestep rectangles.
func gapBoxes(tree *ustree.Tree) []rtree.Box {
	var boxes []rtree.Box
	for oi, o := range tree.Objects() {
		for g := 0; g == 0 || g+1 < len(o.Obs); g++ {
			t0, t1 := o.Obs[g].T, o.Obs[min(g+1, len(o.Obs)-1)].T
			r, _ := tree.RectAt(oi, t0)
			for t := t0 + 1; t <= t1; t++ {
				if rt, ok := tree.RectAt(oi, t); ok {
					r = r.Union(rt)
				}
			}
			boxes = append(boxes, rtree.NewBox(r.Lo.X, r.Hi.X, r.Lo.Y, r.Hi.Y, float64(t0), float64(t1)))
		}
	}
	return boxes
}

// write replays one write at every depth below parent: the facade call
// on px (nil: skipped), Set.Observe/AddObject on py (nil: skipped), the
// standalone store of the owning shard, and under that the UST-tree
// update with the R*-tree re-registration it performs; wal, when set,
// receives the record a durable shard set would log. It returns the
// outermost span recorded.
func (rp *replay) write(i, parent int, o *op, px, py *inproc, ss *shardStores, wal *store.WAL) (int, error) {
	tr := rp.tr
	rp.writes++
	rp.dirty[o.ID] = true
	chain := rp.r.data.ds.Chain
	obs := make([]uncertain.Observation, len(o.Obs))
	for j, ob := range o.Obs {
		obs[j] = uncertain.Observation{T: ob.T, State: ob.State}
	}
	isAdd := o.Kind == opAdd
	name := func(observe, add string) string {
		if isAdd {
			return add
		}
		return observe
	}
	var err error
	top := -1 // the first span recorded
	descend := func(id int) {
		if top < 0 {
			top = id
		}
		parent = id
	}
	if px != nil {
		descend(tr.timed(name(spObserve, spAdd), i, parent, func() {
			if isAdd {
				_, err = px.proc.AddObject(o.ID, o.Obs)
			} else {
				_, err = px.proc.Observe(o.ID, o.Obs...)
			}
		}))
		if err != nil {
			return top, fmt.Errorf("op %d: facade write: %w", i, err)
		}
	}
	if py != nil && py != px {
		descend(tr.timed(name(spShardObserve, spShardAdd), i, parent, func() {
			if isAdd {
				var obj *uncertain.Object
				if obj, err = uncertain.NewObject(o.ID, obs, chain); err == nil {
					_, err = py.proc.ShardSet().AddObject(obj)
				}
			} else {
				_, err = py.proc.ShardSet().Observe(o.ID, obs)
			}
		}))
		if err != nil {
			return top, fmt.Errorf("op %d: shard write: %w", i, err)
		}
	}
	shardParent := parent

	st := ss.stores[ss.set.ShardFor(o.ID)]
	before := st.Snapshot()
	var after *store.Snapshot
	descend(tr.timed(name(spStoreObserve, spStoreAdd), i, parent, func() {
		if isAdd {
			var obj *uncertain.Object
			if obj, err = uncertain.NewObject(o.ID, obs, chain); err == nil {
				after, err = st.AddObject(obj)
			}
		} else {
			after, err = st.Observe(o.ID, obs)
		}
	}))
	if err != nil {
		return top, fmt.Errorf("op %d: store write: %w", i, err)
	}

	// The index step of that store write, on the pre-write tree (both
	// calls return a new tree and leave theirs untouched).
	tree := before.Engine.Tree()
	var updated *ustree.Tree
	if isAdd {
		obj, _ := uncertain.NewObject(o.ID, obs, chain) // validated by the store write above
		descend(tr.timed(spTreeInsert, i, parent, func() {
			updated = tree.Clone()
			_, err = updated.Insert(obj, rp.reach)
		}))
	} else {
		oi := -1
		for j, id := range before.IDs {
			if id == o.ID {
				oi = j
			}
		}
		upd := after.Engine.Tree().Objects()[oi]
		descend(tr.timed(spTreeUpdate, i, parent, func() { updated, err = tree.WithUpdatedObject(oi, upd, rp.reach) }))
	}
	if err != nil {
		return top, fmt.Errorf("op %d: index write: %w", i, err)
	}
	if !isAdd {
		// WithUpdatedObject re-registers every gap box in a fresh R*-tree.
		boxes := gapBoxes(updated)
		tr.timed(spRTreeInsert, i, parent, func() {
			rt := rtree.New(0)
			for j, b := range boxes {
				rt.Insert(b, rtree.Item(j))
			}
		})
		rp.boxes += float64(len(boxes))
	}

	if wal != nil {
		rec := store.WALRecord{Version: after.Version, Op: store.OpObserve, ID: o.ID, Obs: obs}
		if isAdd {
			rec.Op = store.OpAdd
		}
		tr.timed(spWALAppend, i, shardParent, func() { _, err = wal.Append(rec) })
		if err == nil {
			tr.timed(spWALSync, i, shardParent, func() { err = wal.Sync() })
		}
		if err != nil {
			return top, fmt.Errorf("op %d: WAL: %w", i, err)
		}
	}
	return top, nil
}

// rejectedWriteSelf times the server's own share of a write — decode,
// validate, encode — as ServeHTTP minus the facade call on a write the
// store rejects at once (an unknown id), so no state changes and the
// measurement repeats.
func rejectedWriteSelf(e *inproc) float64 {
	const unknown = 987654321
	o := writeOp(opObserve, unknown, []pnn.Observation{{T: 1, State: 1}})
	var serve, facade time.Duration
	for rep := 0; rep < rejectedReps; rep++ {
		t0 := time.Now()
		rec := httptest.NewRecorder()
		e.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, o.Kind.path(), bytes.NewReader(o.Body)))
		t1 := time.Now()
		_, _ = e.proc.Observe(unknown, o.Obs...) // the rejection is the point
		serve += t1.Sub(t0)
		facade += time.Since(t1)
	}
	return float64(serve-facade) / rejectedReps / 1e6
}

// rtreeTimes times R*-tree searches over the gap boxes of one shard's
// current tree with the (x, y, t) boxes queries of the pool would probe.
func (rp *replay) rtreeSearch(tree *ustree.Tree, ops []op) {
	boxes := gapBoxes(tree)
	rt := rtree.New(0)
	for j, b := range boxes {
		rt.Insert(b, rtree.Item(j))
	}
	sp := tree.Space()
	n := 0
	for i := range ops {
		if ops[i].Kind.isWrite() || n == rtreeSearches {
			continue
		}
		it := ops[i].Items[0]
		p := sp.Point(it.State)
		const reach = 0.1 // a query's pruning distance is a small fraction of the unit square
		box := rtree.NewBox(p.X-reach, p.X+reach, p.Y-reach, p.Y+reach, float64(it.Ts), float64(it.Te))
		rp.tr.timed(spRTreeSearch, i, -1, func() { rt.Search(box, func(rtree.Box, rtree.Item) bool { return true }) })
		n++
	}
}

// overheadShare replays fn with spans recorded into a scratch tracer and
// without, and returns the relative difference: what tracing costs. The
// order traced, untraced, untraced, traced cancels a linear drift
// (caches warming, the heap growing) between the passes.
func overheadShare(fn func(tr *tracer) error) (float64, error) {
	var traced, untraced time.Duration
	for _, on := range []bool{true, false, false, true} {
		var tr *tracer
		if on {
			tr = newTracer()
		}
		t0 := time.Now()
		if err := fn(tr); err != nil {
			return 0, err
		}
		if on {
			traced += time.Since(t0)
		} else {
			untraced += time.Since(t0)
		}
	}
	return float64(traced-untraced) / float64(untraced), nil
}

// runOverhead measures driver.trace_overhead_share on the facade depth
// of the first overheadOps queries, against the processor's final state.
func (rp *replay) runOverhead(e *inproc, ops []op) error {
	share, err := overheadShare(func(tr *tracer) error {
		n := 0
		for i := range ops {
			if ops[i].Kind.isWrite() || n == overheadOps {
				continue
			}
			n++
			var err error
			tr.timed(spRun, i, -1, func() { _, err = facadeQuery(e, &ops[i]) })
			if err != nil {
				return err
			}
		}
		return nil
	})
	rp.r.m["driver.trace_overhead_share"] = share
	return err
}

// traced is the second pass of a -trace 1 run: the in-process, layer by
// layer replay of the start of the workload's list.
func (r *runner) traced(dep *deployment, ops []op, plan *fanoutPlan) error {
	tr := newTracer()
	rp := newReplay(r, tr)
	var err error
	if r.cfg.workload != wlCluster {
		dep.stop() // only the cluster replay talks to the deployment's processes
	}
	switch r.cfg.workload {
	case wlQueryWarm:
		err = rp.traceStatic(ops)
	case wlChurn:
		err = rp.traceChurn(ops)
	case wlFanout:
		err = rp.traceFanout(ops, plan)
	case wlCluster:
		err = rp.traceCluster(dep, ops)
	}
	if err != nil {
		return fmt.Errorf("traced replay: %w", err)
	}
	rp.stageMetrics()
	out := filepath.Join(r.cfg.root, "bench", "out", "trace-"+r.cfg.workload+".json")
	return writeTrace(out, r.cfg.workload, r.cfg.seed, tr.spans)
}

// traceStatic replays query_warm: one warm processor serves every depth.
func (rp *replay) traceStatic(ops []op) error {
	e, err := rp.r.newInproc("", true)
	if err != nil {
		return err
	}
	defer e.close()
	for i := 0; i < len(ops) && rp.queries < traceQueries; i++ {
		if err := rp.query(i, &ops[i], e, e); err != nil {
			return err
		}
	}
	snap := e.proc.ShardSet().Snapshot()
	rp.rtreeSearch(snap.Parts[0].Engine.Tree(), ops)
	for _, part := range snap.Parts {
		rp.r.m["ustree.gaps"] += float64(part.Engine.Tree().NumLeaves())
	}
	rp.r.m["server.self_ms_per_write"] = rejectedWriteSelf(e)
	return rp.runOverhead(e, ops)
}

// traceChurn replays churn_durable's writes and queries in list order.
// Two durable, warm processors receive every write — px through the
// facade, py through the shard set — so that each answers its depths of
// the following queries from the same cache state; standalone stores and
// a standalone WAL take the write leaves.
func (rp *replay) traceChurn(ops []op) error {
	r := rp.r
	px, err := r.newInproc(filepath.Join(r.tmp, "trace-px"), true)
	if err != nil {
		return err
	}
	defer px.close()
	pyDir := filepath.Join(r.tmp, "trace-py")
	py, err := r.newInproc(pyDir, true)
	if err != nil {
		return err
	}
	pyOpen := true
	defer func() {
		if pyOpen {
			py.close()
		}
	}()
	ss, err := r.newShardStores(py.proc.ShardSet())
	if err != nil {
		return err
	}
	walDir := filepath.Join(r.tmp, "trace-wal")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return err
	}
	wal, err := store.OpenWAL(store.WALSegmentPath(walDir, 1), serverShards, 0, 1, false)
	if err != nil {
		return err
	}
	defer wal.Close()

	for i := 0; i < len(ops) && (rp.queries < traceQueries || rp.writes < traceWrites); i++ {
		o := &ops[i]
		switch {
		case o.Kind.isWrite() && rp.writes < traceWrites:
			_, err = rp.write(i, -1, o, px, py, ss, wal)
		case o.Kind.isWrite():
			// Past the traced writes the list's queries would aim at
			// objects that never moved; stop at the first untraced write.
			i = len(ops)
		default:
			err = rp.query(i, o, px, py)
		}
		if err != nil {
			return err
		}
	}

	// One spill per shard of the standalone stores, then the recovery of
	// py's directory: its WAL holds exactly the traced writes.
	for si, st := range ss.stores {
		var path string
		snap := st.Snapshot()
		rp.tr.timed(spSpillWrite, -1, -1, func() { path, err = store.WriteSpill(walDir, serverShards, si, snap) })
		if err != nil {
			return err
		}
		if fi, err := os.Stat(path); err == nil {
			r.m["store.spill_bytes"] += float64(fi.Size())
		}
		r.m["ustree.gaps"] += float64(snap.Engine.Tree().NumLeaves())
	}
	rp.rtreeSearch(ss.stores[0].Snapshot().Engine.Tree(), ops)
	r.m["server.self_ms_per_write"] = rejectedWriteSelf(px)
	if err := rp.runOverhead(px, ops); err != nil {
		return err
	}
	py.close()
	pyOpen = false
	_, db, err := r.data.load()
	if err != nil {
		return err
	}
	var rec *pnn.RecoveryInfo
	var recovered *pnn.Processor
	rp.tr.timed(spRecover, -1, -1, func() {
		recovered, rec, err = db.BuildShardedDurable(serverSamples, serverShards, pnn.Durability{Dir: pyDir, Fsync: true})
	})
	if err != nil {
		return err
	}
	if rec == nil || rec.ReplayedRecords != rp.writes {
		r.failf("in-process recovery replayed %+v, the traced pass logged %d writes", rec, rp.writes)
	}
	return recovered.Close()
}

// traceFanout replays subscribe_fanout's writes. px carries the
// standing queries (registered in process, timed), pn none; the same
// write lands on both, and what px needs beyond pn until its
// subscriptions are idle again is the fanout the write caused.
func (rp *replay) traceFanout(ops []op, plan *fanoutPlan) error {
	r := rp.r
	px, err := r.newInproc("", true)
	if err != nil {
		return err
	}
	defer px.close()
	pn, err := r.newInproc("", false)
	if err != nil {
		return err
	}
	defer pn.close()
	ss, err := r.newShardStores(pn.proc.ShardSet())
	if err != nil {
		return err
	}
	for i := range plan.hotAdds {
		o := &plan.hotAdds[i]
		if _, err := px.proc.AddObject(o.ID, o.Obs); err != nil {
			return err
		}
		if _, err := rp.write(-1, -1, o, pn, nil, ss, nil); err != nil {
			return err
		}
	}
	rp.writes = 0 // the parked movers are set-up, not traced writes
	rp.tr.spans = rp.tr.spans[:0]

	register := func(spec server.SubscriptionSpec) error {
		req := queryItem{Sem: pnn.Exists, State: *spec.Query.State, Ts: spec.Window.Ts, Te: spec.Window.Te, Tau: spec.Tau, Seed: spec.Seed}.request(px.net)
		var err error
		rp.tr.timed(spSubRegister, -1, -1, func() {
			_, err = px.proc.Subscribe(req, pnn.Delivery{Transport: spec.Delivery.Transport, QueueCap: 64})
		})
		return err
	}
	for _, spec := range append(append([]server.SubscriptionSpec(nil), plan.subs...), plan.witness) {
		if err := register(spec); err != nil {
			return err
		}
	}
	if !px.proc.WaitSubscriptionsIdle(30 * time.Second) {
		return fmt.Errorf("in-process subscriptions never went idle")
	}

	s0 := px.proc.SubscriptionStats()
	for i := 0; i < len(ops) && rp.writes < traceWrites; i++ {
		o := &ops[i]
		name := spSubColdWrite
		if o.Hot {
			name = spSubHotWrite
		}
		before := px.proc.SubscriptionStats().Evaluations
		var err error
		top := rp.tr.timed(name, i, -1, func() {
			if _, err = px.proc.Observe(o.ID, o.Obs...); err == nil && !px.proc.WaitSubscriptionsIdle(30*time.Second) {
				err = fmt.Errorf("subscriptions never went idle after op %d", i)
			}
		})
		if err != nil {
			return err
		}
		if evals := px.proc.SubscriptionStats().Evaluations - before; !o.Hot && evals != 0 {
			r.failf("cold write %d caused %d evaluations", i, evals)
		}
		if _, err := rp.write(i, top, o, pn, nil, ss, nil); err != nil {
			return err
		}
	}
	s1 := px.proc.SubscriptionStats()
	w := float64(rp.writes)
	r.m["sub.touch_tests_per_write"] = ratio(float64(s1.TouchTests-s0.TouchTests), w)
	r.m["sub.affected_per_write"] = ratio(float64(s1.Affected-s0.Affected), w)
	for _, st := range ss.stores {
		r.m["ustree.gaps"] += float64(st.Snapshot().Engine.Tree().NumLeaves())
	}
	r.m["server.self_ms_per_write"] = rejectedWriteSelf(px)

	// The witness's query, one-shot, with and without spans.
	wq := queryOp(queryItem{Sem: pnn.Exists, State: *plan.witness.Query.State, Ts: plan.witness.Window.Ts, Te: plan.witness.Window.Te, Tau: plan.witness.Tau, Seed: plan.witness.Seed})
	probe := make([]op, overheadOps)
	for i := range probe {
		probe[i] = wq
	}
	return rp.runOverhead(px, probe)
}

// stageMetrics turns the recorded spans and counters into the per-layer
// time metrics, and checks that the stage self times account for their
// root spans.
func (rp *replay) stageMetrics() {
	m, spans := rp.r.m, rp.tr.spans
	ms := func(name string) (float64, float64) {
		t, n := spanTotal(spans, name)
		return float64(t) / 1e6, float64(n)
	}
	perQuery := func(name string) float64 {
		t, _ := ms(name)
		return ratio(t, float64(rp.queries))
	}
	mean := func(name string) float64 {
		t, n := ms(name)
		return ratio(t, n)
	}
	self := selfTimes(spans)
	selfMS := func(name string) float64 {
		if st := self[name]; st != nil {
			return float64(st.Self) / 1e6
		}
		return 0
	}

	_, served := ms(spServerQuery)
	m["server.http_ms_per_op"] = ratio(selfMS(spHTTPQuery), served)
	m["server.self_ms_per_query"] = ratio(selfMS(spServerQuery), served)
	m["pnn.run_ms_per_query"] = perQuery(spRun)
	m["pnn.self_ms_per_query"] = ratio(selfMS(spRun), float64(rp.queries))
	m["pnn.observe_ms"] = mean(spObserve)
	m["pnn.add_ms"] = mean(spAdd)
	m["shard.scatter_ms_per_query"] = perQuery(spScatter)
	m["shard.merge_ms_per_query"] = perQuery(spMerge)
	m["shard.gather_ms_per_query"] = perQuery(spGather)
	m["shard.rows_per_query"] = ratio(rp.rows, float64(rp.queries))
	m["shard.column_bytes_per_query"] = ratio(rp.colBytes, float64(rp.queries))
	m["shard.recover_ms"] = mean(spRecover)
	m["ustree.prune_ms_per_query"] = perQuery(spPrune)
	m["ustree.update_ms_per_observe"] = mean(spTreeUpdate)
	m["ustree.insert_ms_per_add"] = mean(spTreeInsert)
	rtreeMS, _ := ms(spRTreeInsert)
	m["rtree.insert_us_per_box"] = ratio(rtreeMS*1e3, rp.boxes)
	m["rtree.search_us"] = mean(spRTreeSearch) * 1e3
	m["inference.adapt_ms_per_build"] = mean(spAdapt)
	m["inference.draw_ms_per_query"] = perQuery(spDraw)
	drawMS, _ := ms(spDraw)
	m["inference.draw_ns_per_state"] = ratio(drawMS*1e6, rp.statesDrawn)
	m["nn.evaluate_ms_per_query"] = perQuery(spEvaluate)
	evalMS, _ := ms(spEvaluate)
	m["nn.evaluate_ns_per_world"] = ratio(evalMS*1e6, rp.worldsEvaluated)
	runMS, _ := ms(spRun)
	m["query.adapt_share"] = ratio(float64(rp.adaptNS)/1e6, runMS)
	m["query.refine_share"] = ratio(float64(rp.refineNS)/1e6, runMS)
	m["query.pcnn_lattice_sets_per_query"] = ratio(rp.lattice, rp.pcnn)
	m["store.observe_ms"] = mean(spStoreObserve)
	m["store.add_ms"] = mean(spStoreAdd)
	m["store.wal_append_us"] = mean(spWALAppend) * 1e3
	m["store.wal_sync_us"] = mean(spWALSync) * 1e3
	m["store.spill_write_ms"] = mean(spSpillWrite)
	m["sub.register_ms_per_sub"] = mean(spSubRegister)
	_, hot := ms(spSubHotWrite)
	_, cold := ms(spSubColdWrite)
	m["sub.fanout_ms_per_hot_write"] = ratio(selfMS(spSubHotWrite), hot)
	m["sub.fanout_ms_per_cold_write"] = ratio(selfMS(spSubColdWrite), cold)

	// Acceptance: the stages below a root explain at least nine tenths of
	// the root's own time. A write's root is only warned about: it is the
	// first of its replays to touch the index, so it alone pays for cold
	// memory (~15 % on the seed commit), which no stage below it can show.
	for _, root := range []string{spRun, spRouter, spObserve} {
		total, explained := coverage(spans, root)
		if total == 0 || float64(explained) >= 0.9*float64(total) {
			continue
		}
		msg := fmt.Sprintf("traced %s: the stages below it explain %.0f %% of its time", root, 100*float64(explained)/float64(total))
		if root == spObserve {
			fmt.Fprintln(os.Stderr, "bench: warning:", msg)
		} else {
			rp.r.failf("%s", msg)
		}
	}
}
