package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"pnn/internal/server"
)

const (
	setupRepeats = 3    // set-ups per run; setup_s is their median
	maxLagShare  = 0.05 // of a latency percentile the generator may run late at that percentile
)

type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string
	update   bool // rewrite the golden fingerprints instead of checking them
}

// runner carries one run of one workload.
type runner struct {
	cfg   runConfig
	ctx   context.Context
	procs *procs
	load  *http.Client // the open loop's client, capped at conns connections
	ctl   *http.Client // set-up, probes and gates
	conns int

	data     *dataset
	dataFile string
	tmp      string // per-run scratch directory inside the checkout
	setups   int

	m         map[string]float64 // every metric measured, by name
	fails     []string           // correctness failures
	attempted int
	failed    int
}

func (r *runner) failf(format string, args ...any) {
	r.fails = append(r.fails, fmt.Sprintf(format, args...))
}

// deployment is one set-up of the system under test.
type deployment struct {
	front       *node   // the node traffic is sent to
	nodes       []*node // every server process, for CPU and memory accounting
	frontArgs   []string
	dataDir     string // churn_durable
	witness     *witness
	setupWrites int // writes acknowledged during set-up
}

func (d *deployment) stop() {
	if d.witness != nil {
		d.witness.close()
	}
	for _, n := range d.nodes {
		n.kill()
	}
	if d.dataDir != "" {
		_ = os.RemoveAll(d.dataDir) // scratch; the whole run directory is removed at exit anyway
	}
}

func (r *runner) serverArgs(extra ...string) []string {
	return append([]string{
		"-data", r.dataFile, "-samples", strconv.Itoa(serverSamples),
		"-shards", strconv.Itoa(serverShards), "-warm",
	}, extra...)
}

// setup boots the workload's servers and returns once every node is
// healthy and, on subscribe_fanout, every subscription is registered and
// has delivered its initial answer. The returned duration is setup_s.
func (r *runner) setup(plan *fanoutPlan) (*deployment, time.Duration, error) {
	begin := time.Now()
	d := &deployment{}
	fail := func(err error) (*deployment, time.Duration, error) {
		d.stop()
		return nil, 0, err
	}
	start := func(name string, port int, args []string) (*node, error) {
		n, err := r.procs.spawn(name, port, args...)
		if err != nil {
			return nil, err
		}
		d.nodes = append(d.nodes, n)
		return n, nil
	}
	r.setups++
	switch r.cfg.workload {
	case wlCluster:
		ports, err := freePorts(3)
		if err != nil {
			return fail(err)
		}
		peers := fmt.Sprintf("a=http://127.0.0.1:%d,b=http://127.0.0.1:%d", ports[0], ports[1])
		for i, name := range []string{"a", "b"} {
			if _, err := start("peer-"+name, ports[i], r.serverArgs("-role", "peer", "-peer-name", name, "-peers", peers)); err != nil {
				return fail(err)
			}
		}
		for _, n := range d.nodes {
			if _, err := n.waitHealthy(r.ctx, r.ctl); err != nil {
				return fail(err)
			}
		}
		// The router bootstraps against healthy peers at once; started
		// before them it would poll every 200 ms and quantise setup_s.
		d.frontArgs = []string{"-data", r.dataFile, "-role", "router", "-peers", peers}
		router, err := start("router", ports[2], d.frontArgs)
		if err != nil {
			return fail(err)
		}
		d.front = router
	default:
		ports, err := freePorts(1)
		if err != nil {
			return fail(err)
		}
		d.frontArgs = r.serverArgs()
		if r.cfg.workload == wlChurn {
			d.dataDir = filepath.Join(r.tmp, fmt.Sprintf("state-%d", r.setups))
			d.frontArgs = r.serverArgs("-data-dir", d.dataDir, "-fsync=true", "-spill-interval", "0")
		}
		if d.front, err = start("server", ports[0], d.frontArgs); err != nil {
			return fail(err)
		}
	}
	if _, err := d.front.waitHealthy(r.ctx, r.ctl); err != nil {
		return fail(err)
	}
	if r.cfg.workload == wlFanout {
		if err := r.registerFanout(d, plan); err != nil {
			return fail(err)
		}
	}
	return d, time.Since(begin), nil
}

// registerFanout parks the hot movers, registers every standing query
// (conns at a time) plus the SSE witness, and waits until each has
// emitted its initial answer.
func (r *runner) registerFanout(d *deployment, plan *fanoutPlan) error {
	base := d.front.base
	for i := range plan.hotAdds {
		if res := doOp(r.ctx, r.ctl, base, &plan.hotAdds[i]); !res.ok {
			return fmt.Errorf("parking hot mover %d: %s", i, res.err)
		}
		d.setupWrites++
	}
	jobs := make(chan server.SubscriptionSpec)
	errs := make(chan error, r.conns)
	var wg sync.WaitGroup
	for c := 0; c < r.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for spec := range jobs {
				status, raw, err := post(r.ctx, r.ctl, base+"/v1/subscribe", mustJSON(spec))
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("HTTP %d: %s", status, raw)
				}
				if err != nil {
					select {
					case errs <- fmt.Errorf("registering subscription: %w", err):
					default:
					}
				}
			}
		}()
	}
	for _, spec := range plan.subs {
		jobs <- spec
	}
	close(jobs)
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
	}
	w, err := openWitness(r.ctx, base, plan.witness)
	if err != nil {
		return err
	}
	d.witness = w
	for {
		list, err := r.subscriptions(base)
		if err != nil {
			return err
		}
		idle := len(list) == len(plan.subs)+1
		for _, s := range list {
			idle = idle && s.Events >= 1
		}
		if idle {
			return nil
		}
		select {
		case <-r.ctx.Done():
			return fmt.Errorf("subscriptions never went idle: %w", r.ctx.Err())
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func (r *runner) subscriptions(base string) ([]server.SubInfoJSON, error) {
	var list server.SubListResponse
	err := getJSON(r.ctx, r.ctl, base+"/v1/subscriptions", &list)
	return list.Subscriptions, err
}

// usage is the servers' resource reading at one instant.
type usage struct {
	at     time.Time
	cpu    float64 // user+sys seconds, summed over the nodes
	stolen float64 // seconds the hypervisor withheld from the whole machine
	health *server.HealthResponse
}

func (r *runner) usage(d *deployment) (usage, error) {
	u := usage{at: time.Now(), stolen: stolenSeconds()}
	for _, n := range d.nodes {
		c, err := cpuSeconds(n.pid())
		if err != nil {
			return u, err
		}
		u.cpu += c
	}
	h, err := getHealth(r.ctx, r.ctl, d.front.base)
	u.health = h
	return u, err
}

// run executes the workload end to end: set-up (setupRepeats times),
// probes, warm-up, the measured window, and the correctness gates.
func (r *runner) run() error {
	ops, warm, plan := workloadOps(r.data, r.cfg.workload, r.cfg.seed, r.cfg.seconds)

	// The benchmark's set-up time is the median of several set-ups; the
	// last one is kept and measured against.
	var dep *deployment
	var setupTimes []float64
	repeats := setupRepeats
	if r.cfg.trace {
		repeats = 1 // setup_s is an end-to-end metric; a traced run does not report it
	}
	for i := 0; i < repeats; i++ {
		if dep != nil {
			dep.stop()
		}
		d, took, err := r.setup(plan)
		if err != nil {
			return err
		}
		dep = d
		setupTimes = append(setupTimes, took.Seconds())
	}
	defer dep.stop()
	r.m["setup_s"] = median(setupTimes)

	probes := probeQueries(r.data)
	before, err := runProbes(r.ctx, r.ctl, dep.front.base, probes)
	if err != nil {
		return err
	}
	if r.cfg.update {
		if err := writeGolden(goldenPath(r.cfg.root, r.cfg.workload), goldenOf(r.cfg.workload, probes, before)); err != nil {
			return err
		}
	} else {
		r.fails = append(r.fails, checkGolden(r.cfg.root, r.cfg.workload, probes, before)...)
	}
	r.fails = append(r.fails, exactGate(r.ctx, r.ctl, dep.front.base, r.data)...)

	win, err := r.window(dep, ops, warm)
	if err != nil {
		return err
	}
	r.windowMetrics(dep, ops, warm, win)

	if err := r.gates(dep, plan, probes, before, win); err != nil {
		return err
	}
	if r.cfg.trace {
		return r.traced(dep, ops, plan)
	}
	return nil
}

// windowResult is everything the open loop and its bracketing readings
// produced.
type windowResult struct {
	start    time.Time
	results  []opResult
	u0, u1   usage
	complete []time.Duration // per measured op: due → complete, -1 when it failed
	lags     []float64       // hot write due → witness event, ms
	events   []witnessEvent
	acked    int // writes acknowledged over warm-up and window
}

// window replays the operation list open loop. Server CPU and the
// /healthz counters are read when the warm-up ends and when the last
// operation has completed.
func (r *runner) window(dep *deployment, ops []op, warm int) (*windowResult, error) {
	rate := workloadRates[r.cfg.workload]
	w := &windowResult{}
	var u0err error
	boundary := make(chan struct{})
	timer := time.AfterFunc(time.Duration(float64(warm)/rate*float64(time.Second)), func() {
		w.u0, u0err = r.usage(dep)
		close(boundary)
	})
	defer timer.Stop()
	w.results, w.start = runOpenLoop(r.ctx, r.load, dep.front.base, ops, rate, r.conns)
	select {
	case <-boundary:
	case <-r.ctx.Done():
		return nil, r.ctx.Err()
	}
	if u0err != nil {
		return nil, u0err
	}
	var err error
	if w.u1, err = r.usage(dep); err != nil {
		return nil, err
	}
	for i, res := range w.results {
		if ops[i].Kind.isWrite() && res.ok {
			w.acked++
		}
	}
	if dep.witness != nil {
		r.awaitWitness(dep.witness, ops, w)
	}
	w.complete = make([]time.Duration, 0, len(ops)-warm)
	for i := warm; i < len(ops); i++ {
		res := w.results[i]
		done := res.done
		if res.ok && ops[i].Hot {
			// A hot write is complete when the witness has an answer at
			// (or past) the version the write published.
			done = -1
			for _, ev := range w.events {
				if ev.Event == "answer" && ev.Version >= res.version {
					done = ev.recv.Sub(w.start)
					w.lags = append(w.lags, float64(done-res.due)/1e6)
					break
				}
			}
		}
		if !res.ok || done < 0 {
			w.complete = append(w.complete, -1)
			continue
		}
		w.complete = append(w.complete, max(done, res.done)-res.due)
	}
	return w, nil
}

// awaitWitness waits (at most 5 s) for the witness to reach the version
// of the last acknowledged hot write, then snapshots its events.
func (r *runner) awaitWitness(wit *witness, ops []op, w *windowResult) {
	var lastHot int64
	for i, res := range w.results {
		if res.ok && ops[i].Hot && res.version > lastHot {
			lastHot = res.version
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		events, err := wit.snapshot()
		w.events = events
		if err != nil {
			r.failf("witness stream: %v", err)
			return
		}
		if n := len(events); (n > 0 && events[n-1].Version >= lastHot) || time.Now().After(deadline) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// windowMetrics turns the window into the end-to-end metrics and the
// counts the service itself publishes.
func (r *runner) windowMetrics(dep *deployment, ops []op, warm int, w *windowResult) {
	m := r.m
	var all, queryLat, writeLat, schedLag []float64
	var allDue []time.Duration // due time of each value of all
	var respBytes, candidates, influencers, worlds, builds float64
	var items, queryOps, confItems, confDrawn, earlyStopped float64
	var batches, batchGroups, batchBuilds float64
	okOps, okWrites := 0, 0
	for i := warm; i < len(ops); i++ {
		res, o := w.results[i], &ops[i]
		r.attempted++
		c := w.complete[i-warm]
		if c < 0 {
			r.failed++
			if len(r.fails) < 8 {
				msg := res.err
				if msg == "" {
					msg = "no witness event for this hot write"
				}
				r.failf("operation %d (%s) failed: %s", i, o.Kind.path(), msg)
			}
			continue
		}
		okOps++
		all = append(all, float64(c)/1e6)
		allDue = append(allDue, res.due)
		schedLag = append(schedLag, float64(res.late)/1e6)
		if o.Kind.isWrite() {
			okWrites++
			writeLat = append(writeLat, float64(res.latency())/1e6)
			continue
		}
		queryLat = append(queryLat, float64(res.latency())/1e6)
		queryOps++
		respBytes += float64(res.bytes)
		for j, qr := range res.queries {
			items++
			candidates += float64(qr.Stats.Candidates)
			influencers += float64(qr.Stats.Influencers)
			worlds += float64(qr.Sampling.SamplesDrawn)
			builds += float64(qr.Stats.SamplerBuilds)
			if j < len(o.Items) && o.Items[j].Eps > 0 {
				confItems++
				confDrawn += float64(qr.Sampling.SamplesDrawn)
				if qr.Sampling.EarlyStopped {
					earlyStopped++
				}
			}
		}
		if res.batch != nil {
			batches++
			batchGroups += float64(res.batch.Groups)
			batchBuilds += float64(res.batch.SamplerBuilds)
			builds += float64(res.batch.SamplerBuilds)
		}
	}
	elapsed := w.u1.at.Sub(w.u0.at).Seconds()
	cpu := w.u1.cpu - w.u0.cpu

	from, length := w.results[warm].due, time.Duration(r.cfg.seconds)*time.Second
	m["op_p50_ms"] = chunkedPercentile(allDue, all, from, length, 0.50)
	m["op_p90_ms"] = chunkedPercentile(allDue, all, from, length, 0.90)
	if !supportsPercentile(len(all), 0.90) {
		fmt.Fprintf(os.Stderr, "bench: warning: %d operations leave fewer than ten beyond op_p90_ms\n", len(all))
	}
	m["cpu_ms_per_op"] = ratio(cpu*1000, float64(okOps))
	rss := 0.0
	for _, n := range dep.nodes {
		v, err := peakRSSMB(n.pid())
		if err != nil {
			r.failf("reading peak RSS: %v", err)
		}
		rss += v
	}
	m["peak_rss_mb"] = rss

	m["driver.sched_lag_p50_ms"] = percentile(schedLag, 0.50)
	m["driver.sched_lag_p90_ms"] = percentile(schedLag, 0.90)
	m["driver.offered_ops_s"] = workloadRates[r.cfg.workload]
	m["driver.achieved_ops_s"] = ratio(float64(okOps), elapsed)
	m["driver.failed_share"] = ratio(float64(r.failed), float64(r.attempted))
	m["driver.server_util_share"] = ratio(cpu, elapsed*float64(runtime.NumCPU()))
	m["driver.query_p50_ms"] = percentile(queryLat, 0.50)
	m["driver.query_p95_ms"] = percentile(queryLat, 0.95)
	m["driver.query_p99_ms"] = percentile(queryLat, 0.99)
	m["driver.write_p50_ms"] = percentile(writeLat, 0.50)
	m["driver.write_p90_ms"] = percentile(writeLat, 0.90)
	m["driver.event_lag_p50_ms"] = percentile(w.lags, 0.50)
	m["driver.event_lag_p90_ms"] = percentile(w.lags, 0.90)
	if stolen := ratio(w.u1.stolen-w.u0.stolen, elapsed*float64(runtime.NumCPU())); stolen > 0.05 {
		fmt.Fprintf(os.Stderr, "bench: warning: the hypervisor stole %.0f %% of the machine's CPU during the window; expect this run to read slow\n", 100*stolen)
	}
	r.fails = append(r.fails, lagFailures(m)...)

	m["server.resp_bytes_per_query"] = ratio(respBytes, queryOps)
	m["pnn.batch_groups_per_batch"] = ratio(batchGroups, batches)
	m["pnn.batch_builds_per_batch"] = ratio(batchBuilds, batches)
	m["ustree.candidates_per_query"] = ratio(candidates, items)
	m["ustree.influencers_per_query"] = ratio(influencers, items)
	if items > 0 {
		m["ustree.pruned_share"] = 1 - ratio(influencers, items)/float64(w.u1.health.Objects)
	}
	m["inference.builds_per_query"] = ratio(builds, items)
	m["inference.worlds_per_query"] = ratio(worlds, items)
	m["query.early_stop_share"] = ratio(earlyStopped, confItems)
	m["query.worlds_drawn_share"] = ratio(confDrawn, confItems*serverSamples)

	h0, h1 := w.u0.health, w.u1.health
	hits, built := float64(h1.CacheHits-h0.CacheHits), float64(h1.CacheBuilds-h0.CacheBuilds)
	m["inference.cache_hit_share"] = ratio(hits, hits+built)
	m["store.wal_bytes_per_write"] = ratio(float64(h1.Durability.WALBytesSinceSpill-h0.Durability.WALBytesSinceSpill), float64(okWrites))
	s0, s1 := h0.Subscriptions, h1.Subscriptions
	m["sub.evals_per_write"] = ratio(float64(s1.Evaluations-s0.Evaluations), float64(okWrites))
	m["sub.groups_per_write"] = ratio(float64(s1.Groups-s0.Groups), float64(okWrites))
	m["sub.sweeps_per_write"] = ratio(float64(s1.Sweeps-s0.Sweeps), float64(okWrites))
	if dep.witness != nil {
		inWindow := 0
		for _, ev := range w.events {
			if ev.recv.Sub(w.start) >= w.results[warm].due {
				inWindow++
			}
		}
		m["server.sse_events"] = float64(inWindow)
		if n := len(w.events); n > 0 {
			m["server.sse_dropped"] = float64(w.events[n-1].Dropped)
		}
		if list, err := r.subscriptions(dep.front.base); err == nil {
			dropped := 0.0
			for _, s := range list {
				dropped += float64(s.Dropped)
			}
			m["sub.dropped"] = dropped
		}
	}
}

// lagFailures invalidates a run whose generator ran late by more than
// maxLagShare of a latency percentile, at that same percentile: it, not
// the server, then shaped the number.
func lagFailures(m map[string]float64) []string {
	var fails []string
	for _, pc := range []string{"p50", "p90"} {
		if lag, lat := m["driver.sched_lag_"+pc+"_ms"], m["op_"+pc+"_ms"]; lag > maxLagShare*lat {
			fails = append(fails, fmt.Sprintf("invalid run: schedule lag %s %.3f ms exceeds %.0f %% of op_%s_ms %.3f ms", pc, lag, 100*maxLagShare, pc, lat))
		}
	}
	return fails
}

// gates runs the correctness checks that follow the window.
func (r *runner) gates(dep *deployment, plan *fanoutPlan, probes []queryItem, before []probeAnswer, w *windowResult) error {
	base := dep.front.base
	// (c) Every acknowledged write advanced the version by exactly one.
	h, err := getHealth(r.ctx, r.ctl, base)
	if err != nil {
		return err
	}
	if want := int64(1 + dep.setupWrites + w.acked); h.Version != want {
		r.failf("final version %d, want 1 + %d acknowledged writes", h.Version, dep.setupWrites+w.acked)
	}
	after, err := runProbes(r.ctx, r.ctl, base, probes)
	if err != nil {
		return err
	}
	if r.cfg.workload == wlChurn {
		// The first pass re-adapted whatever the window's writes had
		// invalidated; the second reports sampler_builds 0, as the
		// restarted (-warm) server will.
		if after, err = runProbes(r.ctx, r.ctl, base, probes); err != nil {
			return err
		}
	}
	switch r.cfg.workload {
	case wlQueryWarm, wlCluster:
		// (a) A static database answers the probes byte-identically before
		// and after the window.
		r.fails = append(r.fails, sameAnswers("after the window", before, after)...)
	case wlChurn:
		return r.recoverGate(dep, probes, after, h)
	case wlFanout:
		// (d) The witness's last event equals a one-shot now.
		var last *witnessEvent
		for i := range w.events {
			if w.events[i].Event == "answer" {
				last = &w.events[i]
			}
		}
		if last == nil {
			r.failf("the witness received no answer event")
			break
		}
		r.fails = append(r.fails, witnessMatchesOneShot(r.ctx, r.ctl, base, plan.witness, *last)...)
	}
	return nil
}

// recoverGate SIGKILLs the durable server, restarts it on the same data
// directory and checks that it comes back with the pre-kill version
// vector and answers the probes with the pre-kill bytes. The restart's
// duration is driver.recover_s.
func (r *runner) recoverGate(dep *deployment, probes []queryItem, preKill []probeAnswer, h0 *server.HealthResponse) error {
	dep.front.kill()
	ports, err := freePorts(1)
	if err != nil {
		return err
	}
	begin := time.Now()
	n, err := r.procs.spawn("server-restarted", ports[0], dep.frontArgs...)
	if err != nil {
		return err
	}
	dep.nodes = append(dep.nodes, n)
	dep.front = n
	h1, err := n.waitHealthy(r.ctx, r.ctl)
	if err != nil {
		return err
	}
	r.m["driver.recover_s"] = time.Since(begin).Seconds()
	r.m["shard.replayed_records"] = float64(h1.Durability.ReplayedRecords)
	if h1.Version != h0.Version || fmt.Sprint(h1.ShardVersions) != fmt.Sprint(h0.ShardVersions) {
		r.failf("recovered to version %d %v, the killed server was at %d %v", h1.Version, h1.ShardVersions, h0.Version, h0.ShardVersions)
	}
	// -warm re-adapts every model at boot, so sampler_builds is 0 on both
	// sides and the bodies compare raw.
	after, err := runProbes(r.ctx, r.ctl, n.base, probes)
	if err != nil {
		return err
	}
	r.fails = append(r.fails, sameAnswers("after kill and recovery", preKill, after)...)
	return nil
}
