package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"pnn"
)

// The dataset takes a few hundred milliseconds to generate; the tests
// share one.
var (
	dataOnce sync.Once
	dataSet  *dataset
	dataErr  error
)

func testDataset(t *testing.T) *dataset {
	t.Helper()
	dataOnce.Do(func() { dataSet, dataErr = newDataset() })
	if dataErr != nil {
		t.Fatal(dataErr)
	}
	return dataSet
}

func listFor(d *dataset, workload string, seed int64, seconds int) []op {
	ops, _, _ := workloadOps(d, workload, seed, seconds)
	return ops
}

func listBytes(ops []op) []byte {
	var buf bytes.Buffer
	for _, o := range ops {
		buf.WriteString(o.Kind.path())
		buf.Write(o.Body)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func TestOperationListsAreSeeded(t *testing.T) {
	d := testDataset(t)
	for _, wl := range workloadNames {
		a, b, c := listFor(d, wl, 7, 3), listFor(d, wl, 7, 3), listFor(d, wl, 8, 3)
		if !bytes.Equal(listBytes(a), listBytes(b)) {
			t.Errorf("%s: the same seed produced two different operation lists", wl)
		}
		if bytes.Equal(listBytes(a), listBytes(c)) {
			t.Errorf("%s: seeds 7 and 8 produced the same operation list", wl)
		}
		if want := int(workloadRates[wl] * (3 + warmupSeconds)); len(a) != want {
			t.Errorf("%s: %d operations, want %d", wl, len(a), want)
		}
	}
}

// Two seeds of a query workload execute the same multiset of pool
// shapes whenever the list holds whole cycles of the pool.
func TestQueryListsAreStratified(t *testing.T) {
	pool := newQueryPool(testDataset(t))
	if len(pool) != queryPoolSize {
		t.Fatalf("pool has %d templates, want %d", len(pool), queryPoolSize)
	}
	shapes := func(seed int64) []string {
		var out []string
		for _, o := range queryOps(pool, seed, 2*queryPoolSize) {
			it := o.Items[0]
			it.Seed = 0
			out = append(out, string(mustJSON(it))+o.Kind.path())
		}
		sort.Strings(out)
		return out
	}
	if a, b := shapes(1), shapes(2); strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Error("two seeds drew different multisets of query shapes over whole pool cycles")
	}
}

func TestGeneratorGuardRails(t *testing.T) {
	d := testDataset(t)
	seconds := 10
	if testing.Short() {
		seconds = 3
	}
	last := make(map[int]int) // object id -> time of its newest observation
	for _, o := range d.ds.Objects {
		last[o.ID] = o.Last().T
	}
	plan := newFanoutPlan(d, 4)
	lists := map[string][]op{
		wlQueryWarm: listFor(d, wlQueryWarm, 3, seconds),
		wlChurn:     listFor(d, wlChurn, 3, seconds),
		wlFanout:    append(append([]op(nil), plan.hotAdds...), listFor(d, wlFanout, 3, seconds)...),
	}
	for _, q := range probeQueries(d) {
		lists[wlQueryWarm] = append(lists[wlQueryWarm], queryOp(q))
	}

	// Every write must be accepted by a processor. Acceptance depends on
	// the object's own observations and the motion model only, so a
	// database of just the written objects decides it.
	net, _, err := d.load()
	if err != nil {
		t.Fatal(err)
	}
	for wl, ops := range lists {
		db := pnn.NewDB(net)
		written := make(map[int]bool)
		for _, o := range ops {
			if o.Kind == opObserve {
				written[o.ID] = true
			}
		}
		for _, o := range d.ds.Objects {
			if !written[o.ID] {
				continue
			}
			obs := make([]pnn.Observation, len(o.Obs))
			for i, ob := range o.Obs {
				obs[i] = pnn.Observation{T: ob.T, State: ob.State}
			}
			if err := db.Add(o.ID, obs); err != nil {
				t.Fatal(err)
			}
		}
		if len(written) == 0 {
			// Build needs an object; any will do for a list of queries.
			if err := db.Add(0, []pnn.Observation{{T: 0, State: 0}}); err != nil {
				t.Fatal(err)
			}
		}
		proc, err := db.Build(10)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[int]int)
		for id, tt := range last {
			seen[id] = tt
		}
		for i, o := range ops {
			for _, it := range o.Items {
				if it.Sem == pnn.Continuous && it.Te-it.Ts+1 > maxPCNNWindow {
					t.Errorf("%s op %d: PCNN window of %d tics", wl, i, it.Te-it.Ts+1)
				}
				if it.Te < it.Ts || it.State < 0 || it.State >= dsStates {
					t.Errorf("%s op %d: malformed query %+v", wl, i, it)
				}
			}
			switch o.Kind {
			case opAdd:
				if _, err := proc.AddObject(o.ID, o.Obs); err != nil {
					t.Errorf("%s op %d: add rejected: %v", wl, i, err)
				}
				for j := 1; j < len(o.Obs); j++ {
					if gap := o.Obs[j].T - o.Obs[j-1].T; gap > maxObsGap {
						t.Errorf("%s op %d: observations %d tics apart", wl, i, gap)
					}
				}
				seen[o.ID] = o.Obs[len(o.Obs)-1].T
			case opObserve:
				if _, err := proc.Observe(o.ID, o.Obs...); err != nil {
					t.Errorf("%s op %d: observe rejected: %v", wl, i, err)
				}
				if gap := o.Obs[0].T - seen[o.ID]; gap < 1 || gap > maxObsGap {
					t.Errorf("%s op %d: observation %d tics after the object's last one", wl, i, gap)
				}
				seen[o.ID] = o.Obs[len(o.Obs)-1].T
			}
		}
		proc.CloseSubscriptions()
	}
}

// Cold movers must stay outside every subscription window, or a cold
// write would cause evaluations.
func TestFanoutPlanShape(t *testing.T) {
	plan := newFanoutPlan(testDataset(t), 4)
	if len(plan.subs) != fanoutShapes*fanoutSubsPerShape || len(plan.hot) != fanoutHotMovers || len(plan.cold) != fanoutColdMovers {
		t.Fatalf("plan has %d subs, %d hot and %d cold movers", len(plan.subs), len(plan.hot), len(plan.cold))
	}
	end := fanoutWindowStart + fanoutWindowLen
	for _, m := range plan.cold {
		if m.steps[0].T <= end {
			t.Errorf("cold mover %d is observed at %d, inside or before the window", m.id, m.steps[0].T)
		}
	}
	ops := fanoutOps(plan, 5, 4)
	if !ops[len(ops)-1].Hot {
		t.Error("the write list does not end on a hot write")
	}
}

func TestPercentiles(t *testing.T) {
	var vs []float64
	for i := 100; i >= 1; i-- {
		vs = append(vs, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.9, 90}, {0.95, 95}, {0.99, 99}} {
		if got := percentile(vs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{100, 0.9, true}, {99, 0.9, false}, {200, 0.95, true}, {199, 0.95, false}, {1000, 0.99, true}} {
		if got := supportsPercentile(c.n, c.p); got != c.want {
			t.Errorf("supportsPercentile(%d, %v) = %v", c.n, c.p, got)
		}
	}
}

// A stall inside one sub-window must not move the window's percentile.
func TestChunkedPercentile(t *testing.T) {
	const perChunk = 20
	from, length := 2*time.Second, 10*time.Second
	var due []time.Duration
	var values []float64
	for i := 0; i < windowChunks*perChunk; i++ {
		due = append(due, from+time.Duration(i)*length/(windowChunks*perChunk))
		v := float64(1 + i%perChunk) // every sub-window holds 1..20
		if i/perChunk == 3 {
			v += 300 // the stall
		}
		values = append(values, v)
	}
	if got := chunkedPercentile(due, values, from, length, 0.5); got != 10 {
		t.Errorf("chunked p50 = %v, want 10", got)
	}
	if got := chunkedPercentile(due, values, from, length, 0.9); got != 18 {
		t.Errorf("chunked p90 = %v, want 18", got)
	}
	if got := percentile(values, 0.9); got < 300 {
		t.Errorf("whole-window p90 = %v: the stall was expected to set it", got)
	}
	// The last operation's due time may land on the window's end, and an
	// empty sub-window is left out.
	if got := chunkedPercentile([]time.Duration{from + length}, []float64{7}, from, length, 0.5); got != 7 {
		t.Errorf("a lone value at the window's end gave %v", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which
// the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	v := []float64{3.1, 2.9, 3.4, 3.0, 3.3, 2.8, 3.2, 3.6, 3.05, 2.95}
	q1, q3 := quartiles(v)
	if math.Abs(q1-2.9375) > 1e-12 || math.Abs(q3-3.325) > 1e-12 {
		t.Errorf("quartiles = %v, %v; statistics.quantiles gives 2.9375, 3.325", q1, q3)
	}
	if got, want := spreadShare(v), (3.325-2.9375)/3.075; math.Abs(got-want) > 1e-12 {
		t.Errorf("spreadShare = %v, want %v", got, want)
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	ms := func(v int) int64 { return int64(v) * int64(time.Millisecond) }
	// root(0..100) ─ a(0..60) ─ a1(0..25), a2(30..50)
	//              └ b(60..90) ─ b1: a separate replay that ran longer than b
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: ms(100)},
		{ID: 1, Parent: 0, Name: "a", Start: 0, End: ms(60)},
		{ID: 2, Parent: 1, Name: "leaf", Start: 0, End: ms(25)},
		{ID: 3, Parent: 1, Name: "leaf", Start: ms(30), End: ms(50)},
		{ID: 4, Parent: 0, Name: "b", Start: ms(60), End: ms(90)},
		{ID: 5, Parent: 4, Name: "slow", Start: ms(200), End: ms(240)},
		{ID: 6, Parent: -1, Name: "other", Start: ms(300), End: ms(310)},
	}
	self := selfTimes(spans)
	want := map[string][2]time.Duration{
		"root":  {100 * time.Millisecond, 10 * time.Millisecond},
		"a":     {60 * time.Millisecond, 15 * time.Millisecond},
		"leaf":  {45 * time.Millisecond, 45 * time.Millisecond},
		"b":     {30 * time.Millisecond, 0}, // floored: its child replay took 40 ms
		"slow":  {40 * time.Millisecond, 40 * time.Millisecond},
		"other": {10 * time.Millisecond, 10 * time.Millisecond},
	}
	for name, w := range want {
		st := self[name]
		if st == nil || st.Total != w[0] || st.Self != w[1] {
			t.Errorf("%s: total/self = %+v, want %v/%v", name, st, w[0], w[1])
		}
	}
	if self["leaf"].Count != 2 {
		t.Errorf("leaf counted %d times", self["leaf"].Count)
	}
	total, explained := coverage(spans, "root")
	if total != 100*time.Millisecond || explained != 100*time.Millisecond {
		t.Errorf("coverage(root) = %v of %v, want 100ms of 100ms (15+45+0+40)", explained, total)
	}
	if total, n := spanTotal(spans, "leaf"); total != 45*time.Millisecond || n != 2 {
		t.Errorf("spanTotal(leaf) = %v, %d", total, n)
	}

	// A nil tracer records nothing and is safe to use.
	var off *tracer
	if id := off.timed("x", 0, -1, func() {}); id != -1 {
		t.Errorf("nil tracer returned span %d", id)
	}
	off.setParent(0, 1)
	tr := newTracer()
	child := tr.timed("child", 1, -1, func() {})
	parent := tr.timed("parent", 1, -1, func() {})
	tr.setParent(child, parent)
	if tr.spans[child].Parent != parent {
		t.Error("setParent did not re-parent the span")
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestBenchmarkJSONConforms(t *testing.T) {
	bm, err := readBenchmark("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads declared, the driver runs %d", len(bm.Workloads), len(workloadNames))
	}
	for i, wl := range bm.Workloads {
		if wl.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, the driver's is %q", i, wl.Name, workloadNames[i])
		}
		if wl.Why == "" || len(wl.Why) > 200 || strings.Contains(wl.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", wl.Name)
		}
	}
	if n := len(bm.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(bm.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if bm.RunSeconds < 1 || bm.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bm.RunSeconds)
	}
	declared := make(map[string]bool)
	setup := false
	for _, d := range bm.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range append(append([]metricDecl(nil), bm.EndToEnd...), bm.PerLayer...) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q", d.Name)
		}
		if declared[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		declared[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if d.Unit == "" || len(d.Unit) > 16 {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
	}

	// Every metric the driver measures is declared, and the reverse: the
	// driver's sources name each metric once, as a literal map key.
	key := regexp.MustCompile(`\bm\["([a-z0-9_.]+)"\]`)
	measured := make(map[string]bool)
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range key.FindAllSubmatch(src, -1) {
			measured[string(m[1])] = true
		}
	}
	for name := range measured {
		if !declared[name] {
			t.Errorf("the driver measures %s, BENCHMARK.json does not declare it", name)
		}
	}
	for name := range declared {
		if !measured[name] {
			t.Errorf("BENCHMARK.json declares %s, the driver never measures it", name)
		}
	}
}

func TestTamperedGoldenFailsTheGate(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "bench", "golden"), 0o755); err != nil {
		t.Fatal(err)
	}
	probes := probeQueries(testDataset(t))
	answers := make([]probeAnswer, len(probes))
	for i := range answers {
		raw := []byte(`{"api_version":"v1.1","results":[{"object_id":` + string(rune('0'+i%10)) + `,"prob":0.5}],"stats":{"candidates":2,"influencers":3,"worlds":2000,"sampler_builds":0},"sampling":{"samples_drawn":2000,"error_bound":0.03,"early_stopped":false},"version":{"vector":[1,1],"max":1}}` + "\n")
		norm, err := normalizeAnswer(raw)
		if err != nil {
			t.Fatal(err)
		}
		answers[i] = probeAnswer{raw: raw, normalized: norm}
	}
	for _, wl := range []string{wlQueryWarm, wlCluster} {
		if err := writeGolden(goldenPath(root, wl), goldenOf(wl, probes, answers)); err != nil {
			t.Fatal(err)
		}
	}
	if fails := checkGolden(root, wlCluster, probes, answers); len(fails) != 0 {
		t.Fatalf("untampered golden failed: %v", fails)
	}
	g, err := readGolden(goldenPath(root, wlQueryWarm))
	if err != nil {
		t.Fatal(err)
	}
	g.Probes[3].SHA256 = strings.Repeat("0", 64)
	if err := writeGolden(goldenPath(root, wlQueryWarm), g); err != nil {
		t.Fatal(err)
	}
	fails := checkGolden(root, wlQueryWarm, probes, answers)
	if len(fails) != 1 || !strings.Contains(fails[0], "probe 3") {
		t.Fatalf("tampering probe 3's fingerprint reported %v", fails)
	}
	// The record realMain derives its exit status from: the gate's failure
	// makes the run incorrect and the command exit non-zero.
	cfg := runConfig{workload: wlQueryWarm, seed: 1, seconds: 10}
	if rec := newRunRecord(cfg, len(probes), 0, nil, fails); rec.Correct || exitCode(rec) == 0 {
		t.Errorf("a failed gate gave correct=%v, exit code %d", rec.Correct, exitCode(rec))
	}
	if rec := newRunRecord(cfg, len(probes), 0, nil, nil); !rec.Correct || exitCode(rec) != 0 {
		t.Errorf("a run without failures gave correct=%v, exit code %d", rec.Correct, exitCode(rec))
	}

	// The normalised form drops exactly the partition-dependent fields.
	norm, err := normalizeAnswer(answers[0].raw)
	if err != nil {
		t.Fatal(err)
	}
	if s := string(norm); strings.Contains(s, `"candidates":2`) || strings.Contains(s, `"vector":[1,1]`) || !strings.Contains(s, `"worlds":2000`) || !strings.Contains(s, `"max":1`) {
		t.Errorf("normalised answer = %s", s)
	}
}

func TestLateGeneratorInvalidatesTheRun(t *testing.T) {
	m := map[string]float64{
		"op_p50_ms": 3, "op_p90_ms": 8,
		"driver.sched_lag_p50_ms": 0.001, "driver.sched_lag_p90_ms": 0.3,
	}
	if fails := lagFailures(m); len(fails) != 0 {
		t.Errorf("lag of 0.03 %% and 3.75 %% of the percentiles reported %v", fails)
	}
	m["driver.sched_lag_p50_ms"] = 1 // what a millisecond timer does to a 3 ms query
	fails := lagFailures(m)
	if len(fails) != 1 || !strings.Contains(fails[0], "p50") {
		t.Fatalf("a median lag of a third of op_p50_ms reported %v", fails)
	}
	if rec := newRunRecord(runConfig{workload: wlQueryWarm}, 2000, 0, nil, fails); exitCode(rec) != 1 {
		t.Error("an invalid run exits 0")
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDecl{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDecl{Name: "rate", Better: "higher", Bound: 0.10}
	steady := []float64{10, 10.1, 9.9, 10.05, 9.95, 10, 10.1, 9.9, 10, 10}
	shift := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{8, 12, 9, 11, 7, 13, 10, 10, 8.5, 11.5}
	for _, c := range []struct {
		d    metricDecl
		a, b []float64
		want string
	}{
		{lower, steady, shift(1.05), "ok"},
		{lower, steady, shift(1.15), "worse"},
		{lower, steady, shift(0.80), "ok"},
		{higher, steady, shift(0.85), "worse"},
		{higher, steady, shift(1.30), "ok"},
		{lower, steady, noisy, "unresolved"},
		{lower, noisy, steady, "unresolved"},
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, median %.2f -> %.2f) = %s, want %s", c.d.Better, median(c.a), median(c.b), got, c.want)
		}
	}
}
