package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// Stage vocabulary of the traced replay: one span name per layer
// boundary. The same operation is replayed at successive depths, each
// replay recorded as a child of the shallower one, so a stage's self
// time is its span minus its children. internal/obs adopts these names.
const (
	spHTTPQuery   = "http.query"   // loopback HTTP call
	spServerQuery = "server.query" // Server.ServeHTTP on a recorder
	spRun         = "pnn.run"      // Processor.Run / RunBatchStats
	spNormalize   = "pnn.normalize"
	spScatter     = "shard.scatter" // Snap.Scatter: prune, adapt, draw
	spMerge       = "shard.merge"
	spGather      = "shard.gather" // replay fill, distances, predicates, refine
	spResponse    = "pnn.response"
	spPrune       = "ustree.prune"
	spAdapt       = "inference.adapt" // AdaptShared + NewSampler
	spDraw        = "inference.draw"  // SampleWindowInto per world
	spEvaluate    = "nn.evaluate"     // WorldBatch fill + distances + kNN predicates

	spObserve      = "pnn.observe"
	spAdd          = "pnn.add"
	spShardObserve = "shard.observe" // Set.Observe: store + WAL + publish
	spShardAdd     = "shard.add"
	spStoreObserve = "store.observe"
	spStoreAdd     = "store.add"
	spTreeUpdate   = "ustree.update" // WithUpdatedObject
	spTreeInsert   = "ustree.insert" // Clone + Insert
	spRTreeInsert  = "rtree.insert"  // re-registration of every gap box
	spWALAppend    = "store.wal_append"
	spWALSync      = "store.wal_sync"
	spSpillWrite   = "store.spill_write"
	spRecover      = "shard.recover" // a durable build over a directory holding the traced writes
	spRTreeSearch  = "rtree.search"

	spSubRegister  = "sub.register"   // Processor.Subscribe, initial evaluation scheduled
	spSubHotWrite  = "sub.hot_write"  // Observe + WaitSubscriptionsIdle, subscriptions registered
	spSubColdWrite = "sub.cold_write" // the same for a write outside every influence region

	spPeerLeg    = "cluster.peer_leg" // POST /internal/scatter, body read
	spWireDecode = "cluster.wire_decode"
	spWireEncode = "cluster.wire_encode"
	spRouter     = "cluster.router" // a played-router answer, legs to response
)

// span is one timed call: times are nanoseconds since the tracer
// started, Parent is the span that caused it (-1 for a root), Op the
// operation's index in the workload's list.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; it is used from one goroutine. A nil
// tracer records nothing, which is how the untraced comparison replay
// runs the same code.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

// setParent charges span id to parent after the fact: a deeper replay
// has to run before the shallower one it belongs under when only the
// first execution meets a cold cache.
func (t *tracer) setParent(id, parent int) {
	if t != nil {
		t.spans[id].Parent = parent
	}
}

// timed records fn as one span and returns its id.
func (t *tracer) timed(name string, op, parent int, fn func()) int {
	id := t.begin(name, op, parent)
	fn()
	t.end(id)
	return id
}

// stageTime is one row of the self-time table.
type stageTime struct {
	Name  string        `json:"name"`
	Count int           `json:"count"`
	Total time.Duration `json:"total_ns"`
	Self  time.Duration `json:"self_ns"`
}

// childTotals returns, per span id, the summed duration of the span's
// direct children.
func childTotals(spans []span) []time.Duration {
	children := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.dur()
		}
	}
	return children
}

// selfTimes sums, per span name, total duration and self time: a span's
// duration minus the durations of its direct children, floored at zero
// (a child is a separate replay of the same operation, so it can run
// longer than the parent it is charged to).
func selfTimes(spans []span) map[string]*stageTime {
	children := childTotals(spans)
	out := make(map[string]*stageTime)
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &stageTime{Name: s.Name}
			out[s.Name] = st
		}
		st.Count++
		st.Total += s.dur()
		if self := s.dur() - children[s.ID]; self > 0 {
			st.Self += self
		}
	}
	return out
}

// breakdown splits the time of the spans named root over the stages at
// and below them: for each span name, the summed self time of the spans
// of that name inside a root's subtree (the root's own self time under
// its own name).
func breakdown(spans []span, root string) (rootTotal time.Duration, selfByStage map[string]time.Duration) {
	children := childTotals(spans)
	selfByStage = make(map[string]time.Duration)
	for _, s := range spans {
		inside := s.Name == root
		for p := s.Parent; p >= 0 && !inside; p = spans[p].Parent {
			inside = spans[p].Name == root
		}
		if !inside {
			continue
		}
		if s.Name == root {
			rootTotal += s.dur()
		}
		if self := s.dur() - children[s.ID]; self > 0 {
			selfByStage[s.Name] += self
		}
	}
	return rootTotal, selfByStage
}

// coverage reports, for the spans named root, their summed duration and
// how much of it the self times of their descendants account for — the
// share of a root's time the stages below it explain. The acceptance
// check wants at least nine tenths.
func coverage(spans []span, root string) (rootTotal, explained time.Duration) {
	rootTotal, selfByStage := breakdown(spans, root)
	for name, self := range selfByStage {
		if name != root {
			explained += self
		}
	}
	return rootTotal, explained
}

// traceRoots are the spans a self-time table is drawn under.
var traceRoots = []string{spRun, spObserve, spAdd, spSubHotWrite, spSubColdWrite, spRouter}

// printStages renders a trace file as one self-time table per root: each
// stage's self time as a share of the root's total.
func printStages(w io.Writer, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Fprintf(w, "## %s (seed %d)\n", tf.Workload, tf.Seed)
	for _, root := range traceRoots {
		total, selfByStage := breakdown(tf.Spans, root)
		if total == 0 {
			continue
		}
		_, n := spanTotal(tf.Spans, root)
		fmt.Fprintf(w, "\n%s: %d spans, %.3f ms each\n\n| stage | self ms per %s | share |\n|---|---:|---:|\n", root, n, float64(total)/1e6/float64(n), root)
		names := make([]string, 0, len(selfByStage))
		for name := range selfByStage {
			names = append(names, name)
		}
		sort.Slice(names, func(a, b int) bool { return selfByStage[names[a]] > selfByStage[names[b]] })
		for _, name := range names {
			self := selfByStage[name]
			fmt.Fprintf(w, "| %s | %.4f | %.1f %% |\n", name, float64(self)/1e6/float64(n), 100*float64(self)/float64(total))
		}
	}
	fmt.Fprintln(w)
	return nil
}

// spanTotal is the summed duration and the count of the spans named name.
func spanTotal(spans []span, name string) (time.Duration, int) {
	var t time.Duration
	n := 0
	for _, s := range spans {
		if s.Name == name {
			t += s.dur()
			n++
		}
	}
	return t, n
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Stages   []stageTime `json:"stages"`
	Spans    []span      `json:"spans"`
}

func writeTrace(path, workload string, seed int64, spans []span) error {
	tf := traceFile{Workload: workload, Seed: seed, Spans: spans}
	for _, st := range selfTimes(spans) {
		tf.Stages = append(tf.Stages, *st)
	}
	sort.Slice(tf.Stages, func(a, b int) bool { return tf.Stages[a].Name < tf.Stages[b].Name })
	raw, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
