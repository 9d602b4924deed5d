package sub

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pnn/internal/uncertain"
)

// fakeDB is a mutable "database": version and answer are read
// atomically.
type fakeDB struct {
	version atomic.Int64
	answer  atomic.Int64
}

// eval returns a GroupEvalFunc that answers every member with the
// database's current version and answer. A group reports the
// influencers its key maps to, and its key as its region.
func (db *fakeDB) eval(influencers map[string][]int) GroupEvalFunc {
	return func(key string, metas []any, _ any) Pass {
		a := db.answer.Load()
		p := Pass{Evals: make([]Eval, len(metas)), Influencers: influencers[key], Region: key}
		for i := range p.Evals {
			p.Evals[i] = Eval{Version: db.version.Load(), Payload: a, Fingerprint: uint64(a)}
		}
		return p
	}
}

func collect(t *testing.T, s *Subscription, n int) []Event {
	t.Helper()
	var out []Event
	for len(out) < n {
		select {
		case e, ok := <-s.Events():
			if !ok {
				t.Fatalf("channel closed after %d events, want %d", len(out), n)
			}
			out = append(out, e)
		case <-time.After(2 * time.Second):
			t.Fatalf("timed out after %d events, want %d", len(out), n)
		}
	}
	return out
}

func TestSubscribeInitialEventAndIndex(t *testing.T) {
	db := &fakeDB{}
	db.version.Store(1)
	r := New(Options{Workers: 2, GroupEval: db.eval(map[string][]int{"region": {7, 9}})})
	defer r.Close()

	s := r.Subscribe("region", Delivery{}, "meta")
	ev := collect(t, s, 1)[0]
	if ev.Seq != 1 || ev.Version != 1 || ev.Bye {
		t.Fatalf("initial event = %+v, want seq 1 version 1", ev)
	}
	if got := s.Info(); got.Influencers != 2 || got.Meta != "meta" {
		t.Fatalf("Info = %+v, want 2 influencers, meta kept", got)
	}

	// A write to an indexed object re-evaluates without a touch test; a
	// write to anything else consults the region.
	db.version.Store(2)
	r.NotifyWrite(7, func(any) bool { t.Fatal("indexed object must not touch-test"); return false })
	if !r.WaitIdle(2 * time.Second) {
		t.Fatal("registry did not quiesce")
	}
	ev = collect(t, s, 1)[0]
	if ev.Seq != 2 || ev.Version != 2 {
		t.Fatalf("re-evaluation event = %+v, want seq 2 version 2", ev)
	}

	db.version.Store(3)
	tested := false
	r.NotifyWrite(100, func(region any) bool {
		tested = true
		if region != "region" {
			t.Errorf("touch saw region %v", region)
		}
		return false
	})
	if !r.WaitIdle(2 * time.Second) {
		t.Fatal("registry did not quiesce")
	}
	if !tested {
		t.Fatal("unindexed write skipped the touch test")
	}
	select {
	case e := <-s.Events():
		t.Fatalf("untouched subscription received %+v", e)
	default:
	}
	st := r.Stats()
	if st.Evaluations != 2 || st.TouchTests != 1 {
		t.Fatalf("stats = %+v, want 2 evaluations, 1 touch test", st)
	}
}

func TestNotifySkipsUntouchedSubscriptions(t *testing.T) {
	db := &fakeDB{}
	db.version.Store(1)
	r := New(Options{Workers: 2, GroupEval: db.eval(map[string][]int{"near": {1}, "far": {2}})})
	defer r.Close()

	near := r.Subscribe("near", Delivery{}, nil)
	far := r.Subscribe("far", Delivery{}, nil)
	collect(t, near, 1)
	collect(t, far, 1)

	db.version.Store(2)
	r.NotifyWrite(50, func(region any) bool { return region == "near" })
	if !r.WaitIdle(2 * time.Second) {
		t.Fatal("registry did not quiesce")
	}
	if ev := collect(t, near, 1)[0]; ev.Version != 2 {
		t.Fatalf("near got %+v, want version 2", ev)
	}
	select {
	case e := <-far.Events():
		t.Fatalf("far subscription received %+v", e)
	default:
	}
	if st := r.Stats(); st.Affected != 1 {
		t.Fatalf("Affected = %d, want 1", st.Affected)
	}
}

func TestOnChangeOnlySuppressesEqualAnswers(t *testing.T) {
	db := &fakeDB{}
	db.version.Store(1)
	db.answer.Store(42)
	r := New(Options{Workers: 1, GroupEval: db.eval(map[string][]int{"r": {1}})})
	defer r.Close()

	s := r.Subscribe("r", Delivery{OnChangeOnly: true}, nil)
	collect(t, s, 1)

	// Same answer at a newer version: suppressed.
	db.version.Store(2)
	r.NotifyWrite(1, nil)
	r.WaitIdle(2 * time.Second)
	select {
	case e := <-s.Events():
		t.Fatalf("unchanged answer emitted %+v", e)
	default:
	}
	// Changed answer: emitted.
	db.version.Store(3)
	db.answer.Store(43)
	r.NotifyWrite(1, nil)
	r.WaitIdle(2 * time.Second)
	if ev := collect(t, s, 1)[0]; ev.Version != 3 || ev.Payload != int64(43) {
		t.Fatalf("changed answer event = %+v", ev)
	}
	if st := r.Stats(); st.Skipped != 1 {
		t.Fatalf("Skipped = %d, want 1", st.Skipped)
	}
}

func TestMinIntervalCoalescesToLatest(t *testing.T) {
	db := &fakeDB{}
	db.version.Store(1)
	db.answer.Store(1)
	r := New(Options{Workers: 1, GroupEval: db.eval(map[string][]int{"r": {1}})})
	defer r.Close()

	s := r.Subscribe("r", Delivery{MinInterval: 50 * time.Millisecond}, nil)
	collect(t, s, 1) // opens the interval window

	// Two rapid updates inside the interval: only the latest survives.
	for v := int64(2); v <= 3; v++ {
		db.version.Store(v)
		db.answer.Store(v * 10)
		r.NotifyWrite(1, nil)
		r.WaitIdle(2 * time.Second)
	}
	ev := collect(t, s, 1)[0]
	if ev.Version != 3 || ev.Payload != int64(30) {
		t.Fatalf("coalesced event = %+v, want the latest (version 3)", ev)
	}
	select {
	case e := <-s.Events():
		t.Fatalf("intermediate update leaked: %+v", e)
	case <-time.After(80 * time.Millisecond):
	}
}

func TestQueueOverflowDropsOldestNotWriter(t *testing.T) {
	db := &fakeDB{}
	db.version.Store(1)
	r := New(Options{Workers: 1, GroupEval: db.eval(map[string][]int{"r": {1}})})
	defer r.Close()

	s := r.Subscribe("r", Delivery{QueueCap: 2}, nil)
	// Nobody reads: pile up 5 answers into a 2-slot queue.
	for v := int64(2); v <= 6; v++ {
		db.version.Store(v)
		r.NotifyWrite(1, nil)
		if !r.WaitIdle(2 * time.Second) {
			t.Fatal("registry did not quiesce — the writer path blocked on a full queue")
		}
	}
	evs := collect(t, s, 2)
	last := evs[1]
	if last.Version != 6 {
		t.Fatalf("newest queued event has version %d, want 6", last.Version)
	}
	if last.Dropped != 4 {
		t.Fatalf("Dropped = %d, want 4 (6 emitted into 2 slots)", last.Dropped)
	}
	if st := r.Stats(); st.Dropped != 4 {
		t.Fatalf("registry Dropped = %d, want 4", st.Dropped)
	}
}

func TestUnsubscribeAndCloseSendBye(t *testing.T) {
	db := &fakeDB{}
	db.version.Store(1)
	r := New(Options{Workers: 1, GroupEval: db.eval(map[string][]int{"a": {1}, "b": {2}})})

	a := r.Subscribe("a", Delivery{}, nil)
	b := r.Subscribe("b", Delivery{}, nil)
	collect(t, a, 1)
	collect(t, b, 1)

	if !r.Unsubscribe(a.ID()) {
		t.Fatal("Unsubscribe(a) = false")
	}
	if r.Unsubscribe(a.ID()) {
		t.Fatal("second Unsubscribe(a) = true")
	}
	ev := collect(t, a, 1)[0]
	if !ev.Bye || ev.Seq != 2 {
		t.Fatalf("after Unsubscribe got %+v, want bye seq 2", ev)
	}
	if _, ok := <-a.Events(); ok {
		t.Fatal("channel still open after bye")
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}

	r.Close()
	ev = collect(t, b, 1)[0]
	if !ev.Bye {
		t.Fatalf("after Close got %+v, want bye", ev)
	}
	if _, ok := <-b.Events(); ok {
		t.Fatal("channel still open after registry close")
	}
	// Idempotent.
	r.Close()
}

func TestVersionsMonotoneUnderConcurrentWrites(t *testing.T) {
	db := &fakeDB{}
	db.version.Store(1)
	const subs = 8
	influencers := make(map[string][]int, subs)
	for i := 0; i < subs; i++ {
		influencers[strconv.Itoa(i)] = []int{i}
	}
	r := New(Options{Workers: 4, GroupEval: db.eval(influencers)})
	defer r.Close()

	var wg sync.WaitGroup
	for i := 0; i < subs; i++ {
		s := r.Subscribe(strconv.Itoa(i), Delivery{QueueCap: 4}, nil)
		wg.Add(1)
		go func(s *Subscription) {
			defer wg.Done()
			lastSeq, lastVer := int64(0), int64(0)
			for e := range s.Events() {
				if e.Seq <= lastSeq {
					t.Errorf("sub %d: seq %d after %d", s.ID(), e.Seq, lastSeq)
				}
				lastSeq = e.Seq
				if e.Bye {
					continue
				}
				if e.Version <= lastVer {
					t.Errorf("sub %d: version %d after %d", s.ID(), e.Version, lastVer)
				}
				lastVer = e.Version
			}
		}(s)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				db.version.Add(1)
				r.NotifyWrite(i%subs, func(any) bool { return i%3 == 0 })
			}
		}()
	}
	// Writers finish, evaluations drain, subscriptions close, readers
	// see bye + closed channels.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	time.Sleep(50 * time.Millisecond)
	r.WaitIdle(5 * time.Second)
	r.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("consumers did not drain after Close")
	}
}

// groupEval returns a GroupEvalFunc that answers every member with the
// database's current version and threads an int counter through the
// group's carried state (nil -> 1 -> 2 -> ...).
func (db *fakeDB) groupEval(record func(n int, state any), gate func()) GroupEvalFunc {
	return func(key string, metas []any, state any) Pass {
		if record != nil {
			record(len(metas), state)
		}
		if gate != nil {
			gate()
		}
		v := db.version.Load()
		p := Pass{Evals: make([]Eval, len(metas)), Influencers: []int{1}, Region: "r"}
		for i := range p.Evals {
			p.Evals[i] = Eval{Version: v, Payload: v, Fingerprint: uint64(v)}
		}
		next := 1
		if n, ok := state.(int); ok {
			next = n + 1
		}
		p.State = next
		return p
	}
}

// TestUnsubscribeRacingSweep unsubscribes a group member between a
// write marking it dirty and the delayed sweep draining it: the sweep
// must evaluate only the surviving member, and the removed one sees
// exactly its terminal bye.
func TestUnsubscribeRacingSweep(t *testing.T) {
	db := &fakeDB{}
	db.version.Store(1)
	r := New(Options{Workers: 1, SweepInterval: 100 * time.Millisecond, GroupEval: db.groupEval(nil, nil)})
	defer r.Close()

	a := r.Subscribe("k", Delivery{}, "a")
	b := r.Subscribe("k", Delivery{}, "b")
	collect(t, a, 1)
	collect(t, b, 1)

	db.version.Store(2)
	r.NotifyWrite(1, nil) // both dirty, sweep armed 100ms out
	if !r.Unsubscribe(b.ID()) {
		t.Fatal("Unsubscribe(b) = false")
	}
	if ev := collect(t, b, 1)[0]; !ev.Bye {
		t.Fatalf("unsubscribed member got %+v, want bye", ev)
	}
	if _, ok := <-b.Events(); ok {
		t.Fatal("channel open after bye")
	}
	if !r.WaitIdle(2 * time.Second) {
		t.Fatal("registry did not quiesce")
	}
	if ev := collect(t, a, 1)[0]; ev.Version != 2 {
		t.Fatalf("surviving member got %+v, want version 2", ev)
	}
	st := r.Stats()
	if st.Evaluations != 3 {
		t.Fatalf("Evaluations = %d, want 3 (two initial + one single-member sweep pass)", st.Evaluations)
	}
	if st.Sweeps != 1 || st.Groups != 0 {
		t.Fatalf("stats = %+v, want 1 sweep, 0 grouped passes (the group shrank to one)", st)
	}
}

// TestQueueOverflowUnderGroupedBurst is the drop-oldest contract on the
// grouped path: a burst of writes against a two-member group with tiny
// queues evicts the oldest answers per member, never blocks the writer,
// and each grouped pass still counts as one evaluation.
func TestQueueOverflowUnderGroupedBurst(t *testing.T) {
	db := &fakeDB{}
	db.version.Store(1)
	r := New(Options{Workers: 1, GroupEval: db.groupEval(nil, nil)})
	defer r.Close()

	a := r.Subscribe("k", Delivery{QueueCap: 2}, "a")
	b := r.Subscribe("k", Delivery{QueueCap: 2}, "b")
	collect(t, a, 1)
	collect(t, b, 1)

	// Nobody reads: 5 grouped re-evaluations into 2-slot queues.
	for v := int64(2); v <= 6; v++ {
		db.version.Store(v)
		r.NotifyWrite(1, nil)
		if !r.WaitIdle(2 * time.Second) {
			t.Fatal("registry did not quiesce — a full member queue blocked the sweep")
		}
	}
	for _, s := range []*Subscription{a, b} {
		evs := collect(t, s, 2)
		if last := evs[1]; last.Version != 6 || last.Dropped != 3 {
			t.Fatalf("sub %d newest event = %+v, want version 6 with 3 dropped", s.ID(), last)
		}
	}
	st := r.Stats()
	if st.Evaluations != 7 || st.Groups != 5 {
		t.Fatalf("stats = %+v, want 7 evaluation passes of which 5 grouped", st)
	}
	if st.Dropped != 6 {
		t.Fatalf("Dropped = %d, want 6 (3 per member)", st.Dropped)
	}
}

// TestGroupStateChurnAndCleanup pins the carry-over state lifecycle
// under membership churn: state threads pass-to-pass while the group is
// live (including a member subscribing while a grouped pass is in
// flight, whose initial pass waits for that one and reads its state,
// and one unsubscribing mid-pass), and the last unsubscribe deletes it
// so a fresh same-key subscription starts from nil. The
// state pins objects the way the facade's carried evaluation pins the
// *uncertain.Object of every row it sampled: the last unsubscribe must
// release them too.
func TestGroupStateChurnAndCleanup(t *testing.T) {
	db := &fakeDB{}
	db.version.Store(1)
	type call struct {
		n     int
		state any
	}
	var mu sync.Mutex
	var calls []call
	var blockOn atomic.Bool
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	inner := db.groupEval(
		func(n int, state any) {
			mu.Lock()
			calls = append(calls, call{n, state})
			mu.Unlock()
		},
		func() {
			if blockOn.CompareAndSwap(true, false) {
				entered <- struct{}{}
				<-release
			}
		})
	// Each pass wraps the int state in a carry pinning one object; live
	// counts the pinned objects the collector has not yet finalized.
	type carry struct {
		n    int
		objs []*uncertain.Object
	}
	var live atomic.Int64
	ge := func(key string, metas []any, state any) Pass {
		if c, ok := state.(*carry); ok {
			state = c.n
		}
		p := inner(key, metas, state)
		obj := &uncertain.Object{ID: len(metas)}
		live.Add(1)
		runtime.SetFinalizer(obj, func(*uncertain.Object) { live.Add(-1) })
		p.State = &carry{n: p.State.(int), objs: []*uncertain.Object{obj}}
		return p
	}
	r := New(Options{Workers: 1, GroupEval: ge})
	defer r.Close()

	a := r.Subscribe("k", Delivery{QueueCap: 8}, "a")
	b := r.Subscribe("k", Delivery{QueueCap: 8}, "b")
	collect(t, a, 1)
	collect(t, b, 1)
	// a's initial pass is the group's first group pass and publishes its
	// state; b's is a join pass, which reads it and publishes nothing.
	mu.Lock()
	if len(calls) != 2 || calls[0].state != nil || calls[1].state != 1 {
		t.Fatalf("initial calls = %+v, want state nil then 1", calls)
	}
	mu.Unlock()

	// A grouped pass blocks in flight; meanwhile one member leaves and
	// a new one joins the group. The joiner's initial pass cannot start
	// before the in-flight one ends.
	blockOn.Store(true)
	db.version.Store(2)
	r.NotifyWrite(1, nil)
	<-entered
	if !r.Unsubscribe(b.ID()) {
		t.Fatal("Unsubscribe(b) = false")
	}
	joined := make(chan *Subscription)
	go func() { joined <- r.Subscribe("k", Delivery{QueueCap: 8}, "c") }()
	for r.Len() != 2 {
		time.Sleep(time.Millisecond)
	}
	select {
	case <-joined:
		t.Fatal("Subscribe returned while the group's pass was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	c := <-joined
	if !r.WaitIdle(2 * time.Second) {
		t.Fatal("registry did not quiesce")
	}
	if ev := collect(t, b, 1)[0]; !ev.Bye {
		t.Fatalf("mid-pass unsubscribed member got %+v, want bye only", ev)
	}
	if ev := collect(t, a, 1)[0]; ev.Version != 2 {
		t.Fatalf("member a got %+v, want the in-flight pass at version 2", ev)
	}
	if ev := collect(t, c, 1)[0]; ev.Version != 2 {
		t.Fatalf("joining member got %+v, want its initial answer at version 2", ev)
	}
	// c's initial pass ran alone, after the in-flight pass (state 1 in,
	// 2 out), and read the state that pass left.
	mu.Lock()
	if n := len(calls); n != 4 || calls[2] != (call{2, 1}) || calls[3] != (call{1, 2}) {
		t.Fatalf("mid-churn calls = %+v, want the grouped pass {2 1} then c's {1 2}", calls)
	}
	mu.Unlock()

	// Last member out deletes the key's state: a fresh subscription
	// starts from nil again.
	r.Unsubscribe(a.ID())
	r.Unsubscribe(c.ID())
	r.mu.Lock()
	_, kept := r.groups["k"]
	r.mu.Unlock()
	if kept {
		t.Fatal("the key's carry outlived its last member")
	}
	for deadline := time.Now().Add(2 * time.Second); live.Load() > 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d carried objects still reachable after the last member left", live.Load())
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	d := r.Subscribe("k", Delivery{QueueCap: 8}, "d")
	collect(t, d, 1)
	mu.Lock()
	if last := calls[len(calls)-1]; last.state != nil {
		t.Fatalf("post-cleanup call state = %v, want nil", last.state)
	}
	mu.Unlock()
	_ = d
}

// TestCarriedPassesCounted pins Stats.Carried: a grouped pass whose
// evaluations report Carried counts once, however many members it
// answers, and a pass that sampled does not count.
func TestCarriedPassesCounted(t *testing.T) {
	var passes atomic.Int64
	ge := func(_ string, metas []any, _ any) Pass {
		p := Pass{Evals: make([]Eval, len(metas)), Influencers: []int{1}, Region: "r"}
		p.Carried = passes.Add(1) > 2 // the two registration passes sample
		for i := range p.Evals {
			p.Evals[i] = Eval{Version: passes.Load()}
		}
		return p
	}
	r := New(Options{Workers: 1, GroupEval: ge})
	defer r.Close()
	a := r.Subscribe("k", Delivery{}, "a")
	b := r.Subscribe("k", Delivery{}, "b")
	if st := r.Stats(); st.Carried != 0 {
		t.Fatalf("registration passes counted %d carried", st.Carried)
	}
	r.NotifyWrite(1, nil)
	if !r.WaitIdle(2 * time.Second) {
		t.Fatal("registry did not quiesce")
	}
	if st := r.Stats(); st.Carried != 1 || st.Groups != 1 {
		t.Fatalf("stats = %+v, want one grouped pass counted carried once", st)
	}
	collect(t, a, 2)
	collect(t, b, 2)
}

// TestRegistryAccessorsAndSweepToggles covers the read surface (Get,
// List) plus the sweep toggle: a pending invalidation drains
// immediately when the sweep interval drops to zero, and later writes
// sweep one by one.
func TestRegistryAccessorsAndSweepToggles(t *testing.T) {
	db := &fakeDB{}
	db.version.Store(1)
	r := New(Options{Workers: 1, SweepInterval: time.Hour, GroupEval: db.groupEval(nil, nil)})
	defer r.Close()

	a := r.Subscribe("k", Delivery{QueueCap: 8}, "meta-a")
	b := r.Subscribe("k", Delivery{QueueCap: 8}, "meta-b")
	collect(t, a, 1)
	collect(t, b, 1)
	if got, ok := r.Get(a.ID()); !ok || got != a {
		t.Fatalf("Get(%d) = %v, %v", a.ID(), got, ok)
	}
	if _, ok := r.Get(9999); ok {
		t.Fatal("Get(9999) found a subscription")
	}
	if infos := r.List(); len(infos) != 2 || infos[0].ID != a.ID() || infos[1].ID != b.ID() || infos[0].Meta != "meta-a" {
		t.Fatalf("List = %+v, want [a b] ascending with their metas", infos)
	}

	// An hour-long sweep interval parks the write in the pending set;
	// dropping the interval to zero drains it immediately.
	db.version.Store(2)
	r.NotifyWrite(1, nil)
	select {
	case e := <-a.Events():
		t.Fatalf("write swept before the interval elapsed: %+v", e)
	case <-time.After(20 * time.Millisecond):
	}
	r.SetSweepInterval(0)
	if !r.WaitIdle(2 * time.Second) {
		t.Fatal("registry did not quiesce after the immediate drain")
	}
	if ev := collect(t, a, 1)[0]; ev.Version != 2 {
		t.Fatalf("drained event = %+v, want version 2", ev)
	}
	collect(t, b, 1)
	grouped := r.Stats()
	if grouped.Groups == 0 || grouped.Sweeps == 0 {
		t.Fatalf("stats = %+v, want a grouped pass from the drained sweep", grouped)
	}

	// With the interval at zero every write sweeps at once: one pass
	// answers the whole group.
	db.version.Store(3)
	r.NotifyWrite(1, nil)
	if !r.WaitIdle(2 * time.Second) {
		t.Fatal("registry did not quiesce after a per-write sweep")
	}
	st := r.Stats()
	if st.Evaluations-grouped.Evaluations != 1 || st.Groups-grouped.Groups != 1 || st.Sweeps-grouped.Sweeps != 1 {
		t.Fatalf("per-write sweep: stats %+v after %+v, want one sweep of one grouped pass", st, grouped)
	}
	for _, s := range []*Subscription{a, b} {
		if ev := collect(t, s, 1)[0]; ev.Version != 3 {
			t.Fatalf("sub %d got %+v, want version 3", s.ID(), ev)
		}
	}
}

// knnDB is the fake world of TestRegistryInterleavingProperty: objects
// on a line, and per group a 2-NN query at the point its key names. A
// write publishes a new snapshot and then notifies, as the facade does,
// and a pass reads one snapshot when it starts.
type knnDB struct {
	mu   sync.Mutex
	snap atomic.Pointer[knnSnap]
}

type knnSnap struct {
	version int64
	pos     []int
}

// knnRegion is a group's influence region: its query point and the
// distance of its k-th nearest object. An object that is not among the
// k nearest and moves to a point farther than reach cannot enter them.
type knnRegion struct{ q, reach int }

const knnK = 2

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// nearest returns the IDs of the k objects nearest q, ties by ID, and
// the k-th distance.
func (s *knnSnap) nearest(q int) ([]int, int) {
	ids := make([]int, len(s.pos))
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		da, db := absInt(s.pos[ids[a]]-q), absInt(s.pos[ids[b]]-q)
		if da != db {
			return da < db
		}
		return ids[a] < ids[b]
	})
	ids = ids[:knnK]
	return ids, absInt(s.pos[ids[knnK-1]] - q)
}

func knnPayload(ids []int, meta any) string { return fmt.Sprint(ids, meta) }

// pass is group key's pass over the snapshot: the k nearest objects of
// the key's point, answered to every member.
func (s *knnSnap) pass(key string, metas []any) Pass {
	q, _ := strconv.Atoi(key)
	ids, reach := s.nearest(q)
	p := Pass{Evals: make([]Eval, len(metas)), Influencers: ids, Region: knnRegion{q, reach}}
	for i, m := range metas {
		p.Evals[i] = Eval{Version: s.version, Payload: knnPayload(ids, m)}
	}
	return p
}

func (db *knnDB) eval(key string, metas []any, _ any) Pass {
	s := db.snap.Load()
	// Hold the pass open so writes land while it runs.
	time.Sleep(200 * time.Microsecond)
	return s.pass(key, metas)
}

// write moves object o to x and returns the write's touch test.
func (db *knnDB) write(o, x int) TouchFunc {
	db.mu.Lock()
	old := db.snap.Load()
	pos := append([]int(nil), old.pos...)
	pos[o] = x
	db.snap.Store(&knnSnap{version: old.version + 1, pos: pos})
	db.mu.Unlock()
	return func(region any) bool {
		rg := region.(knnRegion)
		return absInt(x-rg.q) <= rg.reach
	}
}

// TestRegistryInterleavingProperty interleaves Subscribe, Unsubscribe
// and NotifyWrite from several seeded goroutines against a fake k-NN
// world whose influence regions move with every write. After WaitIdle,
// every live member's last event must equal a fresh evaluation at the
// final snapshot, every stream must number its events 1, 2, 3, ...
// with strictly rising versions, and a write must cost at most one
// touch test per group.
func TestRegistryInterleavingProperty(t *testing.T) {
	for _, sweep := range []time.Duration{0, 300 * time.Microsecond} {
		t.Run(fmt.Sprintf("sweep-%dus", sweep.Microseconds()), func(t *testing.T) {
			runInterleaving(t, sweep)
		})
	}
}

func runInterleaving(t *testing.T, sweep time.Duration) {
	const objects, writers, ops = 12, 4, 150
	keys := []string{"10", "40", "70", "95"}
	db := &knnDB{}
	rng := rand.New(rand.NewSource(1))
	pos := make([]int, objects)
	for i := range pos {
		pos[i] = rng.Intn(100)
	}
	db.snap.Store(&knnSnap{version: 1, pos: pos})
	r := New(Options{Workers: 2, GroupEval: db.eval, SweepInterval: sweep})

	type member struct {
		s    *Subscription
		key  string
		meta int
		evs  chan []Event // the reader's events once the channel closes
	}
	var mu sync.Mutex
	var members []*member
	var writes atomic.Int64
	var wg sync.WaitGroup
	for w := 1; w <= writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var mine []*member
			for i := 0; i < ops; i++ {
				switch x := rng.Intn(10); {
				case x < 6:
					o := rng.Intn(objects)
					touch := db.write(o, rng.Intn(100))
					writes.Add(1)
					r.NotifyWrite(o, touch)
				case x < 8 || len(mine) == 0:
					m := &member{key: keys[rng.Intn(len(keys))], meta: int(seed)*1000 + i, evs: make(chan []Event, 1)}
					// No stream can drop: at most writers*ops events fit.
					m.s = r.Subscribe(m.key, Delivery{QueueCap: writers * ops}, m.meta)
					go func() {
						var evs []Event
						for e := range m.s.Events() {
							evs = append(evs, e)
						}
						m.evs <- evs
					}()
					mine = append(mine, m)
					mu.Lock()
					members = append(members, m)
					mu.Unlock()
				default:
					k := rng.Intn(len(mine))
					r.Unsubscribe(mine[k].s.ID())
					mine = append(mine[:k], mine[k+1:]...)
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if !r.WaitIdle(10 * time.Second) {
		t.Fatal("registry did not quiesce")
	}
	live := make(map[int64]bool)
	for _, info := range r.List() {
		live[info.ID] = true
	}
	st := r.Stats()
	final := db.snap.Load()
	r.Close()

	for _, m := range members {
		evs := <-m.evs
		if len(evs) < 2 || !evs[len(evs)-1].Bye {
			t.Fatalf("sub %d: stream %+v, want at least an answer and a closing bye", m.s.ID(), evs)
		}
		lastVer := int64(0)
		for i, e := range evs {
			if e.Seq != int64(i+1) || e.Dropped != 0 {
				t.Fatalf("sub %d: event %d is %+v, want seq %d and nothing dropped", m.s.ID(), i, e, i+1)
			}
			if !e.Bye && e.Version <= lastVer {
				t.Fatalf("sub %d: version %d after %d", m.s.ID(), e.Version, lastVer)
			}
			lastVer = e.Version
		}
		if !live[m.s.ID()] {
			continue
		}
		q, _ := strconv.Atoi(m.key)
		ids, _ := final.nearest(q)
		if got, want := evs[len(evs)-2].Payload, knnPayload(ids, m.meta); got != want {
			t.Errorf("sub %d (group %s): last answer %v at version %d, want %v at version %d",
				m.s.ID(), m.key, got, evs[len(evs)-2].Version, want, final.version)
		}
	}
	if limit := int64(len(keys)) * writes.Load(); st.TouchTests > limit {
		t.Errorf("%d touch tests for %d writes over %d groups, want at most %d", st.TouchTests, writes.Load(), len(keys), limit)
	}
	t.Logf("%d writes, %d members (%d live), %d touch tests, %d passes", writes.Load(), len(members), len(live), st.TouchTests, st.Evaluations)
}

// TestLateWriteRetested pins the late-write re-test deterministically: a
// group pass blocks after reading its snapshot, a write lands inside the
// region that pass will publish but outside the one it replaces, and the
// pass is released. The write must re-evaluate the group, so the
// member's last event equals a fresh evaluation at the final snapshot.
func TestLateWriteRetested(t *testing.T) {
	db := &knnDB{}
	// The 2 nearest of point 50 are objects 0 and 1, within 2; object 2
	// is far.
	db.snap.Store(&knnSnap{version: 1, pos: []int{50, 52, 90}})
	entered, release := make(chan struct{}), make(chan struct{})
	var passes atomic.Int32
	eval := func(key string, metas []any, _ any) Pass {
		s := db.snap.Load()
		if passes.Add(1) == 2 {
			close(entered)
			<-release
		}
		return s.pass(key, metas)
	}
	r := New(Options{Workers: 1, GroupEval: eval})
	defer r.Close()
	s := r.Subscribe("50", Delivery{QueueCap: 16}, "m")
	collect(t, s, 1)

	// Influencer 1 moves away: the region grows to 20 in the pass this
	// write starts, which blocks once it has read the snapshot.
	r.NotifyWrite(1, db.write(1, 70))
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the write did not start a group pass")
	}
	// Object 2 moves to 60: outside the published region (reach 2),
	// inside the one the blocked pass will publish (reach 20), and one of
	// the 2 nearest at the final snapshot.
	r.NotifyWrite(2, db.write(2, 60))
	close(release)
	if !r.WaitIdle(5 * time.Second) {
		t.Fatal("registry did not quiesce")
	}
	var last Event
	for len(s.Events()) > 0 {
		last = <-s.Events()
	}
	final := db.snap.Load()
	ids, _ := final.nearest(50)
	if want := knnPayload(ids, "m"); last.Version != final.version || last.Payload != want {
		t.Fatalf("last event %v at version %d, want %v at version %d", last.Payload, last.Version, want, final.version)
	}
}
