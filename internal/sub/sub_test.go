package sub

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pnn/internal/uncertain"
)

// fakeEval builds an EvalFunc over a mutable "database": version and
// answer are read atomically, influencers/region are fixed per call.
type fakeDB struct {
	version atomic.Int64
	answer  atomic.Int64
}

func (db *fakeDB) eval(influencers []int, region any) EvalFunc {
	return func() Eval {
		a := db.answer.Load()
		return Eval{
			Version:     db.version.Load(),
			Influencers: influencers,
			Region:      region,
			Payload:     a,
			Fingerprint: uint64(a),
		}
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
	r := NewRegistry(2)
	defer r.Close()

	s := r.Subscribe(db.eval([]int{7, 9}, "region"), Delivery{}, "meta")
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
	r := NewRegistry(2)
	defer r.Close()

	near := r.Subscribe(db.eval([]int{1}, "near"), Delivery{}, nil)
	far := r.Subscribe(db.eval([]int{2}, "far"), Delivery{}, nil)
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
	r := NewRegistry(1)
	defer r.Close()

	s := r.Subscribe(db.eval([]int{1}, "r"), Delivery{OnChangeOnly: true}, nil)
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
	r := NewRegistry(1)
	defer r.Close()

	s := r.Subscribe(db.eval([]int{1}, "r"), Delivery{MinInterval: 50 * time.Millisecond}, nil)
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
	r := NewRegistry(1)
	defer r.Close()

	s := r.Subscribe(db.eval([]int{1}, "r"), Delivery{QueueCap: 2}, nil)
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
	r := NewRegistry(1)

	a := r.Subscribe(db.eval([]int{1}, "r"), Delivery{}, nil)
	b := r.Subscribe(db.eval([]int{2}, "r"), Delivery{}, nil)
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
	r := NewRegistry(4)
	defer r.Close()

	const subs = 8
	var wg sync.WaitGroup
	for i := 0; i < subs; i++ {
		s := r.Subscribe(db.eval([]int{i}, "r"), Delivery{QueueCap: 4}, nil)
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
// key's carry-over state (nil -> 1 -> 2 -> ...).
func (db *fakeDB) groupEval(record func(n int, state any), gate func()) GroupEvalFunc {
	return func(key string, metas []any, state any) ([]Eval, any) {
		if record != nil {
			record(len(metas), state)
		}
		if gate != nil {
			gate()
		}
		v := db.version.Load()
		evals := make([]Eval, len(metas))
		for i := range evals {
			evals[i] = Eval{Version: v, Influencers: []int{1}, Region: "r", Payload: v, Fingerprint: uint64(v)}
		}
		next := 1
		if n, ok := state.(int); ok {
			next = n + 1
		}
		return evals, next
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

	a := r.SubscribeKeyed("k", nil, Delivery{}, "a")
	b := r.SubscribeKeyed("k", nil, Delivery{}, "b")
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

	a := r.SubscribeKeyed("k", nil, Delivery{QueueCap: 2}, "a")
	b := r.SubscribeKeyed("k", nil, Delivery{QueueCap: 2}, "b")
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
// under membership churn: state threads pass-to-pass while the key is
// live (including a member subscribing while a grouped pass is in
// flight, and one unsubscribing mid-pass), and the last unsubscribe
// deletes it so a fresh same-key subscription starts from nil. The
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
	ge := func(key string, metas []any, state any) ([]Eval, any) {
		if c, ok := state.(*carry); ok {
			state = c.n
		}
		evals, next := inner(key, metas, state)
		obj := &uncertain.Object{ID: len(metas)}
		live.Add(1)
		runtime.SetFinalizer(obj, func(*uncertain.Object) { live.Add(-1) })
		return evals, &carry{n: next.(int), objs: []*uncertain.Object{obj}}
	}
	r := New(Options{Workers: 1, GroupEval: ge})
	defer r.Close()

	a := r.SubscribeKeyed("k", nil, Delivery{QueueCap: 8}, "a")
	b := r.SubscribeKeyed("k", nil, Delivery{QueueCap: 8}, "b")
	collect(t, a, 1)
	collect(t, b, 1)
	mu.Lock()
	if len(calls) != 2 || calls[0].state != nil || calls[1].state != 1 {
		t.Fatalf("initial calls = %+v, want state nil then 1", calls)
	}
	mu.Unlock()

	// A grouped pass blocks in flight; meanwhile one member leaves and
	// a new one joins the key.
	blockOn.Store(true)
	db.version.Store(2)
	r.NotifyWrite(1, nil)
	<-entered
	if !r.Unsubscribe(b.ID()) {
		t.Fatal("Unsubscribe(b) = false")
	}
	c := r.SubscribeKeyed("k", nil, Delivery{QueueCap: 8}, "c")
	close(release)
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
	// c subscribed while the pass held the state; its initial call must
	// still see a live int (2 from b's initial pass), not nil.
	mu.Lock()
	if n := len(calls); calls[n-1].state == nil && calls[n-2].state == nil {
		t.Fatalf("mid-churn calls lost the carried state: %+v", calls)
	}
	mu.Unlock()

	// Last member out deletes the key's state: a fresh subscription
	// starts from nil again.
	r.Unsubscribe(a.ID())
	r.Unsubscribe(c.ID())
	r.mu.Lock()
	_, kept := r.groupStates["k"]
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
	d := r.SubscribeKeyed("k", nil, Delivery{QueueCap: 8}, "d")
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
	ge := func(_ string, metas []any, _ any) ([]Eval, any) {
		carried := passes.Add(1) > 2 // the two registration passes sample
		evals := make([]Eval, len(metas))
		for i := range evals {
			evals[i] = Eval{Version: passes.Load(), Influencers: []int{1}, Region: "r", Carried: carried}
		}
		return evals, nil
	}
	r := New(Options{Workers: 1, GroupEval: ge})
	defer r.Close()
	a := r.SubscribeKeyed("k", nil, Delivery{}, "a")
	b := r.SubscribeKeyed("k", nil, Delivery{}, "b")
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
// List, Meta) plus the runtime toggles: a pending invalidation drains
// immediately when the sweep interval drops to zero, and with grouping
// disabled a keyed pair evaluates as two single-member passes (state
// still carried).
func TestRegistryAccessorsAndSweepToggles(t *testing.T) {
	db := &fakeDB{}
	db.version.Store(1)
	r := New(Options{Workers: 1, SweepInterval: time.Hour, GroupEval: db.groupEval(nil, nil)})
	defer r.Close()

	a := r.SubscribeKeyed("k", nil, Delivery{QueueCap: 8}, "meta-a")
	b := r.SubscribeKeyed("k", nil, Delivery{QueueCap: 8}, "meta-b")
	collect(t, a, 1)
	collect(t, b, 1)
	if a.Meta() != "meta-a" {
		t.Fatalf("Meta = %v", a.Meta())
	}
	if got, ok := r.Get(a.ID()); !ok || got != a {
		t.Fatalf("Get(%d) = %v, %v", a.ID(), got, ok)
	}
	if _, ok := r.Get(9999); ok {
		t.Fatal("Get(9999) found a subscription")
	}
	if infos := r.List(); len(infos) != 2 || infos[0].ID != a.ID() || infos[1].ID != b.ID() {
		t.Fatalf("List = %+v, want [a b] ascending", infos)
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

	// Grouping off: the same write shape costs one pass per member.
	r.SetGrouping(false)
	db.version.Store(3)
	r.NotifyWrite(1, nil)
	if !r.WaitIdle(2 * time.Second) {
		t.Fatal("registry did not quiesce with grouping disabled")
	}
	st := r.Stats()
	if st.Evaluations-grouped.Evaluations != 2 {
		t.Fatalf("ungrouped write cost %d passes, want 2", st.Evaluations-grouped.Evaluations)
	}
	if st.Groups != grouped.Groups {
		t.Fatalf("Groups advanced to %d with grouping disabled", st.Groups)
	}
	collect(t, a, 1)
	collect(t, b, 1)
}
