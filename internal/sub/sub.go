// Package sub keeps standing queries alive over a live PNN database:
// a registry of subscriptions, each a re-runnable evaluation closure
// plus delivery state, re-evaluated incrementally as writes arrive.
//
// The core idea is inverting the UST-tree filter step. Every
// evaluation reports its influence region — the influencer object IDs
// it sampled and the per-timestep pruning thresholds (see
// shard.Influence). The registry maintains the inverse map
// object → subscriptions, so a write to object o re-runs only
//
//   - subscriptions whose last influencer set contains o (index hit), and
//   - subscriptions whose influence region o's NEW state touches
//     (a rectangle sweep against the stored thresholds).
//
// Everything else provably keeps its answer: an object strictly
// outside the thresholds at every window time cannot be among the k
// nearest at any time, and because per-row sampling is keyed by
// (seed, object ID), the unchanged influencer rows re-draw identical
// worlds. Per-update work is proportional to affected subscriptions,
// not registered subscriptions.
//
// On top of the selective index the registry amortizes two further
// costs. Subscriptions registered with a compatibility key
// (SubscribeKeyed) that share the key are re-evaluated as ONE group by
// the registry's GroupEval hook — cost per sweep scales with distinct
// keys touched, not subscriptions touched — and each key carries an
// opaque state value handed from one group evaluation to the next (the
// facade stores the group's adaptive early-stop point there, and its
// last evaluation, which a pass whose sampled inputs did not change
// replays instead of sampling). Writes
// themselves are coalesced: NotifyWrite only classifies and marks, and
// a sweep scheduler drains the accumulated dirty set once per
// SweepInterval, so a burst of writes pays for one grouped sweep.
//
// The package is payload-agnostic — evaluation closures, result
// payloads, regions, keys and group state are opaque — so it sits
// below the pnn facade without an import cycle.
package sub

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Delivery configures how a subscription's events reach its consumer.
type Delivery struct {
	// Transport is bookkeeping for the API layer ("sse" or "poll"); the
	// registry treats both identically.
	Transport string
	// MinInterval rate-limits emission: after an event is emitted,
	// further answers are coalesced (latest wins) until the interval
	// elapses. Zero emits every answer.
	MinInterval time.Duration
	// OnChangeOnly suppresses events whose answer fingerprint equals the
	// previously accepted one. The initial answer always emits.
	OnChangeOnly bool
	// QueueCap bounds the event queue (default 16, minimum 1). When the
	// consumer lags, the oldest queued event is dropped — never the
	// writer blocked — and the drop is surfaced on the next event's
	// Dropped counter.
	QueueCap int
}

const defaultQueueCap = 16

// Event is one delivered subscription result.
type Event struct {
	// SubID identifies the subscription.
	SubID int64
	// Seq increases by one per emitted event of the subscription,
	// starting at 1 for the initial answer.
	Seq int64
	// Version is the snapshot version the payload was evaluated at.
	// Versions are strictly monotone per subscription.
	Version int64
	// Dropped is the cumulative number of events lost to queue overflow
	// so far, so consumers can detect gaps without blocking writers.
	Dropped int64
	// Bye marks the terminal event: the subscription is closed and the
	// channel will be closed right after. Payload is nil.
	Bye bool
	// Payload is the evaluation result, opaque to this package.
	Payload any
}

// Eval is the result of one evaluation of a standing query.
type Eval struct {
	// Version is the snapshot version evaluated.
	Version int64
	// Influencers are the object IDs whose possible worlds the answer
	// sampled; the registry inverts them into the object→subs index.
	Influencers []int
	// Region describes the query's influence region for the write-path
	// touch test, opaque to this package. A nil Region keeps the
	// previous one (and a subscription that never reported one is
	// conservatively affected by every write).
	Region any
	// Payload is the answer to deliver.
	Payload any
	// Fingerprint condenses the answer for OnChangeOnly comparison.
	Fingerprint uint64
	// BudgetReused marks an evaluation that started from a previously
	// proven adaptive budget (group-state reuse) instead of escalating
	// from the first round; counted in Stats.ReusedBudget.
	BudgetReused bool
	// Carried marks an evaluation that replayed the previous pass's
	// answer because none of its sampled inputs changed, instead of
	// drawing and evaluating worlds; counted in Stats.Carried.
	Carried bool
}

// EvalFunc re-evaluates a standing query against the current snapshot.
// It must be safe for concurrent use with other subscriptions' funcs.
type EvalFunc func() Eval

// GroupEvalFunc re-evaluates every member of one compatibility group in
// a single pass. metas holds the members' Subscribe metas in ascending
// subscription-ID order; the returned evals must align with it. state
// is the key's opaque carry-over from the previous group evaluation
// (nil on the first); the returned newState replaces it — return state
// unchanged to keep it, nil to leave it as-is. It must be safe for
// concurrent use across distinct keys.
type GroupEvalFunc func(key string, metas []any, state any) (evals []Eval, newState any)

// TouchFunc tests whether a just-written object may intersect a
// subscription's influence region. It is resolved once per write (not
// per subscription) by the registry's caller.
type TouchFunc func(region any) bool

// Stats are cumulative registry counters. Evaluations vs Affected is
// the fanout scoreboard: with N standing subscriptions and W writes,
// full per-sub re-evaluation would cost N·W passes; selective
// invalidation schedules only Affected, and grouping folds those into
// Evaluations passes (a group of n compatible subscriptions counts 1).
type Stats struct {
	Active       int   // currently registered subscriptions
	Notifies     int64 // writes seen
	TouchTests   int64 // region tests run (index misses only)
	Affected     int64 // subscription re-evaluations scheduled by writes
	Evaluations  int64 // evaluation passes actually run (incl. initial; a grouped pass counts once)
	Sweeps       int64 // invalidation sweeps drained (each covers >= 1 write)
	Groups       int64 // grouped passes that covered > 1 subscription
	ReusedBudget int64 // passes that started from a reused adaptive budget
	Carried      int64 // passes that replayed the previous answer without sampling
	Emitted      int64 // events handed to consumers (excl. bye)
	Dropped      int64 // events lost to queue overflow
	Skipped      int64 // answers suppressed by OnChangeOnly
}

// Info is a point-in-time description of one subscription.
type Info struct {
	ID          int64
	Delivery    Delivery
	Meta        any
	Seq         int64
	LastVersion int64
	Dropped     int64
	Influencers int
}

// Subscription is one standing query. Consumers read Events; the
// registry owns everything else.
type Subscription struct {
	id   int64
	d    Delivery
	meta any
	eval EvalFunc
	reg  *Registry

	events chan Event

	// Emission state, guarded by emu (never held while evaluating).
	emu      sync.Mutex
	seq      int64
	lastVer  int64
	lastFP   uint64
	emitted  bool
	dropped  int64
	closed   bool
	lastEmit time.Time
	pending  *Event
	timer    *time.Timer

	// Scheduling state, guarded by the registry mutex.
	key         string // compatibility-group key; "" = never grouped
	region      any
	influencers map[int]struct{}
	dirty       bool
	queued      bool
	running     bool
	removed     bool
}

// ID returns the registry-assigned subscription ID.
func (s *Subscription) ID() int64 { return s.id }

// Events returns the subscription's event stream. The channel is
// closed after the terminal Bye event.
func (s *Subscription) Events() <-chan Event { return s.events }

// Meta returns the opaque value attached at Subscribe time.
func (s *Subscription) Meta() any { return s.meta }

// Info returns a point-in-time description of the subscription.
func (s *Subscription) Info() Info {
	s.reg.mu.Lock()
	nInf := len(s.influencers)
	s.reg.mu.Unlock()
	s.emu.Lock()
	defer s.emu.Unlock()
	return Info{
		ID:          s.id,
		Delivery:    s.d,
		Meta:        s.meta,
		Seq:         s.seq,
		LastVersion: s.lastVer,
		Dropped:     s.dropped,
		Influencers: nInf,
	}
}

// Options tunes a Registry.
type Options struct {
	// Workers sizes the evaluation pool (minimum 1).
	Workers int
	// GroupEval, when set, evaluates all members of a compatibility
	// group (SubscribeKeyed) in one pass. When nil, keyed subscriptions
	// fall back to their per-sub EvalFunc.
	GroupEval GroupEvalFunc
	// SweepInterval bounds how long a write's invalidations may sit in
	// the pending set before a sweep drains them, grouped; further
	// writes inside the window join the same sweep. Zero (or negative)
	// sweeps immediately on every write — the pre-sweep behavior.
	SweepInterval time.Duration
}

// unit is one queue entry: the members of a compatibility group drained
// together by a sweep, evaluated in a single pass. Ungrouped
// subscriptions ride in single-member units.
type unit struct {
	subs []*Subscription
}

// Registry owns every standing subscription: the inverted
// object→subscriptions index consulted on each write, the pending
// dirty set its sweep scheduler drains into a FIFO of grouped
// evaluation units, and the worker pool that re-evaluates them.
// Writers only classify and mark — evaluation is asynchronous, so the
// ingest path never waits for sampling.
type Registry struct {
	workers   int
	groupEval GroupEvalFunc

	mu            sync.Mutex
	cond          *sync.Cond // queue non-empty or closing
	subs          map[int64]*Subscription
	index         map[int]map[int64]struct{} // object ID -> subscription IDs
	queue         []*unit
	pending       map[int64]*Subscription // dirty, awaiting the next sweep
	sweepTimer    *time.Timer             // non-nil while a sweep is scheduled
	sweepInterval time.Duration
	grouping      bool
	groupStates   map[string]any // key -> opaque GroupEval carry-over
	keyCount      map[string]int // live subscriptions per key
	nextID        int64
	closed        bool
	wg            sync.WaitGroup

	notifies    atomic.Int64
	touchTests  atomic.Int64
	affected    atomic.Int64
	evaluations atomic.Int64
	sweeps      atomic.Int64
	groups      atomic.Int64
	reused      atomic.Int64
	carried     atomic.Int64
	emitted     atomic.Int64
	droppedN    atomic.Int64
	skipped     atomic.Int64
}

// NewRegistry returns an empty registry whose evaluations run on
// `workers` goroutines (minimum 1), with grouping disabled and
// immediate (per-write) sweeps — the historical behavior.
func NewRegistry(workers int) *Registry {
	return New(Options{Workers: workers})
}

// New returns an empty registry configured by opts.
func New(opts Options) *Registry {
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	r := &Registry{
		workers:       workers,
		groupEval:     opts.GroupEval,
		sweepInterval: opts.SweepInterval,
		grouping:      true,
		subs:          make(map[int64]*Subscription),
		index:         make(map[int]map[int64]struct{}),
		pending:       make(map[int64]*Subscription),
		groupStates:   make(map[string]any),
		keyCount:      make(map[string]int),
	}
	r.cond = sync.NewCond(&r.mu)
	for i := 0; i < workers; i++ {
		r.wg.Add(1)
		go r.worker()
	}
	return r
}

// SetSweepInterval changes the sweep scheduler's bounded delay. A
// non-positive d drains any pending invalidations immediately and makes
// future writes sweep per write.
func (r *Registry) SetSweepInterval(d time.Duration) {
	r.mu.Lock()
	r.sweepInterval = d
	if d <= 0 {
		if r.sweepTimer != nil {
			r.sweepTimer.Stop()
			r.sweepTimer = nil
		}
		r.drainPendingLocked()
	}
	r.mu.Unlock()
}

// SetGrouping toggles grouped evaluation of keyed subscriptions.
// Disabled, every sweep enqueues single-member units (the per-sub
// baseline the fanout benchmark compares against); GroupEval still runs
// them, so key state carries over either way.
func (r *Registry) SetGrouping(enabled bool) {
	r.mu.Lock()
	r.grouping = enabled
	r.mu.Unlock()
}

// Subscribe registers a standing query and synchronously runs its
// initial evaluation, so the first event (seq 1) is queued before
// Subscribe returns and no write published afterwards can be missed:
// the subscription enters the registry before it evaluates, and a
// concurrent NotifyWrite either marks it dirty (re-evaluated right
// after) or is already visible in the snapshot the evaluation reads.
// meta is returned verbatim by Info for API-layer listings.
func (r *Registry) Subscribe(eval EvalFunc, d Delivery, meta any) *Subscription {
	return r.SubscribeKeyed("", eval, d, meta)
}

// SubscribeKeyed is Subscribe with a compatibility-group key: when the
// registry has a GroupEval hook, all dirty subscriptions sharing a
// non-empty key are re-evaluated together as one pass per sweep, and
// the key's opaque state value carries from each pass to the next. The
// key must imply compatibility — members receive answers from one
// shared evaluation, so two requests may share a key only if a grouped
// pass answers each byte-identically to its own single pass. An empty
// key never groups.
func (r *Registry) SubscribeKeyed(key string, eval EvalFunc, d Delivery, meta any) *Subscription {
	if d.QueueCap <= 0 {
		d.QueueCap = defaultQueueCap
	}
	if d.MinInterval < 0 {
		d.MinInterval = 0
	}
	s := &Subscription{
		d:    d,
		meta: meta,
		eval: eval,
		key:  key,
		// The terminal bye always fits: eviction keeps one slot usable.
		events: make(chan Event, d.QueueCap),
	}
	s.reg = r
	r.mu.Lock()
	r.nextID++
	s.id = r.nextID
	if r.closed {
		r.mu.Unlock()
		s.close()
		return s
	}
	r.subs[s.id] = s
	if key != "" {
		r.keyCount[key]++
	}
	// The initial evaluation holds the single-flight slot like any
	// worker run: a concurrent write marks the subscription dirty and
	// finish() re-queues it, instead of racing a second evaluation.
	s.running = true
	r.mu.Unlock()
	r.evalUnit([]*Subscription{s})
	r.finish(s)
	return s
}

// Unsubscribe removes a subscription: its consumer receives a terminal
// Bye event and the channel closes. It reports whether the ID was
// registered.
func (r *Registry) Unsubscribe(id int64) bool {
	r.mu.Lock()
	s := r.subs[id]
	if s != nil {
		r.drop(s)
	}
	r.mu.Unlock()
	if s == nil {
		return false
	}
	s.close()
	return true
}

// drop unlinks s from the maps; callers hold r.mu. The last member of
// a compatibility group takes the key's carried state with it — a
// later subscription with the same key starts fresh.
func (r *Registry) drop(s *Subscription) {
	delete(r.subs, s.id)
	delete(r.pending, s.id)
	for oid := range s.influencers {
		if set := r.index[oid]; set != nil {
			delete(set, s.id)
			if len(set) == 0 {
				delete(r.index, oid)
			}
		}
	}
	s.influencers = nil
	s.removed = true
	if s.key != "" {
		if r.keyCount[s.key]--; r.keyCount[s.key] <= 0 {
			delete(r.keyCount, s.key)
			delete(r.groupStates, s.key)
		}
	}
}

// Get returns the subscription with the given ID, if registered.
func (r *Registry) Get(id int64) (*Subscription, bool) {
	r.mu.Lock()
	s, ok := r.subs[id]
	r.mu.Unlock()
	return s, ok
}

// List describes every registered subscription, ascending by ID.
func (r *Registry) List() []Info {
	r.mu.Lock()
	subs := make([]*Subscription, 0, len(r.subs))
	for _, s := range r.subs {
		subs = append(subs, s)
	}
	r.mu.Unlock()
	for i := 1; i < len(subs); i++ {
		for j := i; j > 0 && subs[j].id < subs[j-1].id; j-- {
			subs[j], subs[j-1] = subs[j-1], subs[j]
		}
	}
	out := make([]Info, len(subs))
	for i, s := range subs {
		out[i] = s.Info()
	}
	return out
}

// Len returns the number of registered subscriptions.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.subs)
}

// Stats returns cumulative counters.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	active := len(r.subs)
	r.mu.Unlock()
	return Stats{
		Active:       active,
		Notifies:     r.notifies.Load(),
		TouchTests:   r.touchTests.Load(),
		Affected:     r.affected.Load(),
		Evaluations:  r.evaluations.Load(),
		Sweeps:       r.sweeps.Load(),
		Groups:       r.groups.Load(),
		ReusedBudget: r.reused.Load(),
		Carried:      r.carried.Load(),
		Emitted:      r.emitted.Load(),
		Dropped:      r.droppedN.Load(),
		Skipped:      r.skipped.Load(),
	}
}

// NotifyWrite classifies a published write: subscriptions indexed on
// the object are affected outright; the rest run the touch test
// against their stored region. Affected subscriptions are marked dirty
// and enqueued for asynchronous re-evaluation — this call never
// samples and never blocks on consumers, keeping the ingest path fast.
// touch is resolved once per write by the caller (it captures the
// written object against the just-published snapshot).
func (r *Registry) NotifyWrite(objID int, touch TouchFunc) {
	r.notifies.Add(1)
	r.mu.Lock()
	if r.closed || len(r.subs) == 0 {
		r.mu.Unlock()
		return
	}
	hit := r.index[objID]
	var affected []*Subscription
	type probe struct {
		s      *Subscription
		region any
	}
	var probes []probe
	for id, s := range r.subs {
		if _, ok := hit[id]; ok {
			affected = append(affected, s)
			continue
		}
		if s.region == nil {
			// No influence region reported yet (initial evaluation still
			// in flight, or the query errored): conservatively affected.
			affected = append(affected, s)
			continue
		}
		probes = append(probes, probe{s, s.region})
	}
	r.mu.Unlock()

	// Touch tests run outside the lock: they sweep rectangles over the
	// query window and must not stall Subscribe/Unsubscribe. The region
	// value was captured under the lock; regions are immutable once
	// reported, so testing a stale one is only conservative.
	for _, p := range probes {
		r.touchTests.Add(1)
		if touch(p.region) {
			affected = append(affected, p.s)
		}
	}
	if len(affected) == 0 {
		return
	}

	r.mu.Lock()
	for _, s := range affected {
		if s.removed || s.dirty {
			continue
		}
		r.affected.Add(1)
		s.dirty = true
		if !s.queued && !s.running {
			r.pending[s.id] = s
		}
	}
	r.scheduleSweepLocked()
	r.mu.Unlock()
}

// scheduleSweepLocked arranges for the pending dirty set to be drained:
// immediately when no sweep interval is configured, else by a timer
// armed when the first invalidation lands — a bounded delay, never
// reset by further writes, so a steady write stream still sweeps every
// interval. Callers hold r.mu.
func (r *Registry) scheduleSweepLocked() {
	if r.closed || len(r.pending) == 0 {
		return
	}
	if r.sweepInterval <= 0 {
		r.drainPendingLocked()
		return
	}
	if r.sweepTimer == nil {
		r.sweepTimer = time.AfterFunc(r.sweepInterval, r.sweep)
	}
}

func (r *Registry) sweep() {
	r.mu.Lock()
	r.sweepTimer = nil
	r.drainPendingLocked()
	r.mu.Unlock()
}

// drainPendingLocked buckets the accumulated dirty subscriptions into
// compatibility groups and enqueues one evaluation unit per group (one
// per subscription with grouping off or for unkeyed subscriptions).
// Members are ordered by ascending ID so grouped evals see a
// deterministic meta order. Callers hold r.mu.
func (r *Registry) drainPendingLocked() {
	if r.closed || len(r.pending) == 0 {
		return
	}
	r.sweeps.Add(1)
	byKey := make(map[string][]*Subscription)
	var keys []string
	var singles []*Subscription
	for _, s := range r.pending {
		if s.removed || s.queued || s.running {
			continue
		}
		if r.grouping && s.key != "" && r.groupEval != nil {
			if _, seen := byKey[s.key]; !seen {
				keys = append(keys, s.key)
			}
			byKey[s.key] = append(byKey[s.key], s)
		} else {
			singles = append(singles, s)
		}
	}
	r.pending = make(map[int64]*Subscription)
	sortSubsByID(singles)
	for _, s := range singles {
		r.enqueueLocked([]*Subscription{s})
	}
	sort.Strings(keys)
	for _, key := range keys {
		members := byKey[key]
		sortSubsByID(members)
		r.enqueueLocked(members)
	}
}

// enqueueLocked appends one evaluation unit; callers hold r.mu.
func (r *Registry) enqueueLocked(subs []*Subscription) {
	for _, s := range subs {
		s.queued = true
	}
	r.queue = append(r.queue, &unit{subs: subs})
	r.cond.Signal()
}

// sortSubsByID orders members ascending by registration ID.
func sortSubsByID(subs []*Subscription) {
	sort.Slice(subs, func(a, b int) bool { return subs[a].id < subs[b].id })
}

// WaitIdle blocks until no evaluation is queued or running, or the
// timeout elapses; it reports whether quiescence was reached. Pending
// MinInterval coalescing timers do not count — only evaluation work.
func (r *Registry) WaitIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		r.mu.Lock()
		idle := len(r.queue) == 0 && !r.anyBusy()
		r.mu.Unlock()
		if idle {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// anyBusy reports whether any subscription is mid-evaluation or dirty;
// callers hold r.mu.
func (r *Registry) anyBusy() bool {
	for _, s := range r.subs {
		if s.running || s.dirty || s.queued {
			return true
		}
	}
	return false
}

// Close shuts the registry down: workers stop, every subscription
// receives a terminal Bye event, and all event channels close. Safe to
// call more than once.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	if r.sweepTimer != nil {
		r.sweepTimer.Stop()
		r.sweepTimer = nil
	}
	subs := make([]*Subscription, 0, len(r.subs))
	for _, s := range r.subs {
		subs = append(subs, s)
	}
	for _, s := range subs {
		r.drop(s)
	}
	r.queue = nil
	r.pending = make(map[int64]*Subscription)
	r.cond.Broadcast()
	r.mu.Unlock()
	r.wg.Wait()
	for _, s := range subs {
		s.close()
	}
}

// worker drains the unit queue, one evaluation pass at a time. Members
// unsubscribed while queued (a sweep racing an Unsubscribe) are
// filtered here — their terminal bye already went out; evaluating them
// would deliver past it.
func (r *Registry) worker() {
	defer r.wg.Done()
	for {
		r.mu.Lock()
		for len(r.queue) == 0 && !r.closed {
			r.cond.Wait()
		}
		if r.closed {
			r.mu.Unlock()
			return
		}
		u := r.queue[0]
		r.queue = r.queue[1:]
		members := u.subs[:0]
		for _, s := range u.subs {
			s.queued = false
			if s.removed {
				continue
			}
			s.running = true
			s.dirty = false
			members = append(members, s)
		}
		r.mu.Unlock()
		if len(members) == 0 {
			continue
		}
		r.evalUnit(members)
		for _, s := range members {
			r.finish(s)
		}
	}
}

// finish clears s's running flag and marks it pending again when writes
// landed mid-evaluation, so the single-flight rule (at most one
// evaluation of a subscription at a time) never loses the freshest
// snapshot.
func (r *Registry) finish(s *Subscription) {
	r.mu.Lock()
	s.running = false
	if s.dirty && !s.removed && !r.closed && !s.queued {
		r.pending[s.id] = s
		r.scheduleSweepLocked()
	}
	r.mu.Unlock()
}

// evalUnit runs one evaluation pass over the unit's members (outside
// all locks): one grouped GroupEval call when the members share a key
// and the hook exists, else the members' own closures. Group-state
// handling is last-wins — concurrent passes over the same key (only
// possible around subscribe/unsubscribe churn) race benignly on the
// opaque value, never on registry structures.
func (r *Registry) evalUnit(members []*Subscription) {
	key := members[0].key
	if r.groupEval == nil || key == "" {
		for _, s := range members {
			r.evaluations.Add(1)
			r.applyEval(s, s.eval())
		}
		return
	}
	r.evaluations.Add(1)
	if len(members) > 1 {
		r.groups.Add(1)
	}
	metas := make([]any, len(members))
	for i, s := range members {
		metas[i] = s.meta
	}
	r.mu.Lock()
	state := r.groupStates[key]
	r.mu.Unlock()
	evals, newState := r.groupEval(key, metas, state)
	r.mu.Lock()
	if _, live := r.keyCount[key]; live && newState != nil {
		r.groupStates[key] = newState
	}
	r.mu.Unlock()
	budgetReused, carried := false, false
	for i, s := range members {
		if i >= len(evals) {
			break
		}
		budgetReused = budgetReused || evals[i].BudgetReused
		carried = carried || evals[i].Carried
		r.applyEval(s, evals[i])
	}
	if budgetReused {
		r.reused.Add(1)
	}
	if carried {
		r.carried.Add(1)
	}
}

// applyEval refreshes the inverted index from the reported influencers
// and hands the answer to delivery.
func (r *Registry) applyEval(s *Subscription, ev Eval) {
	r.mu.Lock()
	if !s.removed {
		next := make(map[int]struct{}, len(ev.Influencers))
		for _, oid := range ev.Influencers {
			next[oid] = struct{}{}
		}
		for oid := range s.influencers {
			if _, keep := next[oid]; keep {
				continue
			}
			if set := r.index[oid]; set != nil {
				delete(set, s.id)
				if len(set) == 0 {
					delete(r.index, oid)
				}
			}
		}
		for oid := range next {
			set := r.index[oid]
			if set == nil {
				set = make(map[int64]struct{})
				r.index[oid] = set
			}
			set[s.id] = struct{}{}
		}
		s.influencers = next
		if ev.Region != nil {
			s.region = ev.Region
		}
	}
	r.mu.Unlock()
	s.deliver(ev)
}

// deliver applies the delivery policy to a fresh answer: version
// de-duplication, OnChangeOnly suppression, MinInterval coalescing,
// then emission into the bounded queue.
func (s *Subscription) deliver(ev Eval) {
	s.emu.Lock()
	defer s.emu.Unlock()
	if s.closed {
		return
	}
	// Monotone versions per subscription: a re-evaluation of a version
	// already delivered (or superseded) is byte-identical by the
	// determinism contract and carries no information.
	if s.emitted && ev.Version <= s.lastVer {
		return
	}
	s.lastVer = ev.Version
	if s.d.OnChangeOnly && s.emitted && ev.Fingerprint == s.lastFP {
		s.reg.skipped.Add(1)
		return
	}
	s.lastFP = ev.Fingerprint
	e := Event{SubID: s.id, Version: ev.Version, Payload: ev.Payload}
	now := time.Now()
	if s.d.MinInterval > 0 && s.emitted && now.Sub(s.lastEmit) < s.d.MinInterval {
		// Coalesce: keep only the latest answer, emit when the interval
		// reopens.
		s.pending = &e
		if s.timer == nil {
			s.timer = time.AfterFunc(s.d.MinInterval-now.Sub(s.lastEmit), s.flushPending)
		}
		return
	}
	s.emit(e, now)
}

// flushPending emits the coalesced answer once the MinInterval window
// reopens.
func (s *Subscription) flushPending() {
	s.emu.Lock()
	defer s.emu.Unlock()
	s.timer = nil
	if s.closed || s.pending == nil {
		return
	}
	e := *s.pending
	s.pending = nil
	s.emit(e, time.Now())
}

// emit queues one event, evicting the oldest queued event when the
// consumer lags (the write path never blocks); callers hold s.emu.
func (s *Subscription) emit(e Event, now time.Time) {
	s.seq++
	e.Seq = s.seq
	for {
		e.Dropped = s.dropped
		select {
		case s.events <- e:
			if !e.Bye {
				s.emitted = true
				s.lastEmit = now
				s.reg.emitted.Add(1)
			}
			return
		default:
		}
		// Queue full: evict the oldest (producers are serialized by emu,
		// so the next round's send succeeds) and count the loss —
		// Seq/Dropped on later events expose the gap to the consumer.
		select {
		case old := <-s.events:
			if !old.Bye {
				s.dropped++
				s.reg.droppedN.Add(1)
			}
		default:
		}
	}
}

// close emits the terminal Bye and closes the channel. Any coalesced
// pending answer is flushed first so the consumer never loses the
// final state.
func (s *Subscription) close() {
	s.emu.Lock()
	defer s.emu.Unlock()
	if s.closed {
		return
	}
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
	if s.pending != nil {
		e := *s.pending
		s.pending = nil
		s.emit(e, time.Now())
	}
	s.emit(Event{SubID: s.id, Version: s.lastVer, Bye: true}, time.Time{})
	s.closed = true
	close(s.events)
}
