// Package sub keeps standing queries alive over a live PNN database:
// a registry of subscriptions, re-evaluated incrementally as writes
// arrive.
//
// The registry's unit is the compatibility group. Every subscription
// registers under a key, and subscriptions sharing a key are answered
// by ONE evaluation pass of the registry's GroupEval hook; the caller's
// key must guarantee that a grouped pass answers each member
// byte-identically to its own single pass. The group owns scheduling
// (dirty, queued, running), its place in the write-path index, its
// influence region and an opaque state value handed from one pass to
// the next (the facade stores the adaptive early-stop point there, and
// its last evaluation, which a pass whose sampled inputs did not change
// replays instead of sampling). A subscription owns only its delivery
// state. A key used by one subscription is simply a group of one.
//
// The write path inverts the UST-tree filter step. Every pass reports
// its group's influence region — the influencer object IDs it sampled
// and the per-timestep pruning thresholds (see shard.Influence). The
// registry maintains the inverse map object → groups, so a write to
// object o re-runs only
//
//   - groups whose last influencer set contains o (index hit), and
//   - groups whose influence region o's NEW state touches
//     (a rectangle sweep against the stored thresholds).
//
// Everything else provably keeps its answer: an object strictly
// outside the thresholds at every window time cannot be among the k
// nearest at any time, and because per-row sampling is keyed by
// (seed, object ID), the unchanged influencer rows re-draw identical
// worlds. A write costs one index lookup plus one touch test per group
// that the index did not hit and that is not already dirty, and each
// affected group costs one pass, however many members it has.
//
// Writes are coalesced: NotifyWrite only classifies and marks, and a
// sweep scheduler drains the dirty groups once per SweepInterval, so a
// burst of writes pays for one pass per group.
//
// A group pass publishes the group's influencers, region and state. A
// new member's initial answer comes from a group pass when its group
// has none completed yet or owes one (it is dirty); otherwise from a
// join pass, which answers that member alone, reads the group's state
// and publishes nothing. The registry keeps these invariants:
//
//   - At most one group pass of a group runs at a time, and never
//     beside a join pass; join passes of several new members may
//     overlap one another, since they only read.
//   - A write that hits or touches a group while a group pass runs
//     re-queues the group. A write that arrives mid-pass is tested
//     against the influencers and region that pass publishes, not the
//     older ones.
//   - A new member's first event is seq 1, delivered by the first pass
//     that starts after it registered; the member joins the group's
//     re-evaluation passes only after that event.
//   - A group's region and influencers come from its newest completed
//     group pass.
//
// The package is payload-agnostic — result payloads, regions, keys and
// group state are opaque — so it sits below the pnn facade without an
// import cycle.
package sub

import (
	"slices"
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

// Eval is one member's answer from a pass.
type Eval struct {
	// Version is the snapshot version evaluated.
	Version int64
	// Payload is the answer to deliver.
	Payload any
	// Fingerprint condenses the answer for OnChangeOnly comparison.
	Fingerprint uint64
}

// Pass is the result of one evaluation pass over a group.
type Pass struct {
	// Evals answer the pass's members, aligned with its metas.
	Evals []Eval
	// Influencers are the object IDs whose possible worlds the pass
	// sampled; the registry inverts them into the object→groups index.
	Influencers []int
	// Region describes the group's influence region for the write-path
	// touch test, opaque to this package. A nil Region keeps the
	// previous one (and a group that never reported one is
	// conservatively affected by every write).
	Region any
	// State replaces the group's carried state after a group pass; nil
	// keeps it.
	State any
	// BudgetReused marks a pass that started from a previously proven
	// adaptive budget instead of escalating from the first round;
	// counted in Stats.ReusedBudget.
	BudgetReused bool
	// Carried marks a pass that replayed the previous pass's answers
	// because none of its sampled inputs changed, instead of drawing and
	// evaluating worlds; counted in Stats.Carried.
	Carried bool
}

// GroupEvalFunc evaluates members of one group in a single pass. metas
// holds those members' Subscribe metas in ascending subscription-ID
// order; the returned Evals must align with it. state is the group's
// carried state from its previous pass (nil on the first). It must be
// safe for concurrent use; of one group, only join passes overlap.
type GroupEvalFunc func(key string, metas []any, state any) Pass

// TouchFunc tests whether a just-written object may intersect a
// group's influence region. It is resolved once per write (not per
// group) by the registry's caller, and may be called after NotifyWrite
// returns: a write that lands while a pass runs is re-tested against
// the region that pass publishes.
type TouchFunc func(region any) bool

// Stats are cumulative registry counters. Evaluations vs Affected is
// the fanout scoreboard: with N standing subscriptions and W writes,
// full per-sub re-evaluation would cost N·W passes; selective
// invalidation marks only Affected members, and grouping folds those
// into Evaluations passes (a group of n subscriptions counts 1).
type Stats struct {
	Active       int   // currently registered subscriptions
	Notifies     int64 // writes seen
	TouchTests   int64 // group region tests run (index misses only)
	Affected     int64 // member subscriptions of the groups writes marked dirty
	Evaluations  int64 // evaluation passes actually run (incl. initial; a grouped pass counts once)
	Sweeps       int64 // invalidation sweeps drained (each covers >= 1 write)
	Groups       int64 // passes that covered > 1 subscription
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
	reg  *Registry

	events chan Event

	// Delivery state, guarded by emu (never held while evaluating).
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

	// Membership, guarded by the registry mutex: the group (nil once
	// unsubscribed) and whether the first event went out.
	g      *group
	joined bool
}

// group is one compatibility group: the registry's unit of scheduling,
// indexing and evaluation. Every field is guarded by the registry
// mutex.
type group struct {
	key         string
	members     []*Subscription // ascending ID
	state       any             // carried from pass to pass
	region      any             // newest completed pass's; nil = none yet
	influencers []int           // newest completed pass's
	late        []lateWrite     // writes that arrived while a pass ran
	dirty       bool            // a pass over every member is owed
	queued      bool
	running     bool // a group pass is in flight
	joining     int  // join passes in flight
	removed     bool // the last member left
}

// lateWrite is a write classified while its group's pass ran, held to
// be re-tested against that pass's influencers and region.
type lateWrite struct {
	id    int
	touch TouchFunc
}

// ID returns the registry-assigned subscription ID.
func (s *Subscription) ID() int64 { return s.id }

// Events returns the subscription's event stream. The channel is
// closed after the terminal Bye event.
func (s *Subscription) Events() <-chan Event { return s.events }

// Info returns a point-in-time description of the subscription.
func (s *Subscription) Info() Info {
	s.reg.mu.Lock()
	nInf := 0
	if s.g != nil {
		nInf = len(s.g.influencers)
	}
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
	// GroupEval evaluates the members of a group in one pass. Required.
	GroupEval GroupEvalFunc
	// SweepInterval bounds how long a write's invalidations may sit in
	// the pending set before a sweep drains them; further writes inside
	// the window join the same sweep. Zero (or negative) sweeps
	// immediately on every write.
	SweepInterval time.Duration
}

// Registry owns every standing subscription and its group: the
// inverted object→groups index consulted on each write, the pending
// dirty set its sweep scheduler drains into a FIFO of groups, and the
// worker pool that runs their passes. Writers only classify and mark —
// evaluation is asynchronous, so the ingest path never waits for
// sampling.
type Registry struct {
	groupEval GroupEvalFunc

	mu            sync.Mutex
	work          *sync.Cond // queue non-empty or closing
	passDone      *sync.Cond // a pass released its group, or closing
	subs          map[int64]*Subscription
	groups        map[string]*group
	index         map[int]map[*group]struct{} // object ID -> groups
	queue         []*group
	pending       map[*group]struct{} // dirty, awaiting the next sweep
	sweepTimer    *time.Timer         // non-nil while a sweep is scheduled
	sweepInterval time.Duration
	nextID        int64
	closed        bool
	wg            sync.WaitGroup

	notifies    atomic.Int64
	touchTests  atomic.Int64
	affected    atomic.Int64
	evaluations atomic.Int64
	sweeps      atomic.Int64
	grouped     atomic.Int64
	reused      atomic.Int64
	carried     atomic.Int64
	emitted     atomic.Int64
	droppedN    atomic.Int64
	skipped     atomic.Int64
}

// New returns an empty registry configured by opts.
func New(opts Options) *Registry {
	r := &Registry{
		groupEval:     opts.GroupEval,
		sweepInterval: opts.SweepInterval,
		subs:          make(map[int64]*Subscription),
		groups:        make(map[string]*group),
		index:         make(map[int]map[*group]struct{}),
		pending:       make(map[*group]struct{}),
	}
	r.work = sync.NewCond(&r.mu)
	r.passDone = sync.NewCond(&r.mu)
	for i := 0; i < max(opts.Workers, 1); i++ {
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

// Subscribe registers a standing query as a member of the group named
// key and returns once its initial answer (seq 1) is queued. It runs
// that pass itself — a join pass when the group is clean and evaluated,
// else a group pass — or waits for a pass in flight, and the pass starts
// after registration, so no write published afterwards is missed: a
// concurrent NotifyWrite either marks the group dirty or is visible in
// the snapshot the pass reads. meta is handed to GroupEval and returned
// verbatim by Info.
func (r *Registry) Subscribe(key string, d Delivery, meta any) *Subscription {
	if d.QueueCap <= 0 {
		d.QueueCap = defaultQueueCap
	}
	if d.MinInterval < 0 {
		d.MinInterval = 0
	}
	s := &Subscription{
		d:    d,
		meta: meta,
		reg:  r,
		// The terminal bye always fits: eviction keeps one slot usable.
		events: make(chan Event, d.QueueCap),
	}
	r.mu.Lock()
	r.nextID++
	s.id = r.nextID
	if r.closed {
		r.mu.Unlock()
		s.close()
		return s
	}
	g := r.groups[key]
	if g == nil {
		g = &group{key: key}
		r.groups[key] = g
	}
	g.members = append(g.members, s)
	s.g = g
	r.subs[s.id] = s
	for !s.joined && s.g != nil {
		switch {
		case g.running, g.dirty && g.joining > 0:
			r.passDone.Wait()
		case g.dirty, g.region == nil:
			g.running = true
			r.mu.Unlock()
			r.runPass(g)
			r.mu.Lock()
		default:
			r.joinLocked(g, s)
		}
	}
	r.mu.Unlock()
	return s
}

// joinLocked runs a join pass: it answers s alone from a snapshot read
// now and the group's state, and publishes nothing. While the group is
// clean, its region and influencers describe every snapshot since its
// last group pass, this one included. Callers hold r.mu, which is
// released during the evaluation.
func (r *Registry) joinLocked(g *group, s *Subscription) {
	g.joining++
	state := g.state
	r.mu.Unlock()
	p := r.groupEval(g.key, []any{s.meta}, state)
	r.count(p, 1)
	if len(p.Evals) > 0 {
		s.deliver(p.Evals[0])
	}
	r.mu.Lock()
	s.joined = true
	if g.joining--; g.joining == 0 {
		r.releaseLocked(g)
	}
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

// drop unlinks s from the registry and its group; callers hold r.mu.
// The last member takes the group with it — its index entries and
// carried state — so a later subscription with the same key starts
// fresh.
func (r *Registry) drop(s *Subscription) {
	delete(r.subs, s.id)
	g := s.g
	s.g = nil
	g.members = slices.DeleteFunc(g.members, func(m *Subscription) bool { return m == s })
	if len(g.members) > 0 {
		return
	}
	g.removed = true
	delete(r.groups, g.key)
	delete(r.pending, g)
	r.reindexLocked(g, nil)
	g.state, g.region, g.late = nil, nil, nil
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
	sort.Slice(subs, func(a, b int) bool { return subs[a].id < subs[b].id })
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
		Groups:       r.grouped.Load(),
		ReusedBudget: r.reused.Load(),
		Carried:      r.carried.Load(),
		Emitted:      r.emitted.Load(),
		Dropped:      r.droppedN.Load(),
		Skipped:      r.skipped.Load(),
	}
}

// NotifyWrite classifies a published write once per group: an index
// hit or a group without a region is affected outright; a dirty group
// is skipped (its owed pass reads this write); a group pass in flight
// keeps the write to re-test against the region it publishes; any other
// group runs the touch test. Affected groups are marked dirty for
// asynchronous re-evaluation — the ingest path never samples.
func (r *Registry) NotifyWrite(objID int, touch TouchFunc) {
	r.notifies.Add(1)
	r.mu.Lock()
	hit := r.index[objID]
	var probes []*group
	var regions []any
	for _, g := range r.groups {
		_, isHit := hit[g]
		switch {
		case g.dirty:
		case isHit || g.region == nil:
			r.markLocked(g)
		case g.running:
			g.late = append(g.late, lateWrite{objID, touch})
		default:
			probes = append(probes, g)
			regions = append(regions, g.region)
		}
	}
	r.scheduleSweepLocked()
	r.mu.Unlock()

	// Touch tests run outside the lock (a router asks a peer). No group
	// pass of a probed group was running, so its region is its newest; a
	// pass starting meanwhile reads a snapshot that holds this write.
	var touched []*group
	for i, g := range probes {
		r.touchTests.Add(1)
		if touch(regions[i]) {
			touched = append(touched, g)
		}
	}
	if len(touched) == 0 {
		return
	}
	r.mu.Lock()
	for _, g := range touched {
		r.markLocked(g)
	}
	r.scheduleSweepLocked()
	r.mu.Unlock()
}

// markLocked marks g dirty, owing it a pass over every member, and
// parks it in the pending set unless it is queued or running (a running
// pass re-queues it when it ends). Callers hold r.mu.
func (r *Registry) markLocked(g *group) {
	if g.dirty || g.removed {
		return
	}
	g.dirty = true
	r.affected.Add(int64(len(g.members)))
	if !g.queued && !g.running {
		r.pending[g] = struct{}{}
	}
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
		r.sweepTimer = time.AfterFunc(r.sweepInterval, func() {
			r.mu.Lock()
			r.sweepTimer = nil
			r.drainPendingLocked()
			r.mu.Unlock()
		})
	}
}

// drainPendingLocked enqueues the accumulated dirty groups in key order
// (a deterministic pass order); a group that a pass took meanwhile is
// skipped. Callers hold r.mu.
func (r *Registry) drainPendingLocked() {
	if r.closed || len(r.pending) == 0 {
		return
	}
	r.sweeps.Add(1)
	gs := make([]*group, 0, len(r.pending))
	for g := range r.pending {
		if g.dirty && !g.queued && !g.running {
			gs = append(gs, g)
		}
	}
	r.pending = make(map[*group]struct{})
	sort.Slice(gs, func(a, b int) bool { return gs[a].key < gs[b].key })
	for _, g := range gs {
		g.queued = true
		r.queue = append(r.queue, g)
		r.work.Signal()
	}
}

// WaitIdle blocks until no pass is queued or running and no group is
// dirty, or the timeout elapses; it reports whether quiescence was
// reached. Pending MinInterval coalescing timers do not count — only
// evaluation work.
func (r *Registry) WaitIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		r.mu.Lock()
		idle := len(r.queue) == 0
		for _, g := range r.groups {
			idle = idle && !g.running && g.joining == 0 && !g.dirty && !g.queued
		}
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
		r.drop(s) // deleting the visited key is safe mid-range
	}
	r.queue = nil
	r.work.Broadcast()
	r.passDone.Broadcast()
	r.mu.Unlock()
	r.wg.Wait()
	for _, s := range subs {
		s.close()
	}
}

// worker drains the group queue, one group pass at a time. A group that
// is gone, or that has a pass in flight (a subscriber's), is skipped:
// that pass re-queues it when it ends if it is still dirty.
func (r *Registry) worker() {
	defer r.wg.Done()
	r.mu.Lock()
	for {
		for len(r.queue) == 0 && !r.closed {
			r.work.Wait()
		}
		if r.closed {
			r.mu.Unlock()
			return
		}
		g := r.queue[0]
		r.queue = r.queue[1:]
		g.queued = false
		if g.removed || g.running || g.joining > 0 {
			continue
		}
		g.running = true
		r.mu.Unlock()
		r.runPass(g)
		r.mu.Lock()
	}
}

// runPass runs one group pass of g, whose running flag the caller set
// (outside r.mu). A dirty group evaluates every member; otherwise the
// pass answers only the members still waiting for their first event.
// The pass publishes its influencers, region and state, delivers, marks
// its members joined, re-tests the writes that arrived meanwhile, and
// releases the group — re-queuing it when a write dirtied it.
func (r *Registry) runPass(g *group) {
	r.mu.Lock()
	var batch []*Subscription
	for _, s := range g.members {
		if g.dirty || !s.joined {
			batch = append(batch, s)
		}
	}
	g.dirty = false
	state := g.state
	r.mu.Unlock()

	if len(batch) > 0 {
		metas := make([]any, len(batch))
		for i, s := range batch {
			metas[i] = s.meta
		}
		p := r.groupEval(g.key, metas, state)
		r.count(p, len(batch))
		r.mu.Lock()
		if !g.removed {
			r.reindexLocked(g, p.Influencers)
			if p.Region != nil {
				g.region = p.Region
			}
			if p.State != nil {
				g.state = p.State
			}
		}
		r.mu.Unlock()
		for i, s := range batch {
			if i < len(p.Evals) {
				s.deliver(p.Evals[i])
			}
		}
	}

	r.mu.Lock()
	for _, s := range batch {
		s.joined = true
	}
	r.retestLateLocked(g)
	g.running = false
	r.releaseLocked(g)
	r.mu.Unlock()
}

// count adds one pass over n members to the counters.
func (r *Registry) count(p Pass, n int) {
	r.evaluations.Add(1)
	if n > 1 {
		r.grouped.Add(1)
	}
	if p.BudgetReused {
		r.reused.Add(1)
	}
	if p.Carried {
		r.carried.Add(1)
	}
}

// releaseLocked follows the end of g's last pass in flight: it parks g
// for the next sweep when a write dirtied it, and wakes the subscribers
// waiting on it. Callers hold r.mu.
func (r *Registry) releaseLocked(g *group) {
	if g.dirty && !g.queued && !g.removed {
		r.pending[g] = struct{}{}
		r.scheduleSweepLocked()
	}
	r.passDone.Broadcast()
}

// retestLateLocked classifies the writes that arrived while g's pass
// ran, against the influencers and region that pass just published: the
// written object may be a new influencer, or inside a region that grew.
// Callers hold r.mu and g's running flag; the lock is released around
// the tests, and writes landing meanwhile join the next round.
func (r *Registry) retestLateLocked(g *group) {
	for len(g.late) > 0 && !g.dirty && !g.removed {
		late, inf, region := g.late, g.influencers, g.region
		g.late = nil
		r.mu.Unlock()
		touched := false
		for _, w := range late {
			if touched = slices.Contains(inf, w.id); !touched {
				r.touchTests.Add(1)
				touched = w.touch(region)
			}
			if touched {
				break
			}
		}
		r.mu.Lock()
		if touched {
			r.markLocked(g)
		}
	}
	g.late = nil
}

// reindexLocked replaces g's influencers in the object→groups index;
// callers hold r.mu.
func (r *Registry) reindexLocked(g *group, ids []int) {
	for _, oid := range g.influencers {
		if set := r.index[oid]; set != nil {
			delete(set, g)
			if len(set) == 0 {
				delete(r.index, oid)
			}
		}
	}
	for _, oid := range ids {
		set := r.index[oid]
		if set == nil {
			set = make(map[*group]struct{})
			r.index[oid] = set
		}
		set[g] = struct{}{}
	}
	g.influencers = ids
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
