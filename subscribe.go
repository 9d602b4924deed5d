package pnn

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"time"

	"pnn/internal/shard"
	"pnn/internal/sub"
)

// Delivery configures how a subscription's events reach its consumer;
// see sub.Delivery for field semantics.
type Delivery = sub.Delivery

// SubEvent is one delivered subscription result. Payload, when the
// event is not a terminal Bye, is a Response evaluated at
// SubEvent.Version.
type SubEvent = sub.Event

// Subscription is one standing query; consume results from Events().
type Subscription = sub.Subscription

// SubscriptionInfo describes one registered subscription;
// Meta is the Request it was registered with.
type SubscriptionInfo = sub.Info

// SubscriptionStats are the registry's cumulative counters — most
// importantly Evaluations vs Notifies, the measure of how selective
// write-path invalidation is.
type SubscriptionStats = sub.Stats

// influenceRegion is a standing query's stored influence region: the
// query positions over the window plus the per-timestep pruning
// thresholds of its last evaluation. An updated object whose
// rectangles stay strictly outside bound[t-ts] at every window time
// cannot be among the k nearest at any t — and because it then cannot
// displace the threshold-defining objects either, the stored
// thresholds remain valid until the next evaluation refreshes them.
type influenceRegion struct {
	q      Query
	ts, te int
	bound  []float64
}

// DefaultSweepInterval is the default bounded delay of the
// subscription sweep scheduler: writes accumulate invalidations for at
// most this long before one grouped re-evaluation sweep drains them.
// Tune per processor with SetSweepInterval (0 restores per-write
// sweeps).
const DefaultSweepInterval = 2 * time.Millisecond

// Subscribe registers req as a standing query: it is evaluated once
// immediately (the first event on the returned subscription's channel,
// seq 1) and re-evaluated after every AddObject/Observe whose object
// touches the query's influence region. Every event carries a full
// Response plus the snapshot version it answers for, and the
// determinism contract of one-shot queries extends to standing ones: a
// delivered event at version V is byte-identical to Run(req') against
// the version-V snapshot, where req' is req with MinWorlds raised to
// the event's Stats.WorldFloor (the floor differs from req.MinWorlds
// only when adaptive-budget reuse raised it; without a Confidence
// policy req' is simply req).
//
// Compatible standing queries share work: subscriptions whose world-
// sharing group key (query positions over the window, interval, k,
// confidence policy, floor and seed — plus tau and semantics under an
// adaptive policy, whose shared stop point depends on them) coincides
// are re-evaluated as ONE shared-world group per sweep, so
// re-evaluation cost scales with distinct query shapes touched, not
// subscription count. Grouping never changes answer bytes: members
// with equal keys draw identical worlds and identical (deterministic)
// stop points whether evaluated alone or together.
//
// A group also keeps its last evaluation. When a write leaves every
// sampled input unchanged — the same members, rows and candidate rows,
// and for every row the same observations around the window, as when a
// mover reports beyond it — the group re-runs only the prune and
// replays its previous answers, which are the bytes a fresh draw would
// produce (see shard.Carry); SubscriptionStats().Carried counts such
// passes.
//
// Evaluations run asynchronously on the registry's worker pool — the
// ingest path never samples — and per-subscription event queues are
// bounded (see Delivery.QueueCap): slow consumers lose oldest events,
// tracked by SubEvent.Dropped, and never block writers. The consumer
// must drain Events() until the terminal Bye event (sent by
// Unsubscribe and CloseSubscriptions), after which the channel closes.
func (e *Executor) Subscribe(req Request, d Delivery) (*Subscription, error) {
	if _, _, err := normalizeRequest(req); err != nil {
		return nil, err
	}
	eval := func() sub.Eval {
		evals, _ := e.evalStandingGroup("", []any{req}, nil)
		return evals[0]
	}
	return e.subs.SubscribeKeyed(standingKey(req), eval, d, req), nil
}

// standingKey is the compatibility-group key of a standing request: the
// world-sharing groupKey plus the seed (standing queries draw from
// their own request seed, so equal shapes with different seeds draw
// different worlds and must not group). Under an enabled Confidence
// policy the shared early-stop point additionally depends on every
// member's (semantics, tau) — the group stops only when all members'
// estimates separate — so adaptive requests group only with identical
// (semantics, tau): then the duplicate bounds are no-ops and the
// grouped stop point equals each member's solo stop point exactly.
// Invalid requests key to "" (never grouped).
func standingKey(req Request) string {
	spec, item, err := NormalizeRequest(req)
	if err != nil {
		return ""
	}
	buf := []byte(groupKey(spec))
	var tmp [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(tmp[:], u)
		buf = append(buf, tmp[:]...)
	}
	put(uint64(spec.Seed))
	if spec.Conf.Enabled() {
		put(uint64(item.Op))
		put(math.Float64bits(item.Tau))
	}
	return string(buf)
}

// Unsubscribe removes a standing query; its consumer receives a
// terminal Bye event and the channel closes. It reports whether the ID
// was registered.
func (e *Executor) Unsubscribe(id int64) bool { return e.subs.Unsubscribe(id) }

// Subscription returns the standing query with the given ID, if
// registered.
func (e *Executor) Subscription(id int64) (*Subscription, bool) { return e.subs.Get(id) }

// Subscriptions describes every registered standing query, ascending
// by ID.
func (e *Executor) Subscriptions() []SubscriptionInfo { return e.subs.List() }

// NumSubscriptions returns the number of registered standing queries.
func (e *Executor) NumSubscriptions() int { return e.subs.Len() }

// SubscriptionStats returns the registry's cumulative counters.
func (e *Executor) SubscriptionStats() SubscriptionStats { return e.subs.Stats() }

// WaitSubscriptionsIdle blocks until every pending re-evaluation has
// drained (or the timeout elapses), reporting whether quiescence was
// reached. After a successful wait, every subscription has evaluated
// the newest snapshot its latest relevant write published.
func (e *Executor) WaitSubscriptionsIdle(timeout time.Duration) bool {
	return e.subs.WaitIdle(timeout)
}

// CloseSubscriptions shuts the subscription subsystem down: every
// standing query receives a terminal Bye event and its channel closes.
// One-shot queries keep being answered; new Subscribe calls return dead
// subscriptions. Safe to call more than once.
func (e *Executor) CloseSubscriptions() { e.subs.Close() }

// SetSweepInterval tunes the bounded delay of the subscription sweep
// scheduler (default DefaultSweepInterval): longer intervals coalesce
// more writes per grouped re-evaluation sweep at the cost of event
// latency; 0 sweeps on every write.
func (e *Executor) SetSweepInterval(d time.Duration) { e.subs.SetSweepInterval(d) }

// SetSubscriptionGrouping toggles grouped re-evaluation of compatible
// standing queries (default on). Off, every sweep re-evaluates touched
// subscriptions one by one — the baseline the fanout benchmark
// measures grouping against. Answer bytes are identical either way.
func (e *Executor) SetSubscriptionGrouping(enabled bool) { e.subs.SetGrouping(enabled) }

// NotifyWrite classifies one published write of object id for the
// standing queries. touch reports whether the written object may come
// within bound[t-ts] of q at some t in [ts, te] — the stored influence
// region of a standing query; untouched queries are not re-evaluated.
// A processor answers it from the snapshot the write published, a
// cluster router by asking the object's owner.
func (e *Executor) NotifyWrite(id int, touch func(q Query, ts, te int, bound []float64) bool) {
	e.subs.NotifyWrite(id, func(region any) bool {
		r, ok := region.(*influenceRegion)
		if !ok {
			return true
		}
		return touch(r.q, r.ts, r.te, r.bound)
	})
}

// standingState is a compatibility group's carry-over between
// re-evaluations. worlds is the adaptive stop point its previous
// evaluation proved sufficient: the next evaluation starts its
// early-stop floor there, so a query whose difficulty did not change
// decides in one round instead of re-escalating from the first. carry
// is the previous evaluation itself: when a write left every sampled
// input of the group unchanged — typically an observation appended
// after the window — the next evaluation replays its answers instead of
// drawing and evaluating the worlds again (see shard.Carry). A view
// that cannot replay leaves it nil.
type standingState struct {
	worlds int
	carry  *shard.Carry
}

// evalStandingGroup is the registry's GroupEval hook: it re-evaluates
// every member of one compatibility group as a single shared-world
// group on a fresh view, threading the group's state through.
func (e *Executor) evalStandingGroup(_ string, metas []any, state any) ([]sub.Eval, any) {
	reqs := make([]Request, len(metas))
	for i, m := range metas {
		reqs[i], _ = m.(Request)
	}
	return runStandingGroup(e.view(), reqs, state)
}

// runStandingGroup answers every member of one compatible standing
// group over ONE shared-world evaluation — same spec, same RunGroup
// path as the one-shot — so each member's bytes match a fresh one-shot
// at the same version, seed and floor; it additionally exports the
// influence region for the write-path touch test, and the adaptive stop
// point and the evaluation itself (state) for the next pass to reuse.
// All members share the spec (their compatibility key pins query,
// window, k, seed, policy and floor; tau and semantics too under an
// adaptive policy), so member i differs only in its GroupItem.
func runStandingGroup(v View, reqs []Request, state any) ([]sub.Eval, any) {
	evals := make([]sub.Eval, len(reqs))
	fail := func(vi VersionInfo, err error) ([]sub.Eval, any) {
		for i := range evals {
			resp := Response{Version: vi, Err: err}
			evals[i] = sub.Eval{Version: vi.Max, Payload: resp, Fingerprint: fingerprintResponse(resp)}
		}
		return evals, state
	}
	spec, _, err := NormalizeRequest(reqs[0])
	if err != nil {
		return fail(v.Version(), err)
	}
	items := make([]shard.GroupItem, len(reqs))
	for i, req := range reqs {
		if _, items[i], err = NormalizeRequest(req); err != nil {
			return fail(v.Version(), err)
		}
	}
	prev, _ := state.(*standingState)
	if prev == nil {
		prev = &standingState{}
	}
	reused := false
	if spec.Conf.Enabled() && prev.worlds > spec.MinWorlds {
		spec.MinWorlds = prev.worlds
		reused = true
	}
	run, err := runGroup(v, spec, items, prev.carry)
	if err != nil {
		return fail(run.Version, err)
	}
	next := &standingState{worlds: prev.worlds, carry: run.Carry}
	if spec.Conf.Enabled() && run.Stats.Worlds > 0 {
		next.worlds = run.Stats.Worlds
	}
	region := &influenceRegion{q: spec.Q, ts: spec.Ts, te: spec.Te, bound: run.Influence.PruneDist}
	for i, resp := range respond(spec, items, run) {
		resp.Stats.SamplerBuilds = run.Stats.SamplerBuilds
		resp.Stats.GroupSize = len(reqs)
		resp.Stats.BudgetReused = reused
		ev := sub.Eval{
			Version:      run.Version.Max,
			Payload:      resp,
			Fingerprint:  fingerprintResponse(resp),
			BudgetReused: reused,
			Carried:      run.Carry.Replayed(),
		}
		if resp.Err == nil {
			ev.Influencers = run.Influence.IDs
			ev.Region = region
		}
		evals[i] = ev
	}
	return evals, next
}

// fingerprintResponse condenses a Response's answer — results,
// intervals, error text — for Delivery.OnChangeOnly comparison.
// Sampling statistics are deliberately excluded: an answer is
// "unchanged" when the reported objects and probabilities are, even if
// an adaptive policy reached its verdict a round earlier.
func fingerprintResponse(resp Response) uint64 {
	h := fnv.New64a()
	var tmp [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(tmp[:], u)
		h.Write(tmp[:])
	}
	put(uint64(len(resp.Results)))
	for _, r := range resp.Results {
		put(uint64(r.ObjectID))
		put(math.Float64bits(r.Prob))
	}
	put(uint64(len(resp.Intervals)))
	for _, iv := range resp.Intervals {
		put(uint64(iv.ObjectID))
		put(uint64(len(iv.Times)))
		for _, t := range iv.Times {
			put(uint64(t))
		}
		put(math.Float64bits(iv.Prob))
	}
	if resp.Err != nil {
		h.Write([]byte(resp.Err.Error()))
	}
	return h.Sum64()
}
