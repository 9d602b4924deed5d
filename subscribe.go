package pnn

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
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
func (p *Processor) Subscribe(req Request, d Delivery) (*Subscription, error) {
	if _, _, err := normalizeRequest(req); err != nil {
		return nil, err
	}
	return p.subs.SubscribeKeyed(standingKey(req), func() sub.Eval { return p.evalStanding(req) }, d, req), nil
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
	k, op, err := normalizeRequest(req)
	if err != nil {
		return ""
	}
	buf := []byte(groupKey(req.Query, req.Ts, req.Te, k, req.Confidence, req.MinWorlds))
	var tmp [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(tmp[:], u)
		buf = append(buf, tmp[:]...)
	}
	put(uint64(req.Seed))
	if req.Confidence.Enabled() {
		put(uint64(op))
		put(math.Float64bits(req.Tau))
	}
	return string(buf)
}

// Unsubscribe removes a standing query; its consumer receives a
// terminal Bye event and the channel closes. It reports whether the ID
// was registered.
func (p *Processor) Unsubscribe(id int64) bool { return p.subs.Unsubscribe(id) }

// Subscription returns the standing query with the given ID, if
// registered.
func (p *Processor) Subscription(id int64) (*Subscription, bool) { return p.subs.Get(id) }

// Subscriptions describes every registered standing query, ascending
// by ID.
func (p *Processor) Subscriptions() []SubscriptionInfo { return p.subs.List() }

// NumSubscriptions returns the number of registered standing queries.
func (p *Processor) NumSubscriptions() int { return p.subs.Len() }

// SubscriptionStats returns the registry's cumulative counters.
func (p *Processor) SubscriptionStats() SubscriptionStats { return p.subs.Stats() }

// WaitSubscriptionsIdle blocks until every pending re-evaluation has
// drained (or the timeout elapses), reporting whether quiescence was
// reached. After a successful wait, every subscription has evaluated
// the newest snapshot its latest relevant write published.
func (p *Processor) WaitSubscriptionsIdle(timeout time.Duration) bool {
	return p.subs.WaitIdle(timeout)
}

// CloseSubscriptions shuts the subscription subsystem down: every
// standing query receives a terminal Bye event and its channel closes.
// The processor keeps answering one-shot queries; new Subscribe calls
// return dead subscriptions. Safe to call more than once.
func (p *Processor) CloseSubscriptions() { p.subs.Close() }

// SetSweepInterval tunes the bounded delay of the subscription sweep
// scheduler (default DefaultSweepInterval): longer intervals coalesce
// more writes per grouped re-evaluation sweep at the cost of event
// latency; 0 sweeps on every write.
func (p *Processor) SetSweepInterval(d time.Duration) { p.subs.SetSweepInterval(d) }

// SetSubscriptionGrouping toggles grouped re-evaluation of compatible
// standing queries (default on). Off, every sweep re-evaluates touched
// subscriptions one by one — the baseline the fanout benchmark
// measures grouping against. Answer bytes are identical either way.
func (p *Processor) SetSubscriptionGrouping(enabled bool) { p.subs.SetGrouping(enabled) }

// newProcessor wires a processor around a built shard set, including
// the standing-query registry (its workers are idle until the first
// Subscribe).
func newProcessor(net *Network, set *shard.Set) *Processor {
	p := &Processor{net: net, set: set}
	p.subs = sub.New(sub.Options{
		Workers:       runtime.GOMAXPROCS(0),
		GroupEval:     p.evalStandingGroup,
		SweepInterval: DefaultSweepInterval,
	})
	return p
}

// standingState is a compatibility group's carry-over between
// re-evaluations. worlds is the adaptive stop point its previous
// evaluation proved sufficient: the next evaluation starts its
// early-stop floor there, so a query whose difficulty did not change
// decides in one round instead of re-escalating from the first. carry
// is the previous evaluation itself: when a write left every sampled
// input of the group unchanged — typically an observation appended
// after the window — the next evaluation replays its answers instead of
// drawing and evaluating the worlds again (see shard.Carry).
type standingState struct {
	worlds int
	carry  *shard.Carry
}

// evalStanding runs one standing-query evaluation against the current
// snapshot without group-state reuse — the fallback path when the
// registry has no grouping hook.
func (p *Processor) evalStanding(req Request) sub.Eval {
	evals, _ := runStandingGroup(p.set.Snapshot(), []Request{req}, nil)
	return evals[0]
}

// evalStandingGroup is the registry's GroupEval hook: it re-evaluates
// every member of one compatibility group as a single shared-world
// group against the current snapshot, threading the group's adaptive
// state through.
func (p *Processor) evalStandingGroup(_ string, metas []any, state any) ([]sub.Eval, any) {
	reqs := make([]Request, len(metas))
	for i, m := range metas {
		reqs[i], _ = m.(Request)
	}
	return runStandingGroup(p.set.Snapshot(), reqs, state)
}

// runStandingGroup answers every member of one compatible standing
// group over ONE shared-world evaluation — same spec, same RunShared
// path as the one-shot — so each member's bytes match a fresh one-shot
// at the same version, seed and floor; it additionally exports the
// influence region for the write-path touch test, and the adaptive stop
// point and the evaluation itself (state) for the next pass to reuse.
// All members share the spec (their compatibility key pins query,
// window, k, seed, policy and floor; tau and semantics too under an
// adaptive policy), so member i differs only in its GroupItem.
func runStandingGroup(snap *shard.Snap, reqs []Request, state any) (evals []sub.Eval, newState any) {
	newState = state
	evals = make([]sub.Eval, len(reqs))
	fail := func(err error) {
		for i := range evals {
			resp := Response{Version: versionOf(snap), Err: err}
			evals[i] = sub.Eval{Version: snap.Version, Payload: resp, Fingerprint: fingerprintResponse(resp)}
		}
	}
	defer func() {
		if r := recover(); r != nil {
			fail(fmt.Errorf("pnn: standing query panicked: %v", r))
		}
	}()
	k, _, err := normalizeRequest(reqs[0])
	if err != nil {
		fail(err)
		return evals, newState
	}
	spec := shard.GroupSpec{
		Q: reqs[0].Query, Ts: reqs[0].Ts, Te: reqs[0].Te, K: k,
		Seed: reqs[0].Seed, Conf: reqs[0].Confidence, MinWorlds: reqs[0].MinWorlds,
	}
	items := make([]shard.GroupItem, len(reqs))
	for i, req := range reqs {
		_, op, err := normalizeRequest(req)
		if err != nil {
			fail(err)
			return evals, newState
		}
		items[i] = shard.GroupItem{Op: op, Tau: req.Tau}
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
	answers, raw, inf, carry, err := snap.RunSharedInfluence(spec, items, prev.carry)
	if err != nil {
		fail(err)
		return evals, newState
	}
	next := &standingState{worlds: prev.worlds, carry: carry}
	if spec.Conf.Enabled() && raw.Worlds > 0 {
		next.worlds = raw.Worlds
	}
	newState = next
	stats := convStats(raw)
	stats.GroupSize = len(reqs)
	stats.BudgetReused = reused
	if spec.Conf.Enabled() {
		stats.WorldFloor = spec.MinWorlds
	}
	region := &influenceRegion{q: spec.Q, ts: spec.Ts, te: spec.Te, bound: inf.PruneDist}
	vi := versionOf(snap)
	for i, a := range answers {
		resp := Response{Stats: stats, Version: vi, Err: a.Err}
		if a.Err == nil {
			switch items[i].Op {
			case shard.OpCNN:
				ivs := make([]IntervalResult, len(a.Intervals))
				for j, r := range a.Intervals {
					ivs[j] = IntervalResult{ObjectID: r.ID, Times: r.Times, Prob: r.Prob}
				}
				resp.Intervals = ivs
			default:
				resp.Results = convertResults(a.Results)
			}
		}
		ev := sub.Eval{
			Version:      snap.Version,
			Payload:      resp,
			Fingerprint:  fingerprintResponse(resp),
			BudgetReused: reused,
			Carried:      carry.Replayed(),
		}
		if a.Err == nil {
			ev.Influencers = inf.IDs
			ev.Region = region
		}
		evals[i] = ev
	}
	return evals, newState
}

// notifySubscriptions classifies one published write for the standing
// queries: the touch predicate resolves the written object against the
// snapshot that write produced (never a later one), so the test runs
// on exactly the rectangles the published version serves.
func (p *Processor) notifySubscriptions(snap *shard.Snap) {
	id := snap.ChangedID
	toucher := snap.Toucher(id)
	p.subs.NotifyWrite(id, func(region any) bool {
		r, ok := region.(*influenceRegion)
		if !ok {
			return true
		}
		return toucher(r.q, r.ts, r.te, r.bound)
	})
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
