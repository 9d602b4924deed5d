package pnn

import (
	"errors"
	"fmt"
	"runtime"

	"pnn/internal/query"
	"pnn/internal/shard"
	"pnn/internal/sub"
)

// VersionInfo identifies the snapshot state a response answered from.
// Vector holds one version per shard (ascending shard index; in cluster
// mode, the peers' vectors concatenated in peer order) and Max the
// composite version: 1 at build plus one per accepted write. Max is
// layout-independent — the same write sequence yields the same Max
// whatever the shard or peer count — while the vector's shape reveals
// the layout and lets a reader detect a torn gather (two sub-answers
// from different versions).
type VersionInfo struct {
	Vector []int64
	Max    int64
}

// View is the surface an Executor answers requests against. A
// processor's view pins one composite snapshot; a cluster router's view
// scatters each group to its peers and gathers the merged answer. An
// answer is a pure function of (snapshot, seed, policy) either way, so
// both views give the same bytes at the same versions.
type View interface {
	// Version is the snapshot identity of a request that fails before
	// any group runs.
	Version() VersionInfo
	// RunGroup answers every item of one shared-world group. prev is the
	// group's previous evaluation (nil: none); a view that cannot replay
	// ignores it and returns no carry. The run's Version is set even
	// when the error is not nil.
	RunGroup(spec shard.GroupSpec, items []shard.GroupItem, prev *shard.Carry) (GroupRun, error)
	// StaleErr is the error a batch unit wraps when it answered at a
	// different version vector than the rest of its batch twice. A view
	// whose groups all answer at one version never reaches it.
	StaleErr() error
}

// GroupRun is what View.RunGroup reports about one group.
type GroupRun struct {
	Answers   []shard.GroupAnswer
	Stats     query.Stats
	Influence shard.Influence
	Carry     *shard.Carry
	Version   VersionInfo
}

// Executor runs requests — one-shot, batched and standing — over the
// views of one backend. It is the only copy of normalisation, group
// keying, answer conversion, the batch worker pool and reconcile, and
// standing-group state; Processor and the cluster router both embed it.
type Executor struct {
	view func() View
	subs *sub.Registry
}

// NewExecutor returns an executor over the views that view pins: one
// per one-shot request, per batch and per standing evaluation.
func NewExecutor(view func() View) *Executor {
	e := &Executor{view: view}
	e.subs = sub.New(sub.Options{
		Workers:       runtime.GOMAXPROCS(0),
		GroupEval:     e.evalStandingGroup,
		SweepInterval: DefaultSweepInterval,
	})
	return e
}

// Run answers one Request — any semantics, with the full knob set
// including the adaptive Confidence policy — against the current
// snapshot. It is the single-query form of RunBatch: the same
// validation, the same determinism contract (the answer depends only on
// the snapshot and the request's own fields), with Response.Stats
// reporting the worlds actually drawn and the error bound they
// guarantee. Unlike the batch path, SamplerBuilds is reported on the
// response itself.
func (e *Executor) Run(req Request) Response {
	v := e.view()
	spec, item, err := NormalizeRequest(req)
	if err != nil {
		return Response{Version: v.Version(), Err: err}
	}
	return runSpec(v, spec, item)
}

// runSpec answers one normalized request on v, SamplerBuilds included.
func runSpec(v View, spec shard.GroupSpec, item shard.GroupItem) Response {
	items := []shard.GroupItem{item}
	run, err := runGroup(v, spec, items, nil)
	if err != nil {
		return Response{Version: run.Version, Err: err}
	}
	resp := respond(spec, items, run)[0]
	resp.Stats.SamplerBuilds = run.Stats.SamplerBuilds
	return resp
}

// runGroup is v.RunGroup under the no-panic guarantee: a panic becomes
// the group's error instead of killing the worker, and with it the
// process.
func runGroup(v View, spec shard.GroupSpec, items []shard.GroupItem, prev *shard.Carry) (run GroupRun, err error) {
	defer func() {
		if r := recover(); r != nil {
			run, err = GroupRun{Version: v.Version()}, fmt.Errorf("pnn: query group panicked: %v", r)
		}
	}()
	return v.RunGroup(spec, items, prev)
}

// respond converts a group's answers into responses at the group's
// version, reporting the world floor in effect under a confidence
// policy. SamplerBuilds stays zeroed (batch-level accounting, see
// BatchStats); one-shot and standing callers restore it.
func respond(spec shard.GroupSpec, items []shard.GroupItem, run GroupRun) []Response {
	out := make([]Response, len(run.Answers))
	for i, a := range run.Answers {
		out[i] = ResponseFromAnswer(items[i].Op, a, run.Stats)
		if spec.Conf.Enabled() {
			out[i].Stats.WorldFloor = spec.MinWorlds
		}
		out[i].Version = run.Version
	}
	return out
}

// ResponseFromAnswer converts one shard-level group answer plus its raw
// stats into a facade Response — the only such conversion. It zeroes
// the per-response SamplerBuilds of grouped paths and leaves Version,
// WorldFloor and the standing-group fields to the caller.
func ResponseFromAnswer(op shard.GroupOp, a shard.GroupAnswer, raw query.Stats) Response {
	resp := Response{Err: a.Err}
	if a.Err == nil {
		switch op {
		case shard.OpCNN:
			ivs := make([]IntervalResult, len(a.Intervals))
			for i, r := range a.Intervals {
				ivs[i] = IntervalResult{ObjectID: r.ID, Times: r.Times, Prob: r.Prob}
			}
			resp.Intervals = ivs
		default:
			resp.Results = make([]Result, len(a.Results))
			for i, r := range a.Results {
				resp.Results[i] = Result{ObjectID: r.ID, Prob: r.Prob}
			}
		}
	}
	resp.Stats = Stats{
		Candidates:   raw.Candidates,
		Influencers:  raw.Influencers,
		Worlds:       raw.Worlds,
		ErrorBound:   raw.ErrorBound,
		EarlyStopped: raw.EarlyStopped,
	}
	return resp
}

// snapView is a processor's View: one pinned composite snapshot, so a
// batch over it never answers from two versions.
type snapView struct{ snap *shard.Snap }

func (v snapView) Version() VersionInfo {
	return VersionInfo{Vector: v.snap.ShardVersions(), Max: v.snap.Version}
}

func (v snapView) RunGroup(spec shard.GroupSpec, items []shard.GroupItem, prev *shard.Carry) (GroupRun, error) {
	answers, st, inf, carry, err := v.snap.RunSharedInfluence(spec, items, prev)
	return GroupRun{Answers: answers, Stats: st, Influence: inf, Carry: carry, Version: v.Version()}, err
}

func (snapView) StaleErr() error { return errStaleSnapshot }

var errStaleSnapshot = errors.New("pnn: a pinned snapshot answered at two versions")
