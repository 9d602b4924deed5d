package shard

import (
	"slices"

	"pnn/internal/geo"
	"pnn/internal/query"
	"pnn/internal/uncertain"
)

// Carry is one evaluated shared-world group kept for the next
// evaluation of the same group: the inputs its answers are a pure
// function of, and the answers. Observations are exact, so a row's
// sampled column over the window depends only on (seed, object ID,
// chain, the observations bracketing the window, worlds drawn) — see
// uncertain.Object.SameWindow. When a later snapshot yields the same
// spec, items, row IDs, candidate rows and windows for every row, the
// gather would draw the same worlds into the same evaluators and its
// answers are the carried ones, byte for byte.
//
// The key is the content of the inputs, never a snapshot version, so a
// stale or foreign carry can only miss. A Carry is immutable once
// returned and safe to share between goroutines.
type Carry struct {
	spec    GroupSpec
	pos     []geo.Point // spec.Q over the window: the query's comparable content
	items   []GroupItem
	samples int
	ids     []int
	objs    []*uncertain.Object
	cands   []int

	answers []GroupAnswer
	stats   query.Stats // the gather's Worlds, ErrorBound, EarlyStopped, LatticeSets
	// replayed marks a carry whose answers were taken from its
	// predecessor instead of a gather.
	replayed bool
}

// Replayed reports whether the evaluation that returned c skipped the
// gather and answered from the previous carry.
func (c *Carry) Replayed() bool { return c != nil && c.replayed }

// newCarry records the gather inputs of spec and items over the scatter
// output x; the answers are filled in once known.
func newCarry(spec GroupSpec, items []GroupItem, x *exec) *Carry {
	c := &Carry{
		spec:    spec,
		pos:     make([]geo.Point, 0, spec.Te-spec.Ts+1),
		items:   append([]GroupItem(nil), items...),
		samples: x.samples,
		ids:     make([]int, len(x.entries)),
		objs:    make([]*uncertain.Object, len(x.entries)),
		cands:   append([]int(nil), x.cands...),
	}
	for t := spec.Ts; t <= spec.Te; t++ {
		c.pos = append(c.pos, spec.Q.At(t))
	}
	for i, e := range x.entries {
		c.ids[i] = e.id
		c.objs[i] = e.smp.Object()
	}
	return c
}

// sameInputs reports whether prev was evaluated over the same inputs as
// c: every field but the query closure compares by value, the query by
// its positions over the window, and each row by its window law.
func (c *Carry) sameInputs(prev *Carry) bool {
	if prev == nil {
		return false
	}
	a, b := c.spec, prev.spec
	if a.Ts != b.Ts || a.Te != b.Te || a.K != b.K || a.Seed != b.Seed ||
		a.Conf != b.Conf || a.MinWorlds != b.MinWorlds || c.samples != prev.samples ||
		!slices.Equal(c.pos, prev.pos) || !slices.Equal(c.items, prev.items) ||
		!slices.Equal(c.ids, prev.ids) || !slices.Equal(c.cands, prev.cands) {
		return false
	}
	for i, o := range c.objs {
		if !o.SameWindow(prev.objs[i], a.Ts, a.Te) {
			return false
		}
	}
	return true
}

// replay fills c from prev, whose inputs match, and returns the answers
// and the stats a gather would have produced: the scatter accounting of
// this call with prev's sampling outcome.
func (c *Carry) replay(prev *Carry, scatter query.Stats) ([]GroupAnswer, query.Stats) {
	c.answers, c.stats, c.replayed = prev.answers, prev.stats, true
	return c.result(scatter)
}

// result returns a deep copy of the carried answers — callers own what
// they receive, the carry stays immutable — and scatter completed with
// the carried sampling outcome.
func (c *Carry) result(scatter query.Stats) ([]GroupAnswer, query.Stats) {
	st := scatter
	st.Worlds = c.stats.Worlds
	st.ErrorBound = c.stats.ErrorBound
	st.EarlyStopped = c.stats.EarlyStopped
	st.LatticeSets = c.stats.LatticeSets
	out := make([]GroupAnswer, len(c.answers))
	for i, a := range c.answers {
		out[i] = GroupAnswer{Results: slices.Clone(a.Results), Err: a.Err}
		if a.Intervals != nil {
			out[i].Intervals = make([]IntervalResult, len(a.Intervals))
			for j, iv := range a.Intervals {
				out[i].Intervals[j] = IntervalResult{ID: iv.ID, Times: slices.Clone(iv.Times), Prob: iv.Prob}
			}
		}
	}
	return out, st
}
