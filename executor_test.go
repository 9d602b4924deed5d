package pnn

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"pnn/internal/query"
	"pnn/internal/shard"
)

var errFakeStale = errors.New("fake view: stale")

// fakeView answers each group at the newest vector {2, 3}, except that
// a group's first stale[seed] runs answer at the older {2, 2}, and a
// group whose seed is in panics panics. It counts runs per seed.
type fakeView struct {
	stale  map[int64]int
	panics map[int64]bool

	mu   sync.Mutex
	runs map[int64]int
}

func (v *fakeView) Version() VersionInfo { return VersionInfo{Vector: []int64{2, 3}, Max: 4} }

func (v *fakeView) RunGroup(spec shard.GroupSpec, items []shard.GroupItem, _ *shard.Carry) (GroupRun, error) {
	v.mu.Lock()
	v.runs[spec.Seed]++
	n := v.runs[spec.Seed]
	v.mu.Unlock()
	if v.panics[spec.Seed] {
		panic("fake view: boom")
	}
	vi := v.Version()
	if n <= v.stale[spec.Seed] {
		vi = VersionInfo{Vector: []int64{2, 2}, Max: 3}
	}
	answers := make([]shard.GroupAnswer, len(items))
	for i := range answers {
		answers[i].Results = []shard.Result{{ID: int(spec.Seed), Prob: 1}}
	}
	return GroupRun{Answers: answers, Stats: query.Stats{Worlds: 10}, Version: vi}, nil
}

func (v *fakeView) StaleErr() error { return errFakeStale }

// TestBatchReconcile drives the batch reconcile over a fake view: units
// on one vector run once; a unit that answers at an old vector is re-run
// once and then answered normally; one that does so twice fails with
// the view's stale error; a panicking group fails alone.
func TestBatchReconcile(t *testing.T) {
	q := AtPoint(Point{X: 0.5, Y: 0.5})
	reqs := make([]Request, 4)
	for i := range reqs {
		reqs[i] = Request{Semantics: ForAll, Query: q, Ts: 1, Te: 3, Seed: int64(i)}
	}
	cases := []struct {
		name    string
		stale   map[int64]int
		panics  map[int64]bool
		runs    map[int64]int // runs per seed; others run once
		failed  int64         // seed whose request fails; -1 for none
		wantErr func(error) bool
	}{
		{name: "one vector", failed: -1},
		{name: "stale once", stale: map[int64]int{1: 1}, runs: map[int64]int{1: 2}, failed: -1},
		{name: "stale twice", stale: map[int64]int{1: 2}, runs: map[int64]int{1: 2}, failed: 1,
			wantErr: func(err error) bool { return errors.Is(err, errFakeStale) }},
		{name: "panic", panics: map[int64]bool{2: true}, failed: 2,
			wantErr: func(err error) bool { return err != nil && strings.Contains(err.Error(), "panicked") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := &fakeView{stale: tc.stale, panics: tc.panics, runs: make(map[int64]int)}
			e := NewExecutor(func() View { return v })
			t.Cleanup(e.CloseSubscriptions)
			out, bst := e.RunBatchStats(reqs, BatchOptions{Workers: 2})
			if bst.Requests != len(reqs) {
				t.Errorf("BatchStats.Requests = %d, want %d", bst.Requests, len(reqs))
			}
			for i, resp := range out {
				seed := int64(i)
				want := 1
				if n, ok := tc.runs[seed]; ok {
					want = n
				}
				if v.runs[seed] != want {
					t.Errorf("request %d ran %d times, want %d", i, v.runs[seed], want)
				}
				if seed == tc.failed {
					if !tc.wantErr(resp.Err) {
						t.Errorf("request %d error = %v", i, resp.Err)
					}
					if resp.Results != nil {
						t.Errorf("failed request %d carries results %v", i, resp.Results)
					}
					continue
				}
				if resp.Err != nil {
					t.Errorf("request %d failed: %v", i, resp.Err)
					continue
				}
				if len(resp.Results) != 1 || resp.Results[0].ObjectID != i || resp.Version.Max != 4 {
					t.Errorf("request %d = %+v, want its own answer at version 4", i, resp)
				}
			}
		})
	}
}
