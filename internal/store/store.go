// Package store owns the mutable state of a live PNN service: a
// versioned, immutable (UST-tree, query.Engine) snapshot plus the write
// path that advances it. The paper's whole premise is *moving* objects —
// observations keep arriving — so a serving system cannot freeze its
// database at startup.
//
// Reads are lock-free RCU: queries load the current snapshot from an
// atomic pointer and run entirely against it, so a snapshot swap never
// disturbs an in-flight query — it simply keeps answering from the
// version it started on. Writes (AddObject, Observe) are serialized by a
// mutex, build a private copy-on-write successor (ustree.Clone + Insert
// for new objects, ustree.WithUpdatedObject for observation writes: the
// per-object run headers copied, the diamonds of the gaps the write adds
// computed), freeze it, and publish it with one atomic store. The draw
// tables live in the tree with the rectangles, one per gap, and the
// sampler of each object version with its run: the successor keeps the
// sampler of every untouched object and the tables of every gap an
// updated object keeps, so ingestion does not cold-start adaptation and
// an updated object's next query adapts only the gaps the write added.
package store

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"pnn/internal/query"
	"pnn/internal/space"
	"pnn/internal/uncertain"
	"pnn/internal/ustree"
)

// Sentinel write-path errors, exposed so API layers can map rejection
// classes to stable machine-readable codes with errors.Is instead of
// matching message strings.
var (
	// ErrDuplicateID rejects an AddObject (or build) whose object ID is
	// already indexed.
	ErrDuplicateID = errors.New("duplicate object id")
	// ErrUnknownID rejects an Observe for an object ID the snapshot does
	// not index.
	ErrUnknownID = errors.New("unknown object id")
)

// Snapshot is one immutable version of the database. All fields are
// read-only: the engine's tree is frozen and IDs must not be modified.
// A query that captured a Snapshot may keep using it for its whole
// lifetime regardless of how many writes are published meanwhile.
type Snapshot struct {
	// Version increases by one with every published write, starting at 1
	// for the initial build.
	Version int64
	// Engine answers queries over this version's frozen UST-tree.
	Engine *query.Engine
	// IDs maps the engine's object index to the caller-chosen object ID.
	IDs []int
	// ChangedID tags the version with the write that produced it: the ID
	// of the single object whose state differs from the predecessor
	// snapshot (writes are one-object by construction). It is -1 for the
	// initial build, where every object is new. Change consumers —
	// standing-query invalidation above all — read it off the published
	// snapshot instead of threading the ID through a side channel, so the
	// notification can never disagree with the version it describes.
	ChangedID int
}

// Store is the single writer of a serving system. It is safe for
// concurrent use: any number of goroutines may Snapshot/query while
// others AddObject/Observe.
type Store struct {
	sp    *space.Space
	reach *uncertain.Reach // shared diamond/transpose cache for index builds

	mu   sync.Mutex  // serializes writers; never held by readers
	byID map[int]int // object ID -> engine index (writer-owned)
	cur  atomic.Pointer[Snapshot]
}

// New indexes objs and returns a store at version 1, with an engine
// drawing `samples` possible worlds per query. Object IDs must be
// unique; observations contradicting an object's chain fail the build.
func New(sp *space.Space, objs []*uncertain.Object, samples int) (*Store, error) {
	s := &Store{sp: sp, reach: uncertain.NewReach()}
	tree, err := ustree.Build(sp, objs, s.reach)
	if err != nil {
		return nil, err
	}
	if err := s.init(tree, samples); err != nil {
		return nil, err
	}
	return s, nil
}

// NewLenient is New for noisy data: objects whose observations
// contradict their chain are dropped rather than failing the build. It
// returns the positions (in objs) of the skipped objects.
func NewLenient(sp *space.Space, objs []*uncertain.Object, samples int) (*Store, []int, error) {
	s := &Store{sp: sp, reach: uncertain.NewReach()}
	tree, skipped, err := ustree.BuildLenient(sp, objs, s.reach)
	if err != nil {
		return nil, nil, err
	}
	if err := s.init(tree, samples); err != nil {
		return nil, nil, err
	}
	return s, skipped, nil
}

// NewAt is New with an explicit starting version: recovery rebuilds a
// store from a spilled object set and needs the snapshot chain to resume
// at the version the spill captured, not restart at 1. This is exact,
// not approximate, because build history cannot reach an answer: the
// filter step is a function of the objects' gap rectangles, and a gap's
// rectangles and adapted model of its two observations and the chain
// alone. The bulk-built final object set therefore prunes and samples
// exactly as the write history that produced it did (property-tested in
// ustree, inference and the facade's TestWriteHistoryMatchesRebuild).
func NewAt(sp *space.Space, objs []*uncertain.Object, samples int, version int64) (*Store, error) {
	if version < 1 {
		return nil, fmt.Errorf("store: NewAt version %d < 1", version)
	}
	s := &Store{sp: sp, reach: uncertain.NewReach()}
	tree, err := ustree.Build(sp, objs, s.reach)
	if err != nil {
		return nil, err
	}
	if err := s.initAt(tree, samples, version); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Store) init(tree *ustree.Tree, samples int) error {
	return s.initAt(tree, samples, 1)
}

func (s *Store) initAt(tree *ustree.Tree, samples int, version int64) error {
	ids := make([]int, tree.Len())
	s.byID = make(map[int]int, tree.Len())
	for i, o := range tree.Objects() {
		if _, dup := s.byID[o.ID]; dup {
			return fmt.Errorf("store: %w %d", ErrDuplicateID, o.ID)
		}
		ids[i] = o.ID
		s.byID[o.ID] = i
	}
	tree.Freeze()
	s.cur.Store(&Snapshot{Version: version, Engine: query.NewEngine(tree, samples), IDs: ids, ChangedID: -1})
	return nil
}

// Snapshot returns the current version. The result is immutable and
// stays valid forever; it just stops being current once a write lands.
func (s *Store) Snapshot() *Snapshot { return s.cur.Load() }

// Version returns the current snapshot version. Successive calls return
// non-decreasing values.
func (s *Store) Version() int64 { return s.cur.Load().Version }

// NumObjects returns the object count of the current snapshot.
func (s *Store) NumObjects() int { return len(s.cur.Load().IDs) }

// SetParallelism sets the engine parallelism (see
// query.Engine.SetParallelism) on the current engine and every engine
// derived from it by later writes.
func (s *Store) SetParallelism(workers int) {
	// Under mu no swap can race us, so the setting cannot land on a
	// snapshot that is being replaced (derived engines copy it).
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cur.Load().Engine.SetParallelism(workers)
}

// AddObject indexes a new object and publishes the successor snapshot,
// which it returns. The object's ID must be unused and its observations
// consistent with its chain. Cost is one copy of the per-object run
// headers plus the new object's diamonds; every adapted sampler carries
// over.
func (s *Store) AddObject(o *uncertain.Object) (*Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.byID[o.ID]; dup {
		return nil, fmt.Errorf("store: %w %d", ErrDuplicateID, o.ID)
	}
	cur := s.cur.Load()
	tree := cur.Engine.Tree().Clone()
	oi, err := tree.Insert(o, s.reach)
	if err != nil {
		return nil, err
	}
	tree.Freeze()
	next := &Snapshot{
		Version:   cur.Version + 1,
		Engine:    query.NewEngineFrom(cur.Engine, tree),
		IDs:       append(append(make([]int, 0, len(cur.IDs)+1), cur.IDs...), o.ID),
		ChangedID: o.ID,
	}
	s.byID[o.ID] = oi
	s.cur.Store(next)
	return next, nil
}

// Observe appends observations to an existing object and publishes the
// successor snapshot, which it returns. Late (out-of-order)
// observations are accepted as long as the merged sequence stays
// consistent: duplicate timestamps and motions the chain cannot realize
// are rejected, leaving the current snapshot untouched. The object
// keeps its engine index and the draw tables of the gaps the write
// leaves; every other object's adapted sampler carries over.
func (s *Store) Observe(id int, obs []uncertain.Observation) (*Snapshot, error) {
	if len(obs) == 0 {
		return nil, fmt.Errorf("store: Observe(%d) with no observations", id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	oi, ok := s.byID[id]
	if !ok {
		return nil, fmt.Errorf("store: %w %d", ErrUnknownID, id)
	}
	cur := s.cur.Load()
	old := cur.Engine.Tree().Objects()[oi]
	merged := append(append(make([]uncertain.Observation, 0, len(old.Obs)+len(obs)), old.Obs...), obs...)
	upd, err := uncertain.NewObject(id, merged, old.Chain)
	if err != nil {
		return nil, err
	}
	// Only the diamonds of the gaps the write adds are computed, which
	// rejects contradicting updates before anything is published; see
	// Tree.WithUpdatedObject for the exact cost model.
	tree, err := cur.Engine.Tree().WithUpdatedObject(oi, upd, s.reach)
	if err != nil {
		return nil, err
	}
	tree.Freeze()
	next := &Snapshot{
		Version:   cur.Version + 1,
		Engine:    query.NewEngineFrom(cur.Engine, tree),
		IDs:       cur.IDs,
		ChangedID: id,
	}
	s.cur.Store(next)
	return next, nil
}
