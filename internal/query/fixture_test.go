package query

import (
	"testing"

	"pnn/internal/inference"
	"pnn/internal/markov"
	"pnn/internal/space"
	"pnn/internal/uncertain"
	"pnn/internal/ustree"
)

// LineObjects builds one object per observation set on a 60-state line
// with a uniform neighbour chain; object i has ID i. It is exported to
// the external query_test files, which answer through the shard layer.
func LineObjects(t testing.TB, obsSets ...[]uncertain.Observation) (*space.Space, []*uncertain.Object) {
	t.Helper()
	sp, err := space.Line(60)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sp.BuildTransitionMatrix(func(i, j int) float64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	h, err := markov.NewHomogeneous(m)
	if err != nil {
		t.Fatal(err)
	}
	var objs []*uncertain.Object
	for id, obs := range obsSets {
		o, err := uncertain.NewObject(id, obs, h)
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, o)
	}
	return sp, objs
}

// WorldObjectsOf converts objects to explicit WorldObjects via their
// adapted models (posterior path law): the input of the exact engines.
func WorldObjectsOf(t testing.TB, objs []*uncertain.Object) []WorldObject {
	t.Helper()
	var out []WorldObject
	for _, o := range objs {
		m, err := inference.Adapt(o)
		if err != nil {
			t.Fatal(err)
		}
		wo, err := PathsOfModel(m, 100000)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, wo)
	}
	return out
}

// lineDB indexes LineObjects in a tree with an engine over it.
func lineDB(t testing.TB, samples int, obsSets ...[]uncertain.Observation) (*space.Space, *ustree.Tree, *Engine) {
	t.Helper()
	sp, objs := LineObjects(t, obsSets...)
	tree, err := ustree.Build(sp, objs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sp, tree, NewEngine(tree, samples)
}

// exactFromDB is WorldObjectsOf over the tree's objects.
func exactFromDB(t testing.TB, tree *ustree.Tree) []WorldObject {
	t.Helper()
	return WorldObjectsOf(t, tree.Objects())
}
