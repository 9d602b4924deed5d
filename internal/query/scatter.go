package query

import (
	"fmt"

	"pnn/internal/ustree"
)

// PruneWindow validates the query window and runs the UST-tree filter
// step, returning the candidate and influence sets of Section 6. It is
// the scatter half of a sharded query: each shard prunes its own
// partition independently, and because a partition's pruning distance is
// computed over fewer objects it can only be looser than the global one,
// the per-shard sets are supersets of the true sets restricted to the
// shard — pruning stays lossless under any partitioning.
func (e *Engine) PruneWindow(q Query, ts, te, k int) (ustree.Pruning, error) {
	if q.Zero() {
		return ustree.Pruning{}, errZeroQuery
	}
	if te < ts {
		return ustree.Pruning{}, fmt.Errorf("query: inverted interval [%d, %d]", ts, te)
	}
	if k < 1 {
		return ustree.Pruning{}, fmt.Errorf("query: need k >= 1, got %d", k)
	}
	if e.noPrune {
		return e.timePrune(ts, te), nil
	}
	return e.tree.PruneK(q.At, ts, te, k), nil
}
