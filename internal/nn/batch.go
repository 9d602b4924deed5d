package nn

import (
	"math"

	"pnn/internal/geo"
	"pnn/internal/space"
)

// WorldChunk is the number of possible worlds a batch holds at once —
// the chunking policy of every sampling kernel over WorldBatch (the
// query executor and the benchmark's replay alike): large enough to amortize per-chunk bookkeeping, small enough that the
// state and distance buffers stay cache-resident and the memory
// high-water mark is independent of the sample budget.
const WorldChunk = 256

// WorldBatch is a chunk of possible worlds in columnar form: the states
// of every object in every world of the chunk live in one flat []int32,
// the distance matrix of every world in one flat []float64. It replaces
// per-world *World materialization in the Monte-Carlo hot path — where
// NewWorld allocates a [][]float64 per world, a batch's buffers are
// written in place and recycled across chunks (engines keep batches in
// a sync.Pool), so steady-state sampling allocates nothing.
//
// Layouts:
//
//   - states[(oi*nW + w)*nT + (t-Ts)] is the state of object oi at time
//     t in world w, or -1 when the object is dead at t. Object-major,
//     because the sampler fills one object's worlds consecutively from
//     that object's generator (the draw order the determinism contract
//     fixes).
//   - dist[((w*nT)+(t-Ts))*nObj + oi] is d(q(t), oi(t)) in world w, or
//     +Inf when dead. (world, time)-major, because every NN predicate
//     scans all objects at one (world, time) — the same row shape
//     World kept, now without the row allocations.
//
// A WorldBatch is not safe for concurrent mutation; the read-only
// predicate methods may be called from multiple goroutines once the
// distances are computed (the shard gather phase splits worlds across
// workers, each calling ComputeDistancesRange on its own world range
// first).
type WorldBatch struct {
	Ts, Te int

	nObj, nW, nT int
	states       []int32
	dist         []float64
	qpts         []geo.Point
}

// Reset shapes the batch for nObj objects × nW worlds over [ts, te],
// reusing the underlying buffers when they are large enough. Previous
// contents are overwritten lazily: every States column must be filled
// by the sampler and distances recomputed before evaluation.
func (b *WorldBatch) Reset(nObj, nW, ts, te int) {
	b.Ts, b.Te = ts, te
	b.nObj, b.nW, b.nT = nObj, nW, te-ts+1
	if n := nObj * nW * b.nT; cap(b.states) < n {
		b.states = make([]int32, n)
	} else {
		b.states = b.states[:n]
	}
	if n := b.nW * b.nT * nObj; cap(b.dist) < n {
		b.dist = make([]float64, n)
	} else {
		b.dist = b.dist[:n]
	}
	if cap(b.qpts) < b.nT {
		b.qpts = make([]geo.Point, b.nT)
	} else {
		b.qpts = b.qpts[:b.nT]
	}
}

// Worlds returns the number of worlds in the batch.
func (b *WorldBatch) Worlds() int { return b.nW }

// NumObjects returns the number of objects per world.
func (b *WorldBatch) NumObjects() int { return b.nObj }

// States returns the state column of object oi in world w: a slice of
// length Te-Ts+1 for the sampler to fill (states ascending by time;
// -1 marks timesteps where the object is dead).
func (b *WorldBatch) States(oi, w int) []int32 {
	base := (oi*b.nW + w) * b.nT
	return b.states[base : base+b.nT]
}

// ComputeDistances fills the whole distance matrix from the state
// columns: dist = d(q(t), state) via sp, +Inf for dead slots.
func (b *WorldBatch) ComputeDistances(sp *space.Space, q func(int) geo.Point) {
	b.PrepareQuery(q)
	b.ComputeDistancesRange(sp, 0, b.nW)
}

// PrepareQuery caches the query position of every window timestep.
// Call it once per Reset before any ComputeDistancesRange — the range
// fills only read the cache, so disjoint ranges stay data-race-free.
func (b *WorldBatch) PrepareQuery(q func(int) geo.Point) {
	for ti := 0; ti < b.nT; ti++ {
		b.qpts[ti] = q(b.Ts + ti)
	}
}

// ComputeDistancesRange fills the distance rows of worlds [w0, w1).
// Disjoint ranges may be computed concurrently — the gather workers of
// a sharded query each materialize their own world range.
func (b *WorldBatch) ComputeDistancesRange(sp *space.Space, w0, w1 int) {
	pts := sp.Points()
	inf := math.Inf(1)
	for oi := 0; oi < b.nObj; oi++ {
		col := b.states[(oi*b.nW+w0)*b.nT : (oi*b.nW+w1)*b.nT]
		for w := w0; w < w1; w++ {
			rowBase := w * b.nT * b.nObj
			for ti := 0; ti < b.nT; ti++ {
				s := col[(w-w0)*b.nT+ti]
				if s < 0 {
					b.dist[rowBase+ti*b.nObj+oi] = inf
				} else {
					b.dist[rowBase+ti*b.nObj+oi] = pts[s].Dist(b.qpts[ti])
				}
			}
		}
	}
}

// row returns the distances of all objects at time t in world w.
func (b *WorldBatch) row(w, t int) []float64 {
	base := (w*b.nT + (t - b.Ts)) * b.nObj
	return b.dist[base : base+b.nObj]
}

// Dist returns d(q(t), oi(t)) in world w; +Inf when oi is dead at t.
func (b *WorldBatch) Dist(w, oi, t int) float64 { return b.row(w, t)[oi] }

// IsKNNAt reports whether object oi ranks among the k nearest
// neighbors of q at time t in world w: alive, with fewer than k other
// objects strictly closer (ties included, per Definition 1).
func (b *WorldBatch) IsKNNAt(w, oi, t, k int) bool {
	row := b.row(w, t)
	d := row[oi]
	if math.IsInf(d, 1) {
		return false
	}
	closer := 0
	for j, dj := range row {
		if j != oi && dj < d {
			closer++
			if closer >= k {
				return false
			}
		}
	}
	return true
}

// KNNThroughout reports whether oi is among the k nearest at every
// timestep of the window in world w (the ∀ event of Definition 2).
func (b *WorldBatch) KNNThroughout(w, oi, k int) bool {
	for t := b.Ts; t <= b.Te; t++ {
		if !b.IsKNNAt(w, oi, t, k) {
			return false
		}
	}
	return true
}

// KNNSometime reports whether oi is among the k nearest at one or more
// timesteps of the window in world w (the ∃ event of Definition 1).
func (b *WorldBatch) KNNSometime(w, oi, k int) bool {
	for t := b.Ts; t <= b.Te; t++ {
		if b.IsKNNAt(w, oi, t, k) {
			return true
		}
	}
	return false
}

// KNNMask fills dst (length Te-Ts+1) with per-timestep k-NN indicators
// for object oi in world w — the per-world rows the PCNN lattice walk
// mines.
func (b *WorldBatch) KNNMask(w, oi, k int, dst []bool) {
	for t := b.Ts; t <= b.Te; t++ {
		dst[t-b.Ts] = b.IsKNNAt(w, oi, t, k)
	}
}
