// Package cluster implements the multi-node scatter-gather deployment
// of the PNN engine: a Coordinator that owns consistent-hash object
// routing for ingest and fans query work out to shard peers over the
// /internal HTTP RPC surface, gathering merged answers that are
// byte-identical to the single-process shard.Set path at the same
// snapshot versions and seed.
//
// The determinism contract rests on the shard package's replay design:
// each peer prunes its own UST-trees, adapts samplers, and pre-draws
// every influencer's possible-world state columns from the private
// (request seed, object ID) generator; the coordinator merges the rows
// with shard.MergeScatters and replays them through shard.Gather, the
// very executor a single process evaluates with. Distances, evaluator
// counts, and the adaptive early-stop point follow from the columns
// alone, so the network boundary adds no numeric drift.
//
// Requests and the small answers (health, ingest, touch) are JSON. The
// scatter answer — the only large one — has two encodings, chosen by
// media type alone: a caller that sends "Accept: application/x-pnn-scatter"
// gets the binary frame below with Content-Length set and no
// Content-Encoding; any other caller gets ScatterResponse as JSON
// (gzip'd when it sent Accept-Encoding: gzip), so routers and peers of
// either age interoperate. The frame follows the spill codec's idiom
// (internal/store/spill.go): magic and format word, a fixed
// little-endian header, flat columns, one trailing CRC-32C over
// everything before it.
//
//	magic "PNNSCAT1" | u32 format
//	i64 version | i64 samplerBuilds | i64 adaptNanos
//	u32 samples | u32 worlds | u32 nT
//	u32 nVersions | u32 nRows | u32 nCands | u32 nPrune
//	versions  nVersions x i64
//	candIDs   nCands x i64
//	pruneDist nPrune x u64      // IEEE-754 bits, so +Inf is itself
//	nRows times:
//	  i64 id | u32 dictLen
//	  dict    dictLen x i32     // the column's distinct states, -1 (dead) included
//	  column  worlds*nT x u8, u16 or u32 indices into dict
//	crc32c over everything above
//
// A column's index width is the narrowest that holds dictLen-1 (one
// byte up to 256 distinct states, two up to 65 536, else four): it is
// read off the data, not configured. An object visits few states inside
// a short window, so nearly every column travels at a byte a state — the
// 4x that gzip used to buy, without a compressor on either side.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"time"

	"pnn/internal/shard"
)

// PointJSON is a planar position on the wire.
type PointJSON struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// QueryJSON carries a query reference as its positions over the query
// window: Points[i] is the reference position at time Start+i. Both
// fixed and moving references reduce to this — pruning and evaluation
// only ever read the position inside the window, and Go's JSON float64
// encoding round-trips exactly, so the peer reconstructs the positions
// bit-identically.
type QueryJSON struct {
	Start  int         `json:"start"`
	Points []PointJSON `json:"points"`
}

// ConfidenceJSON mirrors query.Confidence on the internal wire.
type ConfidenceJSON struct {
	Eps        float64 `json:"eps,omitempty"`
	Delta      float64 `json:"delta,omitempty"`
	MaxSamples int     `json:"max_samples,omitempty"`
}

// ScatterRequest is the body of POST /internal/scatter: one shared-
// world group spec, query encoded as window positions.
type ScatterRequest struct {
	Query      QueryJSON       `json:"query"`
	Ts         int             `json:"ts"`
	Te         int             `json:"te"`
	K          int             `json:"k"`
	Seed       int64           `json:"seed"`
	Confidence *ConfidenceJSON `json:"confidence,omitempty"`
}

// ScatterRowJSON is one influencer row on the wire. States is the
// little-endian int32 encoding of the row's pre-drawn state columns
// (Worlds consecutive windows of Te-Ts+1 states, -1 marking dead
// timesteps); JSON carries it base64-encoded.
type ScatterRowJSON struct {
	ID     int    `json:"id"`
	States []byte `json:"states"`
}

// ScatterResponse is the peer's answer: its shard.ScatterResult in
// wire form. PruneDist uses null for +Inf (JSON has no infinities).
type ScatterResponse struct {
	Version       int64            `json:"version"`
	Versions      []int64          `json:"versions"`
	Samples       int              `json:"samples"`
	Worlds        int              `json:"worlds"`
	Rows          []ScatterRowJSON `json:"rows"`
	CandIDs       []int            `json:"cand_ids,omitempty"`
	PruneDist     []*float64       `json:"prune_dist,omitempty"`
	SamplerBuilds int              `json:"sampler_builds"`
	AdaptNanos    int64            `json:"adapt_ns"`
}

// IngestRPCRequest is the body of POST /internal/ingest: a routed
// write. Kind is "add" (register a new object) or "observe" (append to
// an existing one). Observations are pre-validated by the coordinator
// against the shared network, so the peer only re-checks what the
// motion model itself enforces.
type IngestRPCRequest struct {
	Kind         string            `json:"kind"`
	ID           int               `json:"id"`
	Observations []ObservationJSON `json:"observations"`
}

// ObservationJSON is one certain (time, state) measurement.
type ObservationJSON struct {
	T     int `json:"t"`
	State int `json:"state"`
}

// IngestRPCResponse reports the peer's published snapshot after a
// routed write.
type IngestRPCResponse struct {
	Version  int64   `json:"version"`
	Versions []int64 `json:"versions"`
	Objects  int     `json:"objects"`
}

// TouchRequest is the body of POST /internal/touch: may the (already
// written) object with ID intersect the given influence region? The
// peer owning the object answers with its indexed rectangles.
type TouchRequest struct {
	ID    int        `json:"id"`
	Query QueryJSON  `json:"query"`
	Ts    int        `json:"ts"`
	Te    int        `json:"te"`
	Bound []*float64 `json:"bound,omitempty"`
}

// TouchResponse reports the touch verdict.
type TouchResponse struct {
	Touched bool `json:"touched"`
}

// HealthInfo is the body of GET /internal/health: the peer's live
// snapshot identity plus the static parameters the coordinator must
// see agree across the cluster.
type HealthInfo struct {
	Version     int64   `json:"version"`
	Versions    []int64 `json:"versions"`
	Objects     int     `json:"objects"`
	States      int     `json:"states"`
	Samples     int     `json:"samples"`
	CacheBuilds int64   `json:"cache_builds"`
	CacheHits   int64   `json:"cache_hits"`
	// Durability is the peer's persistence mode ("volatile", "wal",
	// "wal+fsync"), surfaced per peer on /v1/cluster so an operator can
	// spot a node accidentally running volatile in a durable cluster.
	Durability string `json:"durability"`
}

// ErrorJSON is the error envelope of every /internal RPC, mirroring
// the public API's shape so one client can decode both.
type ErrorJSON struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// StatesToWire encodes int32 state columns little-endian.
func StatesToWire(states []int32) []byte {
	out := make([]byte, 4*len(states))
	for i, s := range states {
		binary.LittleEndian.PutUint32(out[i*4:], uint32(s))
	}
	return out
}

// StatesFromWire decodes little-endian int32 state columns.
func StatesFromWire(b []byte) []int32 {
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

// PruneToWire encodes a pruning threshold vector, mapping +Inf (no
// constraint) to null.
func PruneToWire(dist []float64) []*float64 {
	out := make([]*float64, len(dist))
	for i, d := range dist {
		if !math.IsInf(d, 1) {
			v := d
			out[i] = &v
		}
	}
	return out
}

// PruneFromWire decodes a wire threshold vector, mapping null back to
// +Inf.
func PruneFromWire(dist []*float64) []float64 {
	out := make([]float64, len(dist))
	for i, d := range dist {
		if d == nil {
			out[i] = math.Inf(1)
		} else {
			out[i] = *d
		}
	}
	return out
}

// ScatterToWire converts a peer-side scatter result to its wire form.
func ScatterToWire(res *shard.ScatterResult) ScatterResponse {
	out := ScatterResponse{
		Version:       res.Version,
		Versions:      res.Versions,
		Samples:       res.Samples,
		Worlds:        res.Worlds,
		Rows:          make([]ScatterRowJSON, len(res.Rows)),
		CandIDs:       res.CandIDs,
		PruneDist:     PruneToWire(res.PruneDist),
		SamplerBuilds: res.SamplerBuilds,
		AdaptNanos:    res.AdaptTime.Nanoseconds(),
	}
	for i, r := range res.Rows {
		out.Rows[i] = ScatterRowJSON{ID: r.ID, States: StatesToWire(r.States)}
	}
	return out
}

// ScatterFromWire converts a wire scatter response back to the shard
// form the coordinator merges.
func ScatterFromWire(resp *ScatterResponse) *shard.ScatterResult {
	res := &shard.ScatterResult{
		Version:       resp.Version,
		Versions:      resp.Versions,
		Samples:       resp.Samples,
		Worlds:        resp.Worlds,
		Rows:          make([]shard.ScatterRow, len(resp.Rows)),
		CandIDs:       resp.CandIDs,
		PruneDist:     PruneFromWire(resp.PruneDist),
		SamplerBuilds: resp.SamplerBuilds,
	}
	res.AdaptTime = time.Duration(resp.AdaptNanos)
	for i, r := range resp.Rows {
		res.Rows[i] = shard.ScatterRow{ID: r.ID, States: StatesFromWire(r.States)}
	}
	return res
}

// ScatterFrameType is the media type of the binary scatter answer: a
// router asks for it in Accept, a peer names it in Content-Type.
const ScatterFrameType = "application/x-pnn-scatter"

const (
	scatterMagic  = "PNNSCAT1"
	scatterFormat = 1
	scatterFixed  = 8 + 4 + 3*8 + 7*4

	// maxScatterBytes caps one scatter answer on the router: the body
	// read off the wire, in either encoding, and the columns a frame
	// decodes to.
	maxScatterBytes = 256 << 20

	// maxSlotSpan is the widest range of state IDs a column may span and
	// still be indexed through a flat table (4 MiB of scratch at most);
	// a wider one goes through a map.
	maxSlotSpan = 1 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// indexWidth is the number of bytes a dictionary index travels at.
func indexWidth(dictLen int) int {
	switch {
	case dictLen <= 1<<8:
		return 1
	case dictLen <= 1<<16:
		return 2
	}
	return 4
}

// EncodeScatterFrame encodes a peer-side scatter result as one binary
// frame. Every row must hold Worlds whole windows of the same length,
// which is what Snap.Scatter produces.
func EncodeScatterFrame(res *shard.ScatterResult) ([]byte, error) {
	nT := 0
	if len(res.Rows) > 0 && res.Worlds > 0 {
		nT = len(res.Rows[0].States) / res.Worlds
	}
	cells := res.Worlds * nT
	for _, r := range res.Rows {
		if len(r.States) != cells {
			return nil, fmt.Errorf("cluster: scatter row %d holds %d states, want %d worlds x %d tics", r.ID, len(r.States), res.Worlds, nT)
		}
	}
	head := scatterFixed + 8*(len(res.Versions)+len(res.CandIDs)+len(res.PruneDist))
	// Sized for a byte a state and a few hundred distinct states a row;
	// append grows it for the rare wider column.
	buf := make([]byte, 0, head+len(res.Rows)*(12+1024+cells)+4)
	le := binary.LittleEndian
	buf = append(buf, scatterMagic...)
	buf = le.AppendUint32(buf, scatterFormat)
	buf = le.AppendUint64(buf, uint64(res.Version))
	buf = le.AppendUint64(buf, uint64(res.SamplerBuilds))
	buf = le.AppendUint64(buf, uint64(res.AdaptTime.Nanoseconds()))
	for _, n := range [...]int{res.Samples, res.Worlds, nT, len(res.Versions), len(res.Rows), len(res.CandIDs), len(res.PruneDist)} {
		buf = le.AppendUint32(buf, uint32(n))
	}
	for _, v := range res.Versions {
		buf = le.AppendUint64(buf, uint64(v))
	}
	for _, id := range res.CandIDs {
		buf = le.AppendUint64(buf, uint64(id))
	}
	for _, d := range res.PruneDist {
		buf = le.AppendUint64(buf, math.Float64bits(d))
	}
	var enc columnEncoder
	for _, r := range res.Rows {
		buf = le.AppendUint64(buf, uint64(r.ID))
		buf = enc.appendColumn(buf, r.States)
	}
	return le.AppendUint32(buf, crc32.Checksum(buf, crcTable)), nil
}

// columnEncoder carries the scratch one frame's rows share.
type columnEncoder struct {
	dict []int32          // distinct states of the current column, in order of first appearance
	idx  []uint32         // the current column as indices into dict
	slot []uint32         // slot[s-lo] is 1 + the index of state s, 0 while unseen; all zero between columns
	far  map[int32]uint32 // what slot is, for a column spanning more than maxSlotSpan state IDs
}

// appendColumn appends col's dictionary and its indices at the width
// the dictionary's size allows.
func (e *columnEncoder) appendColumn(buf []byte, col []int32) []byte {
	e.index(col)
	le := binary.LittleEndian
	buf = le.AppendUint32(buf, uint32(len(e.dict)))
	for _, s := range e.dict {
		buf = le.AppendUint32(buf, uint32(s))
	}
	w := indexWidth(len(e.dict))
	n := len(buf)
	buf = slices.Grow(buf, w*len(col))[:n+w*len(col)]
	out := buf[n:]
	switch w {
	case 1:
		for i, x := range e.idx {
			out[i] = byte(x)
		}
	case 2:
		for i, x := range e.idx {
			le.PutUint16(out[2*i:], uint16(x))
		}
	default:
		for i, x := range e.idx {
			le.PutUint32(out[4*i:], x)
		}
	}
	return buf
}

// index fills e.dict and e.idx for col.
func (e *columnEncoder) index(col []int32) {
	e.dict = e.dict[:0]
	if cap(e.idx) < len(col) {
		e.idx = make([]uint32, len(col))
	}
	e.idx = e.idx[:len(col)]
	if len(col) == 0 {
		return
	}
	lo, hi := col[0], col[0]
	for _, s := range col {
		lo, hi = min(lo, s), max(hi, s)
	}
	span := int64(hi) - int64(lo) + 1
	if span > maxSlotSpan {
		if e.far == nil {
			e.far = make(map[int32]uint32)
		}
		clear(e.far)
		for i, s := range col {
			k, ok := e.far[s]
			if !ok {
				k = uint32(len(e.dict))
				e.far[s] = k
				e.dict = append(e.dict, s)
			}
			e.idx[i] = k
		}
		return
	}
	if int64(len(e.slot)) < span {
		e.slot = make([]uint32, span)
	}
	for i, s := range col {
		k := e.slot[s-lo]
		if k == 0 {
			e.dict = append(e.dict, s)
			k = uint32(len(e.dict))
			e.slot[s-lo] = k
		}
		e.idx[i] = k - 1
	}
	for _, s := range e.dict {
		e.slot[s-lo] = 0
	}
}

var errScatterTruncated = errors.New("cluster: scatter frame: truncated")

// DecodeScatterFrame decodes and checksum-verifies one binary scatter
// frame into the shard form the coordinator merges, one allocation per
// row. Every count the frame declares is checked against the bytes that
// remain before it sizes an allocation, so a short or lying frame is an
// error, never a large allocation.
func DecodeScatterFrame(frame []byte) (*shard.ScatterResult, error) {
	if len(frame) < scatterFixed+4 {
		return nil, fmt.Errorf("cluster: scatter frame: too short (%d bytes)", len(frame))
	}
	le := binary.LittleEndian
	b, sum := frame[:len(frame)-4], le.Uint32(frame[len(frame)-4:])
	if string(b[:8]) != scatterMagic {
		return nil, fmt.Errorf("cluster: scatter frame: bad magic %q", b[:8])
	}
	if crc32.Checksum(b, crcTable) != sum {
		return nil, errors.New("cluster: scatter frame: checksum mismatch")
	}
	if f := le.Uint32(b[8:12]); f != scatterFormat {
		return nil, fmt.Errorf("cluster: scatter frame: unsupported format %d", f)
	}
	res := &shard.ScatterResult{
		Version:       int64(le.Uint64(b[12:20])),
		SamplerBuilds: int(int64(le.Uint64(b[20:28]))),
		AdaptTime:     time.Duration(le.Uint64(b[28:36])),
		Samples:       int(le.Uint32(b[36:40])),
		Worlds:        int(le.Uint32(b[40:44])),
	}
	cells := uint64(res.Worlds) * uint64(le.Uint32(b[44:48]))
	nVersions, nRows := uint64(le.Uint32(b[48:52])), uint64(le.Uint32(b[52:56]))
	nCands, nPrune := uint64(le.Uint32(b[56:60])), uint64(le.Uint32(b[60:64]))
	b = b[scatterFixed:]
	if 8*(nVersions+nCands+nPrune)+12*nRows > uint64(len(b)) {
		return nil, errScatterTruncated
	}
	if nRows > 0 && cells > maxScatterBytes/4/nRows {
		return nil, fmt.Errorf("cluster: scatter frame: %d rows of %d states decode past the %d MiB cap", nRows, cells, maxScatterBytes>>20)
	}
	res.Versions = make([]int64, nVersions)
	for i := range res.Versions {
		res.Versions[i], b = int64(le.Uint64(b)), b[8:]
	}
	if nCands > 0 {
		res.CandIDs = make([]int, nCands)
	}
	for i := range res.CandIDs {
		res.CandIDs[i], b = int(int64(le.Uint64(b))), b[8:]
	}
	res.PruneDist = make([]float64, nPrune)
	for i := range res.PruneDist {
		res.PruneDist[i], b = math.Float64frombits(le.Uint64(b)), b[8:]
	}
	res.Rows = make([]shard.ScatterRow, nRows)
	var dict []int32
	for i := range res.Rows {
		if len(b) < 12 {
			return nil, errScatterTruncated
		}
		id, dictLen := int(int64(le.Uint64(b))), uint64(le.Uint32(b[8:]))
		b = b[12:]
		w := uint64(indexWidth(int(dictLen)))
		if 4*dictLen+w*cells > uint64(len(b)) {
			return nil, errScatterTruncated
		}
		dict = slices.Grow(dict[:0], int(dictLen))[:dictLen]
		for k := range dict {
			dict[k], b = int32(le.Uint32(b)), b[4:]
		}
		col := make([]int32, cells)
		var bad bool
		switch w {
		case 1:
			for j, x := range b[:cells] {
				if int(x) >= len(dict) {
					bad = true
					break
				}
				col[j] = dict[x]
			}
		case 2:
			for j := range col {
				x := le.Uint16(b[2*j:])
				if int(x) >= len(dict) {
					bad = true
					break
				}
				col[j] = dict[x]
			}
		default:
			for j := range col {
				x := le.Uint32(b[4*j:])
				if uint64(x) >= dictLen {
					bad = true
					break
				}
				col[j] = dict[x]
			}
		}
		if bad {
			return nil, fmt.Errorf("cluster: scatter frame: row %d indexes past its %d-entry dictionary", id, dictLen)
		}
		b = b[w*cells:]
		res.Rows[i] = shard.ScatterRow{ID: id, States: col}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("cluster: scatter frame: %d bytes after the last row", len(b))
	}
	return res, nil
}
