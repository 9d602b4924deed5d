package cluster

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"pnn"
	"pnn/internal/shard"
)

// randomScatter draws a scatter result in the form both decoders
// produce (CandIDs nil when empty, every other slice allocated), so a
// round trip can be compared with reflect.DeepEqual. distinct bounds
// the states a column draws from; a wide column spans the whole int32
// range, which takes the encoder's map path.
func randomScatter(rng *rand.Rand, rows, worlds, nT, distinct int, wide bool) *shard.ScatterResult {
	res := &shard.ScatterResult{
		Version:       rng.Int63n(1 << 40),
		Versions:      make([]int64, 1+rng.Intn(3)),
		Samples:       worlds + rng.Intn(100),
		Worlds:        worlds,
		Rows:          make([]shard.ScatterRow, rows),
		PruneDist:     make([]float64, nT),
		SamplerBuilds: rng.Intn(50),
		AdaptTime:     time.Duration(rng.Int63n(int64(time.Second))),
	}
	for i := range res.Versions {
		res.Versions[i] = rng.Int63n(1 << 40)
	}
	for i := range res.PruneDist {
		if res.PruneDist[i] = rng.Float64(); rng.Intn(3) == 0 {
			res.PruneDist[i] = math.Inf(1)
		}
	}
	for i := range res.Rows {
		states := make([]int32, worlds*nT)
		base := rng.Int31n(1 << 20)
		for j := range states {
			switch s := rng.Intn(distinct); {
			case s == 0:
				states[j] = -1
			case wide:
				states[j] = int32(uint32(s) * 2654435761)
			default:
				states[j] = base + int32(s)
			}
		}
		res.Rows[i] = shard.ScatterRow{ID: rng.Intn(1 << 30), States: states}
		if rng.Intn(2) == 0 {
			res.CandIDs = append(res.CandIDs, res.Rows[i].ID)
		}
	}
	return res
}

// viaJSON is the JSON codec's round trip, the reference the frame must
// agree with.
func viaJSON(t testing.TB, res *shard.ScatterResult) *shard.ScatterResult {
	t.Helper()
	raw, err := json.Marshal(ScatterToWire(res))
	if err != nil {
		t.Fatal(err)
	}
	var resp ScatterResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	return ScatterFromWire(&resp)
}

func checkRoundTrip(t *testing.T, res *shard.ScatterResult) []byte {
	t.Helper()
	frame, err := EncodeScatterFrame(res)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeScatterFrame(frame)
	if err != nil {
		t.Fatalf("decoding a %d-byte frame: %v", len(frame), err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatalf("frame round trip changed the result:\n got %+v\nwant %+v", got, res)
	}
	if want := viaJSON(t, res); !reflect.DeepEqual(got, want) {
		t.Fatalf("frame and JSON codecs disagree:\nframe %+v\n json %+v", got, want)
	}
	return frame
}

// TestScatterFrameRoundTrip is the codec's property: any scatter result
// comes back from the frame exactly, and exactly as the JSON codec
// returns it.
func TestScatterFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	t.Run("random", func(t *testing.T) {
		for i := 0; i < 200; i++ {
			res := randomScatter(rng, rng.Intn(6), rng.Intn(40), 1+rng.Intn(12), 1+rng.Intn(400), rng.Intn(4) == 0)
			checkRoundTrip(t, res)
		}
	})
	t.Run("zero rows", func(t *testing.T) {
		res := randomScatter(rng, 0, 100, 6, 5, false)
		if res.CandIDs != nil {
			t.Fatal("generator: candidates without rows")
		}
		checkRoundTrip(t, res)
	})
	t.Run("nT 1", func(t *testing.T) { checkRoundTrip(t, randomScatter(rng, 3, 64, 1, 9, false)) })
	t.Run("zero worlds", func(t *testing.T) { checkRoundTrip(t, randomScatter(rng, 2, 0, 4, 3, false)) })
	t.Run("all dead", func(t *testing.T) {
		res := randomScatter(rng, 2, 50, 6, 1, false)
		for _, s := range res.Rows[1].States {
			if s != -1 {
				t.Fatalf("generator: state %d in an all-dead column", s)
			}
		}
		checkRoundTrip(t, res)
	})
	t.Run("prune dist", func(t *testing.T) {
		res := randomScatter(rng, 1, 8, 3, 4, false)
		res.PruneDist = []float64{math.Inf(1), 0.25, math.Inf(1)}
		checkRoundTrip(t, res)
		res.PruneDist = []float64{0.5, 0.25, 1e-300}
		checkRoundTrip(t, res)
	})
}

// TestScatterFrameIndexWidth crosses both width boundaries: a column's
// indices travel at the narrowest of 1, 2 or 4 bytes its dictionary
// allows, and the frame's size shows it.
func TestScatterFrameIndexWidth(t *testing.T) {
	for _, tc := range []struct{ distinct, width int }{
		{1, 1}, {256, 1}, {257, 2}, {65536, 2}, {65537, 4},
	} {
		cells := tc.distinct + 100
		states := make([]int32, cells)
		for i := range states {
			states[i] = int32(i%tc.distinct) - 1 // -1 included
		}
		res := &shard.ScatterResult{
			Version: 3, Versions: []int64{3}, Samples: cells, Worlds: cells,
			Rows:      []shard.ScatterRow{{ID: 7, States: states}},
			PruneDist: []float64{math.Inf(1)},
		}
		frame := checkRoundTrip(t, res)
		want := scatterFixed + 8*2 + 12 + 4*tc.distinct + tc.width*cells + 4
		if len(frame) != want {
			t.Errorf("%d distinct states: frame is %d bytes, want %d (%d-byte indices)", tc.distinct, len(frame), want, tc.width)
		}
	}
}

// realScatter is a scatter drawn by a real snapshot: six objects
// crossing a grid, queried at its centre over an nT-tic window.
func realScatter(tb testing.TB, worlds, nT int) *shard.ScatterResult {
	tb.Helper()
	net, err := pnn.NewGridNetwork(12, 12)
	if err != nil {
		tb.Fatal(err)
	}
	db := pnn.NewDB(net)
	for i, r := range [][2]pnn.Point{
		{{X: 0.1, Y: 0.1}, {X: 0.9, Y: 0.9}}, {{X: 0.9, Y: 0.1}, {X: 0.1, Y: 0.9}},
		{{X: 0.1, Y: 0.5}, {X: 0.9, Y: 0.5}}, {{X: 0.5, Y: 0.1}, {X: 0.5, Y: 0.9}},
		{{X: 0.2, Y: 0.8}, {X: 0.8, Y: 0.2}}, {{X: 0.3, Y: 0.3}, {X: 0.7, Y: 0.7}},
	} {
		if err := db.Add(100+7*i, net.ObservationsAlong(net.NearestState(r[0]), net.NearestState(r[1]), 0, 2, 4)); err != nil {
			tb.Fatal(err)
		}
	}
	proc, err := db.Build(worlds)
	if err != nil {
		tb.Fatal(err)
	}
	spec, _, err := pnn.NormalizeRequest(pnn.Request{
		Semantics: pnn.Exists, Query: pnn.AtPoint(pnn.Point{X: 0.5, Y: 0.5}),
		Ts: 2, Te: 2 + nT - 1, K: 1, Tau: 0.05, Seed: 42,
	})
	if err != nil {
		tb.Fatal(err)
	}
	res, err := proc.ShardSet().Snapshot().Scatter(spec)
	if err != nil {
		tb.Fatal(err)
	}
	if len(res.Rows) == 0 || res.Worlds != worlds {
		tb.Fatalf("scatter drew %d rows of %d worlds, want some rows of %d", len(res.Rows), res.Worlds, worlds)
	}
	return res
}

// TestScatterFrameRealScatter checks the frame against the JSON codec
// on what a snapshot really draws, and that the narrow columns do buy
// what gzip used to.
func TestScatterFrameRealScatter(t *testing.T) {
	res := realScatter(t, 500, 6)
	frame, err := EncodeScatterFrame(res)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeScatterFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if want := viaJSON(t, res); !reflect.DeepEqual(got, want) {
		t.Fatalf("frame and JSON codecs disagree:\nframe %+v\n json %+v", got, want)
	}
	columns := 0
	for _, r := range res.Rows {
		columns += 4 * len(r.States)
	}
	if len(frame)*3 > columns {
		t.Errorf("frame is %d bytes for %d bytes of columns, want under a third", len(frame), columns)
	}
}

// seal appends the checksum a frame body needs to get past the CRC
// check, so a test can reach the structural checks behind it.
func seal(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body[:len(body):len(body)], crc32.Checksum(body, crcTable))
}

// allocatedBy reports the heap bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestScatterFrameRejectsDamage feeds the decoder truncated, flipped,
// mislabelled and length-lying frames: each is an error, and none makes
// it allocate what the frame claims to hold.
func TestScatterFrameRejectsDamage(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	res := randomScatter(rng, 3, 16, 4, 300, false) // 300 distinct states: some column is two bytes wide
	frame := checkRoundTrip(t, res)
	body := frame[:len(frame)-4]

	mustFail := func(name string, damaged []byte) {
		t.Helper()
		var err error
		if n := allocatedBy(func() { _, err = DecodeScatterFrame(damaged) }); n > 1<<20 {
			t.Errorf("%s: decoder allocated %d bytes on a %d-byte frame", name, n, len(damaged))
		}
		if err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	for n := 0; n < len(frame); n++ {
		mustFail("truncated", frame[:n])
		if n < len(body) {
			mustFail("truncated and resealed", seal(body[:n]))
		}
	}
	for i := range frame {
		flipped := bytes.Clone(frame)
		flipped[i] ^= 1 << (i % 8)
		mustFail("bit flip", flipped)
	}
	mustFail("trailing bytes", seal(append(bytes.Clone(body), 0)))

	// with returns the body with the u32 at off replaced, resealed.
	with := func(off int, v uint32) []byte {
		b := bytes.Clone(body)
		binary.LittleEndian.PutUint32(b[off:], v)
		return seal(b)
	}
	mustFail("wrong magic", seal(append([]byte("PNNSPIL1"), body[8:]...)))
	mustFail("unknown format", with(8, scatterFormat+1))
	mustFail("worlds beyond the body", with(40, 1000))
	mustFail("nT beyond the body", with(44, 1<<30))
	mustFail("worlds x nT beyond the cap", with(40, math.MaxUint32))
	mustFail("versions beyond the body", with(48, math.MaxUint32))
	mustFail("rows beyond the body", with(52, math.MaxUint32))
	mustFail("candidates beyond the body", with(56, math.MaxUint32))
	mustFail("thresholds beyond the body", with(60, math.MaxUint32))
	firstRow := scatterFixed + 8*(len(res.Versions)+len(res.CandIDs)+len(res.PruneDist))
	mustFail("dictionary beyond the body", with(firstRow+8, math.MaxUint32))

	two := &shard.ScatterResult{Versions: []int64{1}, Worlds: 2, PruneDist: []float64{}, Rows: []shard.ScatterRow{{ID: 1, States: []int32{4, 9}}}}
	b := checkRoundTrip(t, two)
	b = bytes.Clone(b[:len(b)-4])
	b[len(b)-1] = 2 // the last state's index, into a dictionary of two
	mustFail("index past the dictionary", seal(b))

	ragged := randomScatter(rng, 2, 8, 3, 4, false)
	ragged.Rows[1].States = ragged.Rows[1].States[:5]
	if _, err := EncodeScatterFrame(ragged); err == nil {
		t.Error("encoded rows of unequal length without error")
	}
}

// FuzzDecodeScatterFrame: no input panics the decoder or makes it
// allocate past what the input could hold, and whatever it accepts
// survives a re-encode. Each input is tried as given and with a valid
// checksum appended, which is what lets the fuzzer past the CRC. The
// seeds are the committed corpus under testdata/fuzz.
func FuzzDecodeScatterFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, frame := range [][]byte{data, seal(data)} {
			res, err := DecodeScatterFrame(frame)
			if err != nil {
				continue
			}
			again, err := EncodeScatterFrame(res)
			if err != nil {
				t.Fatalf("re-encoding an accepted frame: %v", err)
			}
			back, err := DecodeScatterFrame(again)
			if err != nil {
				t.Fatalf("decoding the re-encoded frame: %v", err)
			}
			// NaN thresholds cannot be compared by value.
			for _, r := range []*shard.ScatterResult{res, back} {
				for i, d := range r.PruneDist {
					if d != d {
						r.PruneDist[i] = -1
					}
				}
			}
			if !reflect.DeepEqual(back, res) {
				t.Fatalf("accepted frame does not survive a re-encode:\n got %+v\nwant %+v", back, res)
			}
		}
	})
}

// jsonGzip is what a peer writes for a router that did not ask for the
// frame: ScatterResponse as JSON through gzip's default level.
func jsonGzip(tb testing.TB, res *shard.ScatterResult) []byte {
	tb.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := json.NewEncoder(zw).Encode(ScatterToWire(res)); err != nil {
		tb.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// The four benchmarks below put the two scatter encodings side by side
// on one real scatter (a 10-tic window, 2 000 worlds). Throughput is
// per byte of int32 columns carried; wire_bytes/op is what crosses the
// network.
var benchSink any

func benchColumns(res *shard.ScatterResult) int64 {
	var n int64
	for _, r := range res.Rows {
		n += 4 * int64(len(r.States))
	}
	return n
}

func BenchmarkScatterFrameEncode(b *testing.B) {
	res := realScatter(b, 2000, 10)
	b.SetBytes(benchColumns(res))
	b.ResetTimer()
	var frame []byte
	var err error
	for i := 0; i < b.N; i++ {
		if frame, err = EncodeScatterFrame(res); err != nil {
			b.Fatal(err)
		}
	}
	benchSink = frame
	b.ReportMetric(float64(len(frame)), "wire_bytes/op")
}

func BenchmarkScatterFrameDecode(b *testing.B) {
	res := realScatter(b, 2000, 10)
	frame, err := EncodeScatterFrame(res)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(benchColumns(res))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if benchSink, err = DecodeScatterFrame(frame); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(frame)), "wire_bytes/op")
}

func BenchmarkScatterJSONGzipEncode(b *testing.B) {
	res := realScatter(b, 2000, 10)
	b.SetBytes(benchColumns(res))
	b.ResetTimer()
	var wire []byte
	for i := 0; i < b.N; i++ {
		wire = jsonGzip(b, res)
	}
	benchSink = wire
	b.ReportMetric(float64(len(wire)), "wire_bytes/op")
}

func BenchmarkScatterJSONGzipDecode(b *testing.B) {
	res := realScatter(b, 2000, 10)
	wire := jsonGzip(b, res)
	b.SetBytes(benchColumns(res))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		zr, err := gzip.NewReader(bytes.NewReader(wire))
		if err != nil {
			b.Fatal(err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			b.Fatal(err)
		}
		var resp ScatterResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			b.Fatal(err)
		}
		benchSink = ScatterFromWire(&resp)
	}
	b.ReportMetric(float64(len(wire)), "wire_bytes/op")
}
