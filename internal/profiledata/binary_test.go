package profiledata

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"drbw/internal/cache"
	"drbw/internal/pebs"
	"drbw/internal/topology"
)

// testTrace generates n samples shaped like real collector output:
// monotonically increasing cycle times, clustered addresses, latencies in
// whole cycles.
func testTrace(n int, seed int64) []pebs.Sample {
	rng := rand.New(rand.NewSource(seed))
	levels := []cache.Level{cache.L1, cache.L2, cache.L3, cache.LFB, cache.MEM}
	out := make([]pebs.Sample, n)
	var t int64
	for i := range out {
		t += int64(rng.Intn(5000))
		out[i] = pebs.Sample{
			Time:     t,
			CPU:      topology.CPUID(rng.Intn(64)),
			Thread:   rng.Intn(32),
			Addr:     0x10000000 + uint64(rng.Intn(1<<26)),
			Level:    levels[rng.Intn(len(levels))],
			Latency:  int64(rng.Intn(600)),
			Write:    rng.Intn(3) == 0,
			SrcNode:  topology.NodeID(rng.Intn(4)),
			HomeNode: topology.NodeID(rng.Intn(4)),
		}
	}
	return out
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 3, 9, 8192, 20000} {
		for _, compress := range []bool{false, true} {
			for _, blockSize := range []int{0, 1, 7, 4096} {
				samples := testTrace(n, int64(n)+1)
				if n > 4 {
					// The widest deltas the ranges allow, mid-trace.
					samples[2].Time = pebs.MaxTime
					samples[3].Latency = pebs.MaxLatency - 1
					samples[4].Time = -pebs.MaxTime
				}
				var buf bytes.Buffer
				opt := BinaryOptions{BlockSize: blockSize, Compress: compress}
				if err := WriteSamplesBinary(&buf, samples, 3.25, opt); err != nil {
					t.Fatalf("write n=%d compress=%v block=%d: %v", n, compress, blockSize, err)
				}
				got, weight, err := ReadSamples(&buf)
				if err != nil {
					t.Fatalf("read n=%d compress=%v block=%d: %v", n, compress, blockSize, err)
				}
				if weight != 3.25 {
					t.Fatalf("weight = %v, want 3.25", weight)
				}
				if len(got) != len(samples) {
					t.Fatalf("n=%d: decoded %d samples", n, len(got))
				}
				for i := range samples {
					if !reflect.DeepEqual(samples[i], got[i]) {
						t.Fatalf("n=%d compress=%v block=%d sample %d:\n got %+v\nwant %+v",
							n, compress, blockSize, i, got[i], samples[i])
					}
				}
			}
		}
	}
}

// TestBinaryRejectsOutOfRangeCycles: the writer refuses a sample the
// reader would refuse, so every file it writes reads back.
func TestBinaryRejectsOutOfRangeCycles(t *testing.T) {
	for name, mutate := range map[string]func(*pebs.Sample){
		"negative latency": func(s *pebs.Sample) { s.Latency = -1 },
		"latency 2^32":     func(s *pebs.Sample) { s.Latency = pebs.MaxLatency },
		"time above 2^53":  func(s *pebs.Sample) { s.Time = pebs.MaxTime + 1 },
		"time below -2^53": func(s *pebs.Sample) { s.Time = -pebs.MaxTime - 1 },
		"time at MinInt64": func(s *pebs.Sample) { s.Time = math.MinInt64 },
		"latency MaxInt64": func(s *pebs.Sample) { s.Latency = math.MaxInt64 },
	} {
		samples := testTrace(3, 7)
		mutate(&samples[1])
		if err := WriteSamplesBinary(io.Discard, samples, 1, BinaryOptions{Index: true}); err == nil {
			t.Errorf("%s: written without error", name)
		}
	}
}

// TestBinaryV3RecordingAsksForReRecord: the retired v3 format is
// recognized by its magic and refused with a reason, through both the
// streaming and the indexed opener.
func TestBinaryV3RecordingAsksForReRecord(t *testing.T) {
	var v4 bytes.Buffer
	if err := WriteSamplesBinary(&v4, testTrace(50, 3), 2, BinaryOptions{Index: true}); err != nil {
		t.Fatal(err)
	}
	v3 := append([]byte(binaryMagicV3), v4.Bytes()[len(binaryMagic):]...)
	v3[len(binaryMagicV3)] = 3 // version byte
	_, _, err := ReadSamples(bytes.NewReader(v3))
	if err == nil || !strings.Contains(err.Error(), "older drbw; re-record") {
		t.Fatalf("v3 read: err = %v, want the re-record error", err)
	}
	if _, err := NewIndexedTrace(bytes.NewReader(v3), int64(len(v3))); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("v3 indexed open: err = %v, want ErrNoIndex", err)
	}
}

func TestBinaryWeightClampedToOne(t *testing.T) {
	for _, w := range []float64{0, -3, math.Inf(-1)} {
		var buf bytes.Buffer
		if err := WriteSamplesBinary(&buf, testTrace(5, 1), w, BinaryOptions{}); err != nil {
			t.Fatal(err)
		}
		_, weight, err := ReadSamples(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if weight != 1 {
			t.Fatalf("weight %v written as %v, want 1", w, weight)
		}
	}
}

// TestBinaryCSVEquivalence is the cross-format property: any sample list
// the CSV writer can represent round-trips identically through both
// formats — same samples, same weight.
func TestBinaryCSVEquivalence(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		samples := testTrace(997, seed)
		const weight = 16.5

		var csvBuf, binBuf bytes.Buffer
		if err := WriteSamples(&csvBuf, samples, weight); err != nil {
			t.Fatal(err)
		}
		if err := WriteSamplesBinary(&binBuf, samples, weight, BinaryOptions{}); err != nil {
			t.Fatal(err)
		}

		fromCSV, wc, err := ReadSamples(&csvBuf)
		if err != nil {
			t.Fatalf("csv read: %v", err)
		}
		fromBin, wb, err := ReadSamples(&binBuf)
		if err != nil {
			t.Fatalf("binary read: %v", err)
		}
		if wc != weight || wb != weight {
			t.Fatalf("weights: csv %v, binary %v, want %v", wc, wb, weight)
		}
		if !reflect.DeepEqual(fromCSV, fromBin) {
			t.Fatalf("seed %d: csv and binary decode differently", seed)
		}
		if !reflect.DeepEqual(fromBin, samples) {
			t.Fatalf("seed %d: binary decode differs from the original", seed)
		}
	}
}

// TestBinarySmallerThanCSV pins the acceptance bound: the columnar file is
// at least 2x smaller than the CSV on a realistic trace, and flate shrinks
// it further.
func TestBinarySmallerThanCSV(t *testing.T) {
	samples := testTrace(50000, 42)
	var csvBuf, binBuf, flateBuf bytes.Buffer
	if err := WriteSamples(&csvBuf, samples, 2); err != nil {
		t.Fatal(err)
	}
	if err := WriteSamplesBinary(&binBuf, samples, 2, BinaryOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := WriteSamplesBinary(&flateBuf, samples, 2, BinaryOptions{Compress: true}); err != nil {
		t.Fatal(err)
	}
	if binBuf.Len()*2 > csvBuf.Len() {
		t.Fatalf("binary %d bytes vs csv %d bytes: less than 2x smaller", binBuf.Len(), csvBuf.Len())
	}
	if flateBuf.Len() >= binBuf.Len() {
		t.Fatalf("flate %d bytes >= uncompressed binary %d bytes", flateBuf.Len(), binBuf.Len())
	}
}

func TestSampleReaderFormats(t *testing.T) {
	samples := testTrace(10, 3)
	var v2, bin bytes.Buffer
	if err := WriteSamples(&v2, samples, 2); err != nil {
		t.Fatal(err)
	}
	if err := WriteSamplesBinary(&bin, samples, 2, BinaryOptions{}); err != nil {
		t.Fatal(err)
	}
	v1 := strings.SplitN(v2.String(), "\n", 2)[1] // drop the meta row

	cases := []struct {
		name, format string
		data         string
		weight       float64
	}{
		{"v1", FormatCSVv1, v1, 1},
		{"v2", FormatCSVv2, v2.String(), 2},
		{"binary", FormatBinaryV4, bin.String(), 2},
	}
	for _, tc := range cases {
		sr, err := NewSampleReader(strings.NewReader(tc.data))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if sr.Format() != tc.format {
			t.Errorf("%s: format %q, want %q", tc.name, sr.Format(), tc.format)
		}
		if sr.Weight() != tc.weight {
			t.Errorf("%s: weight %v, want %v", tc.name, sr.Weight(), tc.weight)
		}
		var total int
		for {
			block, err := sr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			total += len(block)
		}
		if total != len(samples) {
			t.Errorf("%s: streamed %d samples, want %d", tc.name, total, len(samples))
		}
	}
}

// binaryWithBlockHeader builds a valid header followed by a hand-written
// block header, the payload and the zero-count terminator, for decoder
// hardening tests.
func binaryWithBlockHeader(count, payloadLen uint64, payload []byte) []byte {
	var buf bytes.Buffer
	WriteSamplesBinary(&buf, nil, 1, BinaryOptions{}) // header + terminator
	data := buf.Bytes()
	data = data[:len(data)-1] // drop the zero-count terminator
	var v8 [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(v8[:], count)
	data = append(data, v8[:n]...)
	n = binary.PutUvarint(v8[:], payloadLen)
	data = append(data, v8[:n]...)
	return append(append(data, payload...), 0)
}

func TestBinaryReadErrors(t *testing.T) {
	var valid bytes.Buffer
	if err := WriteSamplesBinary(&valid, testTrace(100, 9), 2, BinaryOptions{}); err != nil {
		t.Fatal(err)
	}
	vb := valid.Bytes()

	cases := map[string][]byte{
		"magic only":           []byte(binaryMagic),
		"bad version":          append([]byte(binaryMagic), 9),
		"unknown flags":        append([]byte(binaryMagic), binaryVersion, 0xfe),
		"truncated weight":     append([]byte(binaryMagic), binaryVersion, 0, 1, 2, 3),
		"zero weight":          append([]byte(binaryMagic), binaryVersion, 0, 0, 0, 0, 0, 0, 0, 0, 0),
		"empty dictionary":     binaryHeaderWithDict(nil),
		"unknown level name":   binaryHeaderWithDict([]string{"L9"}),
		"truncated dictionary": append(binaryHeaderWithDict(nil)[:len(binaryMagic)+11], 2, 2, 'L'),
		"missing terminator":   vb[:len(vb)-1],
		"lying sample count":   lyingCount(vb),
		"truncated block":      vb[:len(vb)/2],
		"trailing payload byte": binaryWithBlockHeader(1, 10,
			[]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}),
		"level outside dictionary": binaryWithBlockHeader(1, 9,
			[]byte{0, 0, 0, 0, 99, 0, 0, 0, 0}),
		"v3 header":           append([]byte(binaryMagicV3), 3, 0),
		"count over limit":    binaryWithBlockHeader(maxBlockSamples+1, 8*(maxBlockSamples+1), nil),
		"payload implausible": binaryWithBlockHeader(8, 3, []byte{1, 2, 3}),
		"payload oversized":   binaryWithBlockHeader(1, maxSampleEncoded*2+32, nil),
	}
	for name, data := range cases {
		if _, _, err := ReadSamples(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}

	// Cycle fields out of range: the block is otherwise well formed, as the
	// in-range control shows.
	if got, _, err := ReadSamples(bytes.NewReader(binaryWithBlockHeader(1, 9, cyclePayload(0, 0)))); err != nil || len(got) != 1 {
		t.Fatalf("in-range hand-written block: %d samples, %v", len(got), err)
	}
	for name, data := range map[string][]byte{
		// zigzag 1 is a delta of -1 from the zero seed.
		"negative latency": binaryWithBlockHeader(1, 9, cyclePayload(0, 1)),
		"latency 2^32":     binaryWithBlockHeader(1, 13, cyclePayload(0, 1<<33)),
		"time past 2^53":   binaryWithBlockHeader(1, 16, cyclePayload(1<<55, 0)),
		"time below -2^53": binaryWithBlockHeader(1, 16, cyclePayload(1<<54+3, 0)),
	} {
		if _, _, err := ReadSamples(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "outside the cycle ranges") {
			t.Errorf("%s: err = %v, want the cycle-range error", name, err)
		}
	}
}

// cyclePayload is a one-sample block payload whose time and latency
// columns hold the given zigzag varints and every other column zero.
func cyclePayload(timeZigzag, latZigzag uint64) []byte {
	p := binary.AppendUvarint(nil, timeZigzag)
	p = append(p, 0, 0, 0, 0) // cpu, thread, addr, level
	p = binary.AppendUvarint(p, latZigzag)
	return append(p, 0, 0, 0) // write, src, home
}

// lyingCount rewrites a valid 100-sample file's header count hint to 99,
// which the reader must reject at the terminator.
func lyingCount(valid []byte) []byte {
	data := append([]byte(nil), valid...)
	off := len(binaryMagic) + 1 + 1 + 8 // version, flags, weight
	if data[off] != 100 {
		panic("lyingCount: expected a one-byte count of 100")
	}
	data[off] = 99
	return data
}

// binaryHeaderWithDict builds magic+version+flags+weight+count plus an
// arbitrary level dictionary.
func binaryHeaderWithDict(names []string) []byte {
	data := append([]byte(binaryMagic), binaryVersion, 0)
	var f8 [8]byte
	binary.LittleEndian.PutUint64(f8[:], math.Float64bits(1))
	data = append(data, f8[:]...)
	data = append(data, 0) // sample-count hint: unknown
	data = append(data, byte(len(names)))
	for _, n := range names {
		data = append(data, byte(len(n)))
		data = append(data, n...)
	}
	return data
}

// TestBinaryTruncationNeverOverAllocates feeds every prefix of a valid
// file to the reader: all must fail cleanly (or succeed, for the full
// file) without panicking, and a truncated prefix must never decode more
// samples than the bytes it contains can plausibly hold.
func TestBinaryTruncationNeverOverAllocates(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSamplesBinary(&buf, testTrace(500, 11), 2, BinaryOptions{BlockSize: 64}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for cut := 0; cut < len(data); cut++ {
		samples, _, err := ReadSamples(bytes.NewReader(data[:cut]))
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes read without error", cut, len(data))
		}
		if len(samples) != 0 {
			t.Fatalf("prefix of %d bytes returned %d samples alongside the error", cut, len(samples))
		}
	}
}

// TestSampleReaderBoundedAllocs pins the streaming property: re-reading a
// multi-block trace through shared Buffers costs a small constant number
// of allocations — the per-block sample and payload buffers are reused, so
// decode memory is bounded by the block size, not the trace.
func TestSampleReaderBoundedAllocs(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSamplesBinary(&buf, testTrace(32*1024, 13), 2, BinaryOptions{BlockSize: 1024}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	bufs := &Buffers{}
	drain := func() {
		sr, err := NewSampleReaderBuffers(bytes.NewReader(data), bufs)
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := sr.Next(); err == io.EOF {
				return
			} else if err != nil {
				t.Fatal(err)
			}
		}
	}
	drain() // warm the shared buffers
	allocs := testing.AllocsPerRun(5, drain)
	if allocs > 16 {
		t.Fatalf("streaming a 32-block trace with warm buffers cost %.0f allocs, want <= 16", allocs)
	}
}
