package diagnose

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"drbw/internal/pebs"
)

// TestTimelineAddClampsBelowRange is the regression test for the negative
// bucket index panic: a sample earlier than anything the accumulator has
// seen (a shard merged out of order) used to index buckets[-something].
// The window now folds to cover it, so the stray sample is counted in the
// first bucket and nothing is lost.
func TestTimelineAddClampsBelowRange(t *testing.T) {
	acc := NewTimelineAccumulator(4, 1)
	observed := []pebs.Sample{mkSample(10, true, 100), mkSample(20, true, 100)}
	acc.Add(observed)
	// Time 5 < every time seen so far.
	stray := []pebs.Sample{mkSample(5, true, 700)}
	acc.Add(stray)
	b := acc.Buckets()
	if len(b) == 0 || len(b) > 4 {
		t.Fatalf("%d buckets, want 1..4", len(b))
	}
	if !(b[0].Start <= 5 && 5 < b[0].End) || b[0].Samples < 1 {
		t.Errorf("first bucket [%v, %v) holds %v samples, want the stray at 5 inside it", b[0].Start, b[0].End, b[0].Samples)
	}
	var total float64
	for _, x := range b {
		total += x.Samples
	}
	if total != 3 {
		t.Errorf("timeline holds %v samples, want all 3", total)
	}

	// The slice form gives the same buckets.
	all := append(append([]pebs.Sample{}, observed...), stray...)
	if got := Timeline(all, 4, 1); !reflect.DeepEqual(got, b) {
		t.Errorf("Timeline = %+v, want %+v", got, b)
	}
}

// TestTimelineForkMergeMatchesSerial is the shard contract for the
// timeline: per-worker accumulators fed arbitrary contiguous chunks and
// merged in arbitrary order are bit-identical to the serial accumulator.
func TestTimelineForkMergeMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	samples := make([]pebs.Sample, 3000)
	for i := range samples {
		samples[i] = mkSample(int64(i), rng.Intn(3) > 0, int64(100+rng.Intn(1400)))
	}
	const n, weight = 32, 2.5
	want := Timeline(samples, n, weight)

	for trial := 0; trial < 10; trial++ {
		// Split into arbitrary contiguous parts.
		nparts := 1 + rng.Intn(5)
		var parts [][]pebs.Sample
		start := 0
		for i := 0; i < nparts; i++ {
			end := len(samples)
			if i < nparts-1 {
				end = start + rng.Intn(len(samples)-start+1)
			}
			parts = append(parts, samples[start:end])
			start = end
		}

		parent := NewTimelineAccumulator(n, weight)
		for _, p := range rng.Perm(nparts) {
			w := NewTimelineAccumulator(n, weight)
			w.Add(parts[p])
			if err := parent.Merge(w); err != nil {
				t.Fatal(err)
			}
		}
		if got := parent.Buckets(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: sharded timeline differs from serial", trial)
		}
	}
}

// TestTimelineMergeRejectsMismatch: shape mismatches error out instead of
// misbucketing.
func TestTimelineMergeRejectsMismatch(t *testing.T) {
	a := NewTimelineAccumulator(8, 1)
	if err := a.Merge(NewTimelineAccumulator(4, 1)); err == nil {
		t.Error("bucket count mismatch accepted")
	}
	if err := a.Merge(NewTimelineAccumulator(8, 2)); err == nil {
		t.Error("weight mismatch accepted")
	}
	b := NewTimelineAccumulator(8, 1)
	b.Add([]pebs.Sample{mkSample(1, true, 100)})
	if err := a.Merge(b); err != nil {
		t.Errorf("same-shape merge failed: %v", err)
	}
}

// mergeTree accumulates each part alone, then merges the parts pairwise in
// a random tree.
func mergeTree(t *testing.T, rng *rand.Rand, parts [][]pebs.Sample, n int, weight float64) *TimelineAccumulator {
	t.Helper()
	accs := make([]*TimelineAccumulator, len(parts))
	for i, p := range parts {
		accs[i] = NewTimelineAccumulator(n, weight)
		accs[i].Add(p)
	}
	for len(accs) > 1 {
		i := rng.Intn(len(accs))
		j := rng.Intn(len(accs) - 1)
		if j >= i {
			j++
		}
		if err := accs[i].Merge(accs[j]); err != nil {
			t.Fatal(err)
		}
		accs[j] = accs[len(accs)-1]
		accs = accs[:len(accs)-1]
	}
	return accs[0]
}

// randomParts splits samples into 1..8 random, possibly empty, parts after
// shuffling them.
func randomParts(rng *rand.Rand, samples []pebs.Sample) [][]pebs.Sample {
	shuffled := append([]pebs.Sample(nil), samples...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	parts := make([][]pebs.Sample, 1+rng.Intn(8))
	for _, s := range shuffled {
		p := rng.Intn(len(parts))
		parts[p] = append(parts[p], s)
	}
	return parts
}

// TestTimelineMergeProperty is the one-pass timeline's contract. For
// random sample sets over spans from a few cycles to the whole int64 range:
//   - any chunking merged through any merge tree gives identical buckets;
//   - there are at most n buckets, and at least n/2 unless the buckets are
//     one cycle wide;
//   - every sample lies inside the bucket that counts it, and the total
//     mass is the sample count times the weight;
//   - the geometry depends only on the minimum and maximum times.
func TestTimelineMergeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const weight = 2.5
	spans := []struct{ origin, span int64 }{
		{0, 5}, {0, 1000}, {1e9, 3e6}, {-5e5, 1e6}, {-8, 3}, {1 << 62, 1 << 60}, {-1 << 62, math.MaxInt64},
	}
	for trial := 0; trial < 200; trial++ {
		sp := spans[trial%len(spans)]
		n := []int{2, 3, 4, 7, 32}[rng.Intn(5)]
		samples := make([]pebs.Sample, 1+rng.Intn(400))
		for i := range samples {
			samples[i] = mkSample(sp.origin+rng.Int63n(sp.span), rng.Intn(2) == 0, int64(100+rng.Intn(1000)))
		}
		want := Timeline(samples, n, weight)

		for k := 0; k < 4; k++ {
			got := mergeTree(t, rng, randomParts(rng, samples), n, weight).Buckets()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: merged timeline differs from one accumulator\n got %+v\nwant %+v", trial, got, want)
			}
		}

		if len(want) > n || (want[0].End-want[0].Start != 1 && 2*len(want) < n) {
			t.Fatalf("trial %d: %d buckets of width %v for n=%d", trial, len(want), want[0].End-want[0].Start, n)
		}
		var mass float64
		for _, b := range want {
			mass += b.Samples
		}
		if mass != float64(len(samples))*weight {
			t.Fatalf("trial %d: mass %v, want %v", trial, mass, float64(len(samples))*weight)
		}
		if sp.origin < 1e12 && sp.origin > -1e12 {
			counts := make([]float64, len(want))
			for _, s := range samples {
				for i, b := range want {
					if t := float64(s.Time); t >= b.Start && t < b.End {
						counts[i] += weight
					}
				}
			}
			for i, b := range want {
				if counts[i] != b.Samples {
					t.Fatalf("trial %d: bucket %d [%v, %v) holds %v samples by its edges, reports %v", trial, i, b.Start, b.End, counts[i], b.Samples)
				}
			}
		}

		// Same extremes, different interior: same edges.
		minS, maxS := samples[0], samples[0]
		for _, s := range samples {
			if s.Time < minS.Time {
				minS = s
			}
			if s.Time > maxS.Time {
				maxS = s
			}
		}
		other := []pebs.Sample{maxS, minS}
		// The unsigned difference is the exact span, even past MaxInt64.
		if d := uint64(maxS.Time - minS.Time); d > 0 {
			for i := 0; i < rng.Intn(50); i++ {
				other = append(other, mkSample(minS.Time+int64(rng.Uint64()%d), true, 300))
			}
		}
		got := Timeline(other, n, weight)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d buckets from the same extremes, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i].Start != want[i].Start || got[i].End != want[i].End {
				t.Fatalf("trial %d: bucket %d edges differ for the same extremes", trial, i)
			}
		}
	}
}

// FuzzTimelineMerge: arbitrary int64 times, the extremes included, split
// into arbitrary chunks and merged in arbitrary order give the same buckets
// as a single accumulator, and every sample is counted.
func FuzzTimelineMerge(f *testing.F) {
	times := func(ts ...int64) []byte {
		var b []byte
		for _, t := range ts {
			b = binary.LittleEndian.AppendUint64(b, uint64(t))
		}
		return b
	}
	f.Add(times(0, 1, 2, 100, 1e9), int64(1), uint8(32))
	f.Add(times(-1<<62, 1<<62, 5, -1, 1), int64(2), uint8(4))
	f.Add(times(math.MinInt64, math.MaxInt64, 3, math.MinInt64+1, math.MaxInt64-1), int64(3), uint8(1))
	f.Add(times(1e15, 1e15+1, 1e15+4096, 0), int64(4), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, seed int64, nb uint8) {
		n := int(nb%64) + 1
		var samples []pebs.Sample
		for i := 0; i+8 <= len(data) && len(samples) < 1024; i += 8 {
			ts := int64(binary.LittleEndian.Uint64(data[i:]))
			samples = append(samples, mkSample(ts, i%16 == 0, int64(i)))
		}
		want := Timeline(samples, n, 1)
		rng := rand.New(rand.NewSource(seed))
		got := mergeTree(t, rng, randomParts(rng, samples), n, 1).Buckets()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("merged timeline differs from one accumulator\n got %+v\nwant %+v", got, want)
		}
		var mass float64
		for _, b := range want {
			mass += b.Samples
		}
		if mass != float64(len(samples)) || len(want) > max(n, 2) {
			t.Fatalf("%d buckets hold %v samples, want at most %d buckets holding %d", len(want), mass, max(n, 2), len(samples))
		}
	})
}
