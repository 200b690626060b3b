package profiledata

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"drbw/internal/pebs"
)

// FuzzReadSamples drives the autodetecting decoder — CSV v1/v2 and binary
// v4 — with arbitrary bytes. Malformed or truncated input must come back
// as an error, never a panic, and anything that does decode must re-encode
// and decode to the same samples (the decoder accepts nothing it cannot
// represent). A v3 header must always get the re-record error.
func FuzzReadSamples(f *testing.F) {
	samples := testTrace(300, 21)

	var v2 bytes.Buffer
	if err := WriteSamples(&v2, samples, 2.5); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	f.Add(v2.Bytes()[bytes.IndexByte(v2.Bytes(), '\n')+1:]) // v1: no meta row
	f.Add(v2.Bytes()[:v2.Len()/2])                          // truncated CSV

	for _, opt := range []BinaryOptions{{}, {Compress: true}, {BlockSize: 16}, {Index: true}, {BlockSize: 16, Index: true}, {Compress: true, Index: true}} {
		var bin bytes.Buffer
		if err := WriteSamplesBinary(&bin, samples, 2.5, opt); err != nil {
			f.Fatal(err)
		}
		f.Add(bin.Bytes())
		f.Add(bin.Bytes()[:bin.Len()/2]) // truncated binary
		f.Add(bin.Bytes()[:12])          // truncated header
		if opt.Index && !opt.Compress {
			f.Add(bin.Bytes()[:bin.Len()-8])            // truncated index trailer
			f.Add(bin.Bytes()[:bin.Len()-indexTailLen]) // footerless tail
		}
	}
	// Footer seeds: the retired checksum-less layout (legacyV1Footer), and
	// targeted bit flips in the checksum region (damaged sums must read as
	// checksum errors or ErrNoIndex, never as silently different samples).
	{
		var bin bytes.Buffer
		if err := WriteSamplesBinary(&bin, samples, 2.5, BinaryOptions{BlockSize: 16, Index: true}); err != nil {
			f.Fatal(err)
		}
		data := bin.Bytes()
		idx, err := ReadBlockIndex(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(legacyV1Footer(f, data))
		for _, off := range []int{len(data) - indexTailLen - 1, len(data) - indexTailLen - 9, int(idx.DataEnd) + 2} {
			flipped := append([]byte(nil), data...)
			flipped[off] ^= 1
			f.Add(flipped)
		}
		// Lying-footer seeds: structurally valid DRBWIDX2 footers whose
		// MinTime/MaxTime claims disagree with the decoded samples. The
		// entry times are not covered by the block checksums, so these open
		// cleanly here; the analysis upstream must catch the disagreement,
		// and nothing at this layer may panic.
		forge := func(mutate func([]IndexEntry)) {
			entries := append([]IndexEntry(nil), idx.Entries...)
			mutate(entries)
			var forged bytes.Buffer
			forged.Write(data[:idx.DataEnd+1])
			if err := WriteBlockIndex(&forged, entries); err != nil {
				f.Fatal(err)
			}
			f.Add(forged.Bytes())
		}
		forge(func(entries []IndexEntry) { entries[0].MinTime += 1 })
		forge(func(entries []IndexEntry) { entries[len(entries)-1].MaxTime += 1e9 })
		forge(func(entries []IndexEntry) {
			for i := range entries {
				entries[i].MinTime, entries[i].MaxTime = 0, 1
			}
		})
	}
	f.Add([]byte(binaryMagic))
	f.Add([]byte("time,cpu\n1,2\n"))
	f.Add([]byte{})
	// Hostile cycle fields: a v3 header, and CSV rows whose latency or time
	// no int64 cycle field may hold. Each must read as an error.
	for _, seed := range hostileSeeds(f) {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if bytes.HasPrefix(data, []byte(binaryMagicV3)) {
			if _, _, err := ReadSamples(bytes.NewReader(data)); !errors.Is(err, errBinaryV3) {
				t.Fatalf("v3 header read: err = %v, want the re-record error", err)
			}
		}
		// The indexed opener must never panic on arbitrary bytes. A footer
		// forged onto valid blocks may carry wrong seed state — then ranges
		// decode to *different* (but structurally valid) samples or fail —
		// so the only invariants asserted on untrusted input are memory
		// safety and per-entry count agreement.
		if it, err := NewIndexedTrace(bytes.NewReader(data), int64(len(data))); err == nil {
			for b := 0; b < it.Blocks(); b++ {
				rr, err := it.RangeReader(b, b+1, nil)
				if err != nil {
					t.Fatalf("validated index rejected range [%d,%d): %v", b, b+1, err)
				}
				part, err := rr.appendRemaining(nil)
				if err == nil && len(part) != it.Entry(b).Count {
					t.Fatalf("range [%d,%d) decoded %d samples, index claims %d", b, b+1, len(part), it.Entry(b).Count)
				}
			}
		}

		got, weight, err := ReadSamples(bytes.NewReader(data))
		if err != nil {
			return
		}
		if !(weight > 0) {
			t.Fatalf("decoded weight %v is not positive", weight)
		}
		// Round-trip: whatever decoded must survive binary re-encoding
		// bit for bit.
		var buf bytes.Buffer
		if err := WriteSamplesBinary(&buf, got, weight, BinaryOptions{BlockSize: 32}); err != nil {
			t.Fatalf("re-encode of decoded samples failed: %v", err)
		}
		again, w2, err := ReadSamples(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if w2 != weight {
			t.Fatalf("weight changed across round-trip: %v != %v", w2, weight)
		}
		if len(again) != len(got) {
			t.Fatalf("sample count changed across round-trip: %d != %d", len(again), len(got))
		}
		for i := range got {
			if !reflect.DeepEqual(again[i], got[i]) {
				t.Fatalf("sample %d changed across round-trip", i)
			}
		}

		// Indexed round-trip: re-encode with the footer and decode back
		// through block ranges. Our own writer's index is trusted, so here
		// full equivalence holds.
		var ibuf bytes.Buffer
		if err := WriteSamplesBinary(&ibuf, got, weight, BinaryOptions{BlockSize: 32, Index: true}); err != nil {
			t.Fatalf("indexed re-encode failed: %v", err)
		}
		it, err := NewIndexedTrace(bytes.NewReader(ibuf.Bytes()), int64(ibuf.Len()))
		if err != nil {
			t.Fatalf("opening our own indexed encoding failed: %v", err)
		}
		var ranged []pebs.Sample
		for b := 0; b < it.Blocks(); b++ {
			rr, err := it.RangeReader(b, b+1, nil)
			if err != nil {
				t.Fatalf("range [%d,%d): %v", b, b+1, err)
			}
			if ranged, err = rr.appendRemaining(ranged); err != nil {
				t.Fatalf("range [%d,%d): %v", b, b+1, err)
			}
		}
		if len(ranged) != len(got) {
			t.Fatalf("ranged decode yields %d samples, want %d", len(ranged), len(got))
		}
		for i := range got {
			if !reflect.DeepEqual(ranged[i], got[i]) {
				t.Fatalf("sample %d changed across the indexed round-trip", i)
			}
		}
	})
}

// hostileSeeds are recordings whose cycle fields must be refused: a v3
// header in front of a valid v4 body, and CSV rows with a latency of 1e30,
// a negative latency, and NaN and infinite times.
func hostileSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	var v4 bytes.Buffer
	if err := WriteSamplesBinary(&v4, testTrace(20, 5), 1, BinaryOptions{Index: true}); err != nil {
		tb.Fatal(err)
	}
	v3 := append([]byte(binaryMagicV3), v4.Bytes()[len(binaryMagic):]...)
	v3[len(binaryMagicV3)] = 3
	seeds := [][]byte{v3}
	const header = "#drbw-samples,v2,weight,1\ntime,cpu,thread,addr,level,latency,write,src_node,home_node\n"
	for _, row := range []string{
		"10,0,0,0x40,MEM,1e30,false,0,1",
		"10,0,0,0x40,MEM,-3,false,0,1",
		"NaN,0,0,0x40,MEM,300,false,0,1",
		"Inf,0,0,0x40,MEM,300,false,0,1",
		"-Inf,0,0,0x40,MEM,300,false,0,1",
		"1e300,0,0,0x40,MEM,300,false,0,1",
	} {
		seeds = append(seeds, []byte(header+row+"\n"))
	}
	return seeds
}

// TestHostileCycleSeedsRejected pins what FuzzReadSamples seeds with: every
// hostile seed reads as an error, the v3 one as the re-record error.
func TestHostileCycleSeedsRejected(t *testing.T) {
	for i, seed := range hostileSeeds(t) {
		_, _, err := ReadSamples(bytes.NewReader(seed))
		if err == nil {
			t.Errorf("seed %d read without error:\n%s", i, seed)
		}
		if i == 0 && !errors.Is(err, errBinaryV3) {
			t.Errorf("v3 seed: err = %v, want the re-record error", err)
		}
	}
}
