package profiledata

// Tests for the checksummed footer and the content fingerprints built on
// it: the checksums must pin the payload bytes exactly, and corruption
// must surface as a checksum error on the damaged block only. A footer in
// the retired DRBWIDX1 layout (built here by legacyV1Footer) must read as
// no index at all; footer_v1_test.go checks that end to end.

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// legacyV1Footer rebuilds data with its footer in the retired DRBWIDX1
// layout — the same entries without the per-block checksum, under the old
// magic. Nothing writes that layout any more; this keeps the bytes
// reproducible for the tests that pin how it reads.
func legacyV1Footer(tb testing.TB, data []byte) []byte {
	tb.Helper()
	idx, err := ReadBlockIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		tb.Fatal(err)
	}
	payload := binary.AppendUvarint(nil, uint64(len(idx.Entries)))
	prevOff := int64(0)
	for _, e := range idx.Entries {
		payload = binary.AppendUvarint(payload, uint64(e.Offset-prevOff))
		prevOff = e.Offset
		payload = binary.AppendUvarint(payload, uint64(e.Count))
		payload = binary.AppendUvarint(payload, zigzag(e.PrevTime))
		payload = binary.AppendUvarint(payload, e.PrevAddr)
		payload = binary.AppendUvarint(payload, zigzag(e.PrevLat))
		payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(float64(e.MinTime)))
		payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(float64(e.MaxTime)))
	}
	out := append([]byte(nil), data[:idx.DataEnd+1]...)
	out = append(out, payload...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	return append(out, "DRBWIDX1"...)
}

// TestFooterV2Sums: the written checksums are exactly the CRC-64 of each
// block's payload bytes as they sit in the file.
func TestFooterV2Sums(t *testing.T) {
	samples := testTrace(300, 37)
	var buf bytes.Buffer
	if err := WriteSamplesBinary(&buf, samples, 1, BinaryOptions{BlockSize: 32, Index: true}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	idx, err := ReadBlockIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range idx.Entries {
		p := data[e.Offset:]
		_, n1 := binary.Uvarint(p)
		plen, n2 := binary.Uvarint(p[n1:])
		payload := p[n1+n2 : n1+n2+int(plen)]
		if got := blockChecksum(payload); got != e.Sum {
			t.Fatalf("entry %d: recomputed checksum %#x, footer claims %#x", i, got, e.Sum)
		}
	}
}

// TestBlockChecksumDetectsCorruption: flipping one payload byte makes the
// damaged block's range read fail with a checksum error while every other
// block still reads cleanly.
func TestBlockChecksumDetectsCorruption(t *testing.T) {
	samples := testTrace(400, 41)
	var buf bytes.Buffer
	if err := WriteSamplesBinary(&buf, samples, 1, BinaryOptions{BlockSize: 64, Index: true}); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), buf.Bytes()...)
	idx, err := ReadBlockIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Entries) < 3 {
		t.Fatalf("want >= 3 blocks, got %d", len(idx.Entries))
	}
	victim := 1
	e := idx.Entries[victim]
	_, n1 := binary.Uvarint(data[e.Offset:])
	plen, n2 := binary.Uvarint(data[e.Offset+int64(n1):])
	data[e.Offset+int64(n1+n2)+int64(plen)/2] ^= 0x20

	it, err := NewIndexedTrace(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < it.Blocks(); b++ {
		rr, err := it.RangeReader(b, b+1, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, err = rr.appendRemaining(nil)
		if b == victim {
			if err == nil || !strings.Contains(err.Error(), "checksum") {
				t.Fatalf("block %d: corrupt payload read back as %v, want a checksum error", b, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("undamaged block %d: %v", b, err)
		}
	}
}

// TestFileFingerprintIdentity: the fingerprint is a function of content
// only — stable across identical writes and distinct paths, different the
// moment a sample or a byte changes, and defined for every input kind.
func TestFileFingerprintIdentity(t *testing.T) {
	samples := testTrace(200, 43)
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	var a bytes.Buffer
	if err := WriteSamplesBinary(&a, samples, 1, BinaryOptions{BlockSize: 32, Index: true}); err != nil {
		t.Fatal(err)
	}
	fpOf := func(name string, data []byte) string {
		t.Helper()
		fp, err := FileFingerprint(write(name, data))
		if err != nil {
			t.Fatal(err)
		}
		return fp
	}
	fpA := fpOf("a.bin", a.Bytes())
	if fpB := fpOf("b.bin", a.Bytes()); fpB != fpA {
		t.Fatal("identical content under a different path fingerprints differently")
	}

	changed := testTrace(200, 43)
	changed[100].Latency += 1
	var c bytes.Buffer
	if err := WriteSamplesBinary(&c, changed, 1, BinaryOptions{BlockSize: 32, Index: true}); err != nil {
		t.Fatal(err)
	}
	if fpOf("c.bin", c.Bytes()) == fpA {
		t.Fatal("a changed sample kept the same fingerprint")
	}

	var csv bytes.Buffer
	if err := WriteSamples(&csv, samples, 1); err != nil {
		t.Fatal(err)
	}
	fpCSV := fpOf("d.csv", csv.Bytes())
	if fpCSV == fpA {
		t.Fatal("CSV and indexed-binary encodings fingerprint identically")
	}
	if fpOf("e.csv", append(append([]byte(nil), csv.Bytes()...), '\n')) == fpCSV {
		t.Fatal("an appended byte kept the same full-hash fingerprint")
	}
}
