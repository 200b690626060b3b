package profiledata

// Micro-benchmark isolating the block-decode kernel: the same in-memory
// blocks through the batched column decoder and through a copy of the
// scalar per-sample decoder it replaced. Running both in one process
// cancels host noise, so the ratio is trustworthy where absolute ns/op on
// a shared machine is not.

import (
	"bytes"
	"testing"

	"drbw/internal/cache"
	"drbw/internal/pebs"
	"drbw/internal/topology"
)

// benchBlocks encodes n samples and returns the per-block payloads with
// their decoder seed entries and level dictionary.
func benchBlocks(b *testing.B, n int) ([][]byte, []IndexEntry, []cache.Level) {
	samples := testTrace(n, 7)
	var buf bytes.Buffer
	if err := WriteSamplesBinary(&buf, samples, 2, BinaryOptions{Index: true}); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	it, err := NewIndexedTrace(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		b.Fatal(err)
	}
	payloads := make([][]byte, it.Blocks())
	entries := make([]IndexEntry, it.Blocks())
	for i := range payloads {
		e := it.Entry(i)
		entries[i] = e
		end := it.idx.DataEnd
		if i+1 < it.Blocks() {
			end = it.Entry(i + 1).Offset
		}
		blk := data[e.Offset:end]
		// Skip the two uvarint block-header fields to reach the payload.
		p := payloadReader{buf: blk}
		if _, err := p.uvarint(); err != nil {
			b.Fatal(err)
		}
		plen, err := p.uvarint()
		if err != nil {
			b.Fatal(err)
		}
		payloads[i] = blk[p.pos : p.pos+int(plen)]
	}
	return payloads, entries, it.levels
}

func BenchmarkBlockDecode(b *testing.B) {
	const n = 1 << 20
	payloads, entries, levels := benchBlocks(b, n)
	out := make([]pebs.Sample, DefaultBlockSize)
	var scratch []uint64
	b.Run("batched", func(b *testing.B) {
		b.SetBytes(int64(n))
		for i := 0; i < b.N; i++ {
			for j, payload := range payloads {
				e := &entries[j]
				d := blockDecoder{prevTime: e.PrevTime, prevAddr: e.PrevAddr, prevLat: e.PrevLat, levels: levels}
				if err := d.decode(payload, out[:e.Count], &scratch); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("scalar", func(b *testing.B) {
		b.SetBytes(int64(n))
		for i := 0; i < b.N; i++ {
			for j, payload := range payloads {
				e := &entries[j]
				d := blockDecoder{prevTime: e.PrevTime, prevAddr: e.PrevAddr, prevLat: e.PrevLat, levels: levels}
				if err := decodeScalar(&d, payload, out[:e.Count]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// decodeScalar is the pre-batching decoder, kept verbatim as the benchmark
// baseline for BenchmarkBlockDecode.
func decodeScalar(d *blockDecoder, payload []byte, out []pebs.Sample) error {
	p := payloadReader{buf: payload}

	prev := d.prevTime
	for i := range out {
		u, err := p.uvarint()
		if err != nil {
			return err
		}
		prev += unzigzag(u)
		out[i].Time = prev
	}
	d.prevTime = prev

	for i := range out {
		u, err := p.uvarint()
		if err != nil {
			return err
		}
		out[i].CPU = topology.CPUID(unzigzag(u))
	}
	for i := range out {
		u, err := p.uvarint()
		if err != nil {
			return err
		}
		out[i].Thread = int(unzigzag(u))
	}
	prevAddr := d.prevAddr
	for i := range out {
		u, err := p.uvarint()
		if err != nil {
			return err
		}
		prevAddr += uint64(unzigzag(u))
		out[i].Addr = prevAddr
	}
	d.prevAddr = prevAddr
	for i := range out {
		b, err := p.byte()
		if err != nil {
			return err
		}
		if int(b) >= len(d.levels) {
			return errCorrupt
		}
		out[i].Level = d.levels[b]
	}

	prev = d.prevLat
	for i := range out {
		u, err := p.uvarint()
		if err != nil {
			return err
		}
		prev += unzigzag(u)
		out[i].Latency = prev
		if !pebs.ValidCycles(out[i].Time, prev) {
			return errCorrupt
		}
	}
	d.prevLat = prev

	for i := range out {
		if i&7 == 0 {
			if _, err := p.byte(); err != nil {
				return err
			}
		}
		out[i].Write = p.buf[p.pos-1]&(1<<(uint(i)&7)) != 0
	}

	for i := range out {
		u, err := p.uvarint()
		if err != nil {
			return err
		}
		out[i].SrcNode = topology.NodeID(unzigzag(u))
	}
	for i := range out {
		u, err := p.uvarint()
		if err != nil {
			return err
		}
		out[i].HomeNode = topology.NodeID(unzigzag(u))
	}
	return nil
}
