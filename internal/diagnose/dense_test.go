package diagnose

import (
	"math/rand"
	"reflect"
	"testing"

	"drbw/internal/alloc"
	"drbw/internal/cache"
	"drbw/internal/pebs"
	"drbw/internal/topology"
)

// slotTable is a minimal SlotAttributor: contiguous fixed-size ranges, one
// slot per object, mirroring how profiledata.Table numbers its ranges.
type slotTable struct {
	base, size uint64
	objects    []alloc.Object
}

func newSlotTable(n int) *slotTable {
	st := &slotTable{base: 0x1000, size: 0x100}
	for i := 0; i < n; i++ {
		st.objects = append(st.objects, alloc.Object{
			ID: alloc.ObjectID(i + 1), Name: "obj", Base: st.base + uint64(i)*st.size, Size: st.size,
		})
	}
	return st
}

func (st *slotTable) LookupSlot(addr uint64) (int, bool) {
	if addr < st.base {
		return 0, false
	}
	slot := int((addr - st.base) / st.size)
	if slot >= len(st.objects) {
		return 0, false
	}
	return slot, true
}

func (st *slotTable) Lookup(addr uint64) (alloc.ObjectID, bool) {
	slot, ok := st.LookupSlot(addr)
	if !ok {
		return alloc.NoObject, false
	}
	return st.objects[slot].ID, true
}

func (st *slotTable) Object(id alloc.ObjectID) alloc.Object { return st.objects[int(id)-1] }
func (st *slotTable) SlotID(slot int) alloc.ObjectID        { return st.objects[slot].ID }
func (st *slotTable) Len() int                              { return len(st.objects) }

// denseTrace builds samples across every channel of a 4-node machine, with
// cache-level folds and unattributed addresses mixed in.
func denseTrace(n int, seed int64) []pebs.Sample {
	rng := rand.New(rand.NewSource(seed))
	levels := []cache.Level{cache.L1, cache.L2, cache.L3, cache.LFB, cache.MEM}
	samples := make([]pebs.Sample, n)
	for i := range samples {
		addr := 0x1000 + uint64(rng.Intn(8*0x100))
		if rng.Intn(5) == 0 {
			addr = 0x10 // below every range: unattributed
		}
		samples[i] = pebs.Sample{
			Time: int64(i), Addr: addr,
			Level:   levels[rng.Intn(len(levels))],
			Latency: int64(100 + rng.Intn(500)),
			SrcNode: topology.NodeID(rng.Intn(4)), HomeNode: topology.NodeID(rng.Intn(4)),
		}
	}
	return samples
}

// TestDenseCFRestrictMatchesDirect pins the single-pass contract: dense
// accumulation over all remote channels, then Restrict to the contended
// set, is bit-identical to a CFAccumulator that knew the contended set up
// front. Contended sets are remote channels only — all the classifier can
// ever flag.
func TestDenseCFRestrictMatchesDirect(t *testing.T) {
	table := newSlotTable(8)
	samples := denseTrace(4000, 3)
	for _, contended := range [][]topology.Channel{
		{{Src: 1, Dst: 0}, {Src: 2, Dst: 0}, {Src: 3, Dst: 0}},
		{{Src: 0, Dst: 3}},
		{{Src: 2, Dst: 1}, {Src: 2, Dst: 1}}, // duplicate collapses
		nil,
	} {
		direct := NewCFAccumulator(table, contended, 2.5)
		direct.Add(samples)
		want := direct.Report()

		dense := NewDenseCF(table, 4, 2.5)
		dense.Add(samples)
		got := dense.Restrict(contended).Report()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("contended %v: restricted dense report differs from direct accumulation\ngot  %+v\nwant %+v", contended, got, want)
		}
	}
}

// TestDenseCFLocalChannelsContributeNothing pins the remote-only contract:
// classification can only flag remote channels, so DenseCF never counts
// local (Src == Dst) traffic and Restrict reports a local channel exactly
// as an accumulator that saw no samples would.
func TestDenseCFLocalChannelsContributeNothing(t *testing.T) {
	table := newSlotTable(8)
	contended := []topology.Channel{{Src: 1, Dst: 1}}
	empty := NewCFAccumulator(table, contended, 2.5)
	want := empty.Report()

	dense := NewDenseCF(table, 4, 2.5)
	dense.Add(denseTrace(4000, 9))
	if got := dense.Restrict(contended).Report(); !reflect.DeepEqual(got, want) {
		t.Fatalf("local channel picked up counts from Restrict\ngot  %+v\nwant %+v", got, want)
	}
}

// TestDenseCFMergeMatchesSerial pins exact mergeability: per-worker dense
// accumulators over a partition merge to the serial accumulator's state.
func TestDenseCFMergeMatchesSerial(t *testing.T) {
	table := newSlotTable(8)
	samples := denseTrace(4000, 5)
	contended := []topology.Channel{{Src: 1, Dst: 0}, {Src: 3, Dst: 1}}

	serial := NewDenseCF(table, 4, 2.5)
	serial.Add(samples)
	want := serial.Restrict(contended).Report()

	merged := NewDenseCF(table, 4, 2.5)
	for start := 0; start < len(samples); start += 777 {
		end := start + 777
		if end > len(samples) {
			end = len(samples)
		}
		part := NewDenseCF(table, 4, 2.5)
		part.Add(samples[start:end])
		if err := merged.Merge(part); err != nil {
			t.Fatal(err)
		}
	}
	if got := merged.Restrict(contended).Report(); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged dense report differs from serial")
	}
}

// TestDenseCFMergeRejectsMismatch pins the shape check.
func TestDenseCFMergeRejectsMismatch(t *testing.T) {
	table := newSlotTable(8)
	a := NewDenseCF(table, 4, 2.5)
	if err := a.Merge(NewDenseCF(table, 2, 2.5)); err == nil {
		t.Fatal("merging accumulators over different machines succeeded")
	}
	if err := a.Merge(NewDenseCF(table, 4, 1)); err == nil {
		t.Fatal("merging accumulators with different weights succeeded")
	}
	if err := a.Merge(NewDenseCF(newSlotTable(3), 4, 2.5)); err == nil {
		t.Fatal("merging accumulators over different tables succeeded")
	}
}
