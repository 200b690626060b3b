package diagnose

import (
	"fmt"
	"math"
	"strings"

	"drbw/internal/pebs"
	"drbw/internal/xsum"
)

// Bucket is one time slice of a profiled run.
type Bucket struct {
	Start, End float64 // cycles
	// Samples is the weighted sample count in the slice.
	Samples float64
	// RemoteSamples counts remote-DRAM samples.
	RemoteSamples float64
	// AvgRemoteLatency is the mean latency of the slice's remote samples
	// (0 when there are none).
	AvgRemoteLatency float64
}

// Timeline buckets a run's samples into at most n power-of-two-wide time
// slices — the profiler-style view of *when* remote pressure happened
// (AMG's solve phase lights up while init stays dark). weight scales kept
// samples to true counts. Timeline is the slice form of
// TimelineAccumulator and is defined as exactly that: add, finalize.
func Timeline(samples []pebs.Sample, n int, weight float64) []Bucket {
	acc := NewTimelineAccumulator(n, weight)
	acc.Add(samples)
	return acc.Buckets()
}

// maxWidthExp caps the bucket width at 2^1024 cycles. At that width every
// finite time lands in bucket -1 or 0, so folding always terminates.
const maxWidthExp = 1024

// TimelineAccumulator is the one-pass streaming form of Timeline. Bucket k
// covers [k·w, (k+1)·w), where the width w = 2^e is the smallest power of
// two (at least 1 cycle) for which floor(maxT/w) − floor(minT/w) < n. The
// geometry grows with the data: when a sample falls outside the current
// window, adjacent buckets fold in pairs (k → k>>1) and w doubles, so no
// global time range is needed before the first sample is counted.
//
// Counts are integers and the latency mass is an exact xsum total, and
// folding only adds them, so the buckets are a function of the sample
// multiset alone — chunking, shard splits, worker count and merge order
// never show in the output. State stays bounded by the bucket count.
type TimelineAccumulator struct {
	n      int
	weight float64
	e      int     // bucket width exponent: w = 2^e
	inv    float64 // 2^-e
	base   float64 // bucket index of slot 0; NaN until the first sample
	// win holds the buckets [base, base+len); spare is the fold target,
	// swapped in by regrid.
	win, spare timelineWindow
}

// timelineWindow is the exact state of a run of buckets: sample and
// remote-sample counts and the remote latency mass, one slot per bucket.
type timelineWindow struct {
	samples, remote []int64
	lat             []xsum.Sum
}

func newTimelineWindow(n int) timelineWindow {
	return timelineWindow{samples: make([]int64, n), remote: make([]int64, n), lat: make([]xsum.Sum, n)}
}

// addTo folds slot i into slot j of dst.
func (w *timelineWindow) addTo(i int, dst *timelineWindow, j int) {
	dst.samples[j] += w.samples[i]
	dst.remote[j] += w.remote[i]
	dst.lat[j].Merge(&w.lat[i])
}

// moveTo folds slot i into slot j of dst and empties slot i.
func (w *timelineWindow) moveTo(i int, dst *timelineWindow, j int) {
	if dst.samples[j] == 0 {
		dst.samples[j], dst.remote[j] = w.samples[i], w.remote[i]
		dst.lat[j] = w.lat[i] // moves ownership of the sum's limbs
	} else {
		w.addTo(i, dst, j)
	}
	w.samples[i], w.remote[i], w.lat[i] = 0, 0, xsum.Sum{}
}

// NewTimelineAccumulator prepares a timeline of at most n buckets. weight
// scales kept samples to true counts; non-positive means 1.
func NewTimelineAccumulator(n int, weight float64) *TimelineAccumulator {
	if weight <= 0 {
		weight = 1
	}
	t := &TimelineAccumulator{n: n, weight: weight, inv: 1, base: math.NaN()}
	if n > 0 {
		// One spare slot when n == 1: a span straddling zero still needs
		// two buckets at the widest width.
		t.win = newTimelineWindow(max(n, 2))
	}
	return t
}

// floorDiv returns floor(x·inv) for inv a power of two, exactly. The
// product is exact unless it underflows, and then only its sign matters:
// a tiny negative x that rounds to -0 still belongs to bucket -1.
func floorDiv(x, inv float64) float64 {
	k := math.Floor(x * inv)
	if k == 0 && x < 0 {
		k = -1
	}
	return k
}

// ObserveRange pre-sizes the bucket geometry for samples spanning
// [minT, maxT], so a caller that knows the bounds up front skips the
// folds. Pre-sizing never changes the output when the
// bounds are the samples' own; wider bounds can only widen the buckets.
// n is the number of samples the range covers; n ≤ 0 is a no-op.
func (t *TimelineAccumulator) ObserveRange(minT, maxT float64, n int) {
	if n <= 0 || t.n <= 0 || !(minT <= maxT) || math.IsInf(minT, 0) || math.IsInf(maxT, 0) {
		return
	}
	t.cover(t.e, floorDiv(minT, t.inv), floorDiv(maxT, t.inv))
}

// Add buckets a chunk of samples. Non-finite times have no bucket and are
// skipped; the analysis pipeline rejects them before they get here.
func (t *TimelineAccumulator) Add(samples []pebs.Sample) {
	if t.n <= 0 {
		return
	}
	inv, base, n, w := t.inv, t.base, float64(t.n), t.win
	for i := range samples {
		s := &samples[i]
		rel := floorDiv(s.Time, inv) - base
		if !(rel >= 0 && rel < n) {
			if math.IsNaN(s.Time) || math.IsInf(s.Time, 0) {
				continue
			}
			k := floorDiv(s.Time, inv)
			t.cover(t.e, k, k)
			inv, base, w = t.inv, t.base, t.win
			rel = floorDiv(s.Time, inv) - base
		}
		j := int(rel)
		w.samples[j]++
		if s.RemoteDRAM() {
			w.remote[j]++
			w.lat[j].Add(s.Latency)
		}
	}
}

// occupied returns the first and last slots holding samples.
func (t *TimelineAccumulator) occupied() (lo, hi int, ok bool) {
	lo, hi = -1, -1
	for i, n := range t.win.samples {
		if n != 0 {
			if lo < 0 {
				lo = i
			}
			hi = i
		}
	}
	return lo, hi, lo >= 0
}

// shiftFloor returns floor(k / 2^f) for an integer-valued k.
func shiftFloor(k float64, f int) float64 {
	if f == 0 {
		return k
	}
	return floorDiv(k, math.Ldexp(1, -f))
}

// cover widens the geometry until the window holds both the occupied
// buckets and the bucket indices [kmin, kmax], given at width 2^e: first
// to at least width 2^e, then doubling while the span is n or more.
func (t *TimelineAccumulator) cover(e int, kmin, kmax float64) {
	f := 0
	if e > t.e {
		f = e - t.e
	} else {
		kmin, kmax = shiftFloor(kmin, t.e-e), shiftFloor(kmax, t.e-e)
	}
	if lo, hi, ok := t.occupied(); ok {
		kmin = math.Min(kmin, shiftFloor(t.base+float64(lo), f))
		kmax = math.Max(kmax, shiftFloor(t.base+float64(hi), f))
	}
	for kmax-kmin >= float64(t.n) && t.e+f < maxWidthExp {
		kmin, kmax = math.Floor(kmin/2), math.Floor(kmax/2)
		f++
	}
	if f == 0 && kmin >= t.base && kmax-t.base < float64(len(t.win.samples)) {
		return // already covered
	}
	t.regrid(f, kmin)
}

// regrid folds the window by f doublings and rebases it to start at
// bucket index base (at the new width). Every occupied bucket must land
// inside the new window.
func (t *TimelineAccumulator) regrid(f int, base float64) {
	if lo, hi, ok := t.occupied(); ok {
		if t.spare.samples == nil {
			t.spare = newTimelineWindow(len(t.win.samples))
		}
		for i := lo; i <= hi; i++ {
			if t.win.samples[i] != 0 {
				t.win.moveTo(i, &t.spare, int(shiftFloor(t.base+float64(i), f)-base))
			}
		}
		t.win, t.spare = t.spare, t.win
	}
	t.e += f
	t.inv = math.Ldexp(1, -t.e)
	t.base = base
}

// Merge folds o into t, first aligning both to the wider bucket width.
// The result is exactly what one accumulator fed both sample sets would
// hold. Both must have the same bucket count and weight — anything else is
// a pipeline bug, reported as an error rather than silently misbucketed. o
// is logically unchanged; an o without samples contributes nothing.
func (t *TimelineAccumulator) Merge(o *TimelineAccumulator) error {
	if t.n != o.n || t.weight != o.weight {
		return fmt.Errorf("diagnose: cannot merge timelines with different shape (%d/%d buckets, weight %v/%v)", t.n, o.n, t.weight, o.weight)
	}
	lo, hi, ok := o.occupied()
	if !ok {
		return nil
	}
	t.cover(o.e, o.base+float64(lo), o.base+float64(hi))
	f := t.e - o.e
	for i := lo; i <= hi; i++ {
		if o.win.samples[i] != 0 {
			o.win.addTo(i, &t.win, int(shiftFloor(o.base+float64(i), f)-t.base))
		}
	}
	return nil
}

// Buckets finalizes and returns the timeline: one bucket per index from
// floor(minT/w) to floor(maxT/w), between n/2 and n of them unless the
// whole run spans fewer than n cycles (nil when no samples were added).
// Weighted counts are count×weight products and the average latency is
// the exact latency mass over the exact count, so finalization is as
// order-blind as the accumulation.
func (t *TimelineAccumulator) Buckets() []Bucket {
	lo, hi, ok := t.occupied()
	if !ok {
		return nil
	}
	out := make([]Bucket, hi-lo+1)
	for i := range out {
		j := lo + i
		k := t.base + float64(j)
		out[i].Start = math.Ldexp(k, t.e)
		out[i].End = math.Ldexp(k+1, t.e)
		out[i].Samples = float64(t.win.samples[j]) * t.weight
		out[i].RemoteSamples = float64(t.win.remote[j]) * t.weight
		if r := t.win.remote[j]; r > 0 {
			out[i].AvgRemoteLatency = t.win.lat[j].Value() / float64(r)
		}
	}
	return out
}

// sparkRunes are the eight sparkline levels.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders one rune per bucket, scaled to the peak of the chosen
// metric. Buckets with no remote samples render as spaces.
func Sparkline(buckets []Bucket, metric func(Bucket) float64) string {
	if len(buckets) == 0 {
		return ""
	}
	peak := 0.0
	for _, b := range buckets {
		if v := metric(b); v > peak {
			peak = v
		}
	}
	if peak == 0 {
		return strings.Repeat(" ", len(buckets))
	}
	var sb strings.Builder
	for _, b := range buckets {
		v := metric(b)
		if v <= 0 {
			sb.WriteByte(' ')
			continue
		}
		i := int(v / peak * float64(len(sparkRunes)))
		if i >= len(sparkRunes) {
			i = len(sparkRunes) - 1
		}
		sb.WriteRune(sparkRunes[i])
	}
	return sb.String()
}

// RemoteLatencyMetric selects the per-bucket mean remote latency.
func RemoteLatencyMetric(b Bucket) float64 { return b.AvgRemoteLatency }

// RemoteTrafficMetric selects the per-bucket remote sample count.
func RemoteTrafficMetric(b Bucket) float64 { return b.RemoteSamples }
