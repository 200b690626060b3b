package diagnose

import (
	"fmt"
	"math"
	"strings"

	"drbw/internal/pebs"
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

// TimelineAccumulator is the one-pass streaming form of Timeline. Bucket k
// covers [k·w, (k+1)·w) cycles, where the width w = 2^e is the smallest
// power of two (at least 1 cycle) for which (maxT>>e) − (minT>>e) < n.
// Sample times are whole cycles, so a sample's bucket is the integer shift
// t>>e. The geometry grows with the data: when a sample falls outside the
// current window, adjacent buckets fold in pairs (k → k>>1) and w doubles,
// so no global time range is needed before the first sample is counted.
//
// Counts and the latency mass are exact integers, and folding only adds
// them, so the buckets are a function of the sample multiset alone —
// chunking, shard splits, worker count and merge order never show in the
// output. State stays bounded by the bucket count.
type TimelineAccumulator struct {
	n      int
	weight float64
	e      uint  // bucket width exponent: w = 2^e, at most 63
	base   int64 // bucket index of slot 0
	// win holds the buckets [base, base+len); spare is the fold target,
	// swapped in by regrid.
	win, spare timelineWindow
}

// timelineWindow is the exact state of a run of buckets: sample and
// remote-sample counts and the remote latency mass, one slot per bucket.
type timelineWindow struct {
	samples, remote, lat []int64
}

func newTimelineWindow(n int) timelineWindow {
	return timelineWindow{samples: make([]int64, n), remote: make([]int64, n), lat: make([]int64, n)}
}

// addTo folds slot i into slot j of dst.
func (w *timelineWindow) addTo(i int, dst *timelineWindow, j int) {
	dst.samples[j] += w.samples[i]
	dst.remote[j] += w.remote[i]
	dst.lat[j] += w.lat[i]
}

// NewTimelineAccumulator prepares a timeline of at most n buckets. weight
// scales kept samples to true counts; non-positive means 1.
func NewTimelineAccumulator(n int, weight float64) *TimelineAccumulator {
	if weight <= 0 {
		weight = 1
	}
	t := &TimelineAccumulator{n: n, weight: weight}
	if n > 0 {
		// One spare slot when n == 1: a span straddling zero still needs
		// two buckets at the widest width.
		t.win = newTimelineWindow(max(n, 2))
	}
	return t
}

// ObserveRange pre-sizes the bucket geometry for samples spanning
// [minT, maxT] cycles, so a caller that knows the bounds up front skips
// the folds. Pre-sizing never changes the output when the bounds are the
// samples' own; wider bounds can only widen the buckets. n is the number
// of samples the range covers; n ≤ 0, an inverted range or bounds outside
// the int64 cycle range are a no-op.
func (t *TimelineAccumulator) ObserveRange(minT, maxT float64, n int) {
	if n <= 0 || t.n <= 0 || !(minT <= maxT) || !(minT >= math.MinInt64) || !(maxT < math.MaxInt64) {
		return
	}
	t.cover(t.e, int64(math.Floor(minT))>>t.e, int64(math.Floor(maxT))>>t.e)
}

// Add buckets a chunk of samples.
func (t *TimelineAccumulator) Add(samples []pebs.Sample) {
	if t.n <= 0 {
		return
	}
	e, base, n, w := t.e, t.base, uint64(t.n), t.win
	for i := range samples {
		s := &samples[i]
		k := s.Time >> e
		if k < base || uint64(k-base) >= n {
			t.cover(e, k, k)
			e, base, w = t.e, t.base, t.win
			k = s.Time >> e
		}
		j := k - base
		w.samples[j]++
		if s.RemoteDRAM() {
			w.remote[j]++
			w.lat[j] += s.Latency
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

// cover widens the geometry until the window holds both the occupied
// buckets and the bucket indices [kmin, kmax], given at width 2^e: first
// to at least width 2^e, then doubling while the span is n or more. At
// width 2^63 every time lands in bucket -1 or 0, which the window always
// holds, so folding stops there.
func (t *TimelineAccumulator) cover(e uint, kmin, kmax int64) {
	var f uint
	if e > t.e {
		f = e - t.e
	} else {
		kmin, kmax = kmin>>(t.e-e), kmax>>(t.e-e)
	}
	lo, hi, ok := t.occupied()
	if ok {
		kmin = min(kmin, (t.base+int64(lo))>>f)
		kmax = max(kmax, (t.base+int64(hi))>>f)
	}
	// kmax ≥ kmin, so the unsigned difference is the exact span.
	for uint64(kmax-kmin) >= uint64(t.n) && t.e+f < 63 {
		kmin, kmax = kmin>>1, kmax>>1
		f++
	}
	if f == 0 && kmin >= t.base && uint64(kmax-t.base) < uint64(len(t.win.samples)) {
		return // already covered
	}
	// Fold the window by f doublings and rebase it to start at bucket
	// kmin of the new width; every occupied bucket lands inside it.
	if ok {
		if t.spare.samples == nil {
			t.spare = newTimelineWindow(len(t.win.samples))
		}
		for i := lo; i <= hi; i++ {
			if t.win.samples[i] != 0 {
				t.win.addTo(i, &t.spare, int((t.base+int64(i))>>f-kmin))
				t.win.samples[i], t.win.remote[i], t.win.lat[i] = 0, 0, 0
			}
		}
		t.win, t.spare = t.spare, t.win
	}
	t.e += f
	t.base = kmin
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
	t.cover(o.e, o.base+int64(lo), o.base+int64(hi))
	f := t.e - o.e
	for i := lo; i <= hi; i++ {
		if o.win.samples[i] != 0 {
			o.win.addTo(i, &t.win, int((o.base+int64(i))>>f-t.base))
		}
	}
	return nil
}

// Buckets finalizes and returns the timeline: one bucket per index from
// minT>>e to maxT>>e, between n/2 and n of them unless the whole run spans
// fewer than n cycles (nil when no samples were added). Weighted counts
// are count×weight products and the average latency is the exact latency
// mass over the exact count, so finalization is as order-blind as the
// accumulation.
func (t *TimelineAccumulator) Buckets() []Bucket {
	lo, hi, ok := t.occupied()
	if !ok {
		return nil
	}
	out := make([]Bucket, hi-lo+1)
	for i := range out {
		j := lo + i
		k := float64(t.base + int64(j))
		out[i].Start = math.Ldexp(k, int(t.e))
		out[i].End = math.Ldexp(k+1, int(t.e))
		out[i].Samples = float64(t.win.samples[j]) * t.weight
		out[i].RemoteSamples = float64(t.win.remote[j]) * t.weight
		if r := t.win.remote[j]; r > 0 {
			out[i].AvgRemoteLatency = float64(t.win.lat[j]) / float64(r)
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
