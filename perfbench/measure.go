package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"drbw/internal/obs"
)

// engineCounters are the simulator's exact event counts, recorded by
// internal/engine into the default obs registry once per simulation run.
var engineCounters = map[string]string{
	"engine.runs":            "engine.runs",
	"engine.accesses":        "engine.window.accesses",
	"engine.warmup_accesses": "engine.window.warmup_accesses",
	"engine.hits.l1":         "engine.window.hits.l1",
	"engine.hits.l2":         "engine.window.hits.l2",
	"engine.hits.l3":         "engine.window.hits.l3",
	"engine.hits.lfb":        "engine.window.hits.lfb",
	"engine.hits.mem":        "engine.window.hits.mem",
	"engine.samples_emitted": "engine.samples.emitted",
	"engine.epochs":          "engine.integrate.epochs",
}

type counts map[string]int64

func readCounts() counts {
	c := counts{}
	for name, reg := range engineCounters {
		c[name] = obs.Default.Counter(reg).Value()
	}
	return c
}

func (c counts) since(before counts) counts {
	d := counts{}
	for name, v := range c {
		d[name] = v - before[name]
	}
	return d
}

// simulated is the number of simulated accesses (window and warm-up).
func (c counts) simulated() float64 {
	return float64(c["engine.accesses"] + c["engine.warmup_accesses"])
}

// section is one measured stretch of a workload: fn called until the calls
// have taken the budget.
type section struct {
	iters  []float64 // seconds per call
	delta  counts    // simulator counts over the whole section
	peakMB float64   // peak live heap during the first call
	// Traced sections only.
	spans     []*obs.SpanTree
	cpuShare  map[string]float64
	hierBuilt float64 // cache hierarchies built (not recycled)
}

// measure calls fn until the calls have taken budget seconds, at least
// once. after, when non-nil, runs after each call with the share of the
// budget spent so far; its time is not counted. A traced section installs
// the span tracer, takes a CPU profile and counts cache-hierarchy builds
// from the heap profile; an untraced one records nothing beyond the
// always-on counters and the peak live heap of the first call.
func measure(budget float64, traced bool, fn func(), after func(share float64)) (*section, error) {
	s := &section{}
	var prof bytes.Buffer
	var buildsBefore int64
	if traced {
		buildsBefore = hierarchyAllocs()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		obs.StartTracing()
	}
	before := readCounts()
	// Later calls start from a heap the earlier ones grew (retained cache
	// hierarchies, for one), so only the first call's peak is comparable
	// from run to run.
	peak := startHeapPeak()
	for spent := 0.0; len(s.iters) == 0 || spent < budget; {
		start := time.Now()
		fn()
		d := time.Since(start).Seconds()
		s.iters = append(s.iters, d)
		spent += d
		if peak != nil {
			s.peakMB = peak.stop() / (1 << 20)
			peak = nil
		}
		if after != nil {
			after(math.Min(1, spent/budget))
		}
	}
	s.delta = readCounts().since(before)
	if traced {
		tr := obs.StopTracing()
		pprof.StopCPUProfile()
		s.spans = tr.Tree()
		shares, err := cpuShares(prof.Bytes())
		if err != nil {
			return nil, err
		}
		s.cpuShare = shares
		s.hierBuilt = float64(hierarchyAllocs()-buildsBefore) / l3PerHierarchy
	}
	return s, nil
}

// heapPeak tracks the largest live heap any garbage collection saw. A
// finalizer re-armed on every cycle reads /gc/heap/live:bytes after each
// GC, so no cycle is missed the way a polling sampler would miss one.
type heapPeak struct {
	mu      sync.Mutex
	peak    uint64
	stopped bool
}

type gcSentinel struct{ _ *int } // pointerful: never tiny-allocated

func startHeapPeak() *heapPeak {
	h := &heapPeak{}
	runtime.GC() // start from the set-up's settled heap
	h.sample()
	var arm func()
	arm = func() {
		runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) {
			if h.sample() {
				arm()
			}
		})
	}
	arm()
	return h
}

// sample folds the current live-heap reading into the peak; it returns
// false once the tracker is stopped.
func (h *heapPeak) sample() bool {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	h.mu.Lock()
	defer h.mu.Unlock()
	if s[0].Value.Kind() == metrics.KindUint64 && s[0].Value.Uint64() > h.peak {
		h.peak = s[0].Value.Uint64()
	}
	return !h.stopped
}

func (h *heapPeak) stop() float64 {
	h.sample()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stopped = true
	return float64(h.peak)
}

// l3PerHierarchy is the number of L3 way arrays one cache hierarchy of the
// default machine (4 sockets, one L3 each) allocates.
const l3PerHierarchy = 4

// hierarchyAllocs counts the L3 way arrays cache.NewHierarchy has
// allocated so far, from the heap profile. Each array is 2.5 MiB, far
// above the 64 KiB sampling rate, so every one is sampled; recycled
// hierarchies allocate none.
func hierarchyAllocs() int64 {
	runtime.GC()
	runtime.GC() // the profile publishes allocations two cycles late
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+16)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	var total int64
	for _, r := range recs {
		if r.AllocObjects == 0 || r.AllocBytes/r.AllocObjects < 1<<20 {
			continue
		}
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if strings.HasSuffix(f.Function, "internal/cache.newSetAssoc") {
				total += r.AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return total
}

// spanStats aggregates the spans internal/obs recorded in a traced section.
type spanStats struct {
	dur       map[string]float64 // total seconds per span name
	poolSpan  float64            // summed dispatch windows of the worker pool
	caseSpans []float64          // durations of the pool's per-item "case" spans
}

// collectSpans sums span durations by name. The worker pool records each
// item as a "case" child of the span that dispatched it; a dispatch's
// window runs from its first case's start to its last case's end.
func collectSpans(roots []*obs.SpanTree) *spanStats {
	st := &spanStats{dur: map[string]float64{}}
	var walk func(n *obs.SpanTree)
	walk = func(n *obs.SpanTree) {
		st.dur[n.Name] += n.DurationSeconds
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, c := range n.Children {
			if c.Name == "case" {
				st.caseSpans = append(st.caseSpans, c.DurationSeconds)
				lo = math.Min(lo, c.StartSeconds)
				hi = math.Max(hi, c.StartSeconds+c.DurationSeconds)
			}
			walk(c)
		}
		if hi > lo {
			st.poolSpan += hi - lo
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return st
}

// cpuPackages are the simulator packages whose CPU share is reported.
var cpuPackages = []string{"trace", "cache", "engine", "pebs", "memsim"}

// cpuShares attributes every CPU-profile sample to the innermost frame that
// belongs to a drbw package and returns, per simulator package, its share
// of all samples.
func cpuShares(gz []byte) (map[string]float64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	byPkg := map[string]int64{}
	var total int64
	for _, smp := range p.samples {
		total += smp.count
		if pkg := p.innermostPackage(smp.stack, "drbw"); pkg != "" {
			byPkg[pkg] += smp.count
		}
	}
	out := map[string]float64{}
	for _, pkg := range cpuPackages {
		out[pkg] = ratio(float64(byPkg["drbw/internal/"+pkg]), float64(total))
	}
	return out, nil
}
