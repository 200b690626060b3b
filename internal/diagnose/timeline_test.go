package diagnose

import (
	"math"
	"testing"
	"unicode/utf8"

	"drbw/internal/cache"
	"drbw/internal/pebs"
)

func mkSample(t int64, remote bool, lat int64) pebs.Sample {
	s := pebs.Sample{Time: t, Latency: lat, Level: cache.MEM, SrcNode: 1, HomeNode: 1}
	if remote {
		s.HomeNode = 0
	}
	return s
}

func TestTimelineBuckets(t *testing.T) {
	// Remote pressure only in the second half of the run. 128 cycles over 4
	// buckets gives width 32: the smallest power of two for which
	// 127>>e - 0>>e < 4.
	var samples []pebs.Sample
	for i := 0; i < 64; i++ {
		samples = append(samples, mkSample(int64(i), false, 200))
	}
	for i := 64; i < 128; i++ {
		samples = append(samples, mkSample(int64(i), true, 900))
	}
	buckets := Timeline(samples, 4, 1)
	if len(buckets) != 4 {
		t.Fatalf("%d buckets", len(buckets))
	}
	for i, b := range buckets {
		if b.Start != float64(32*i) || b.End != float64(32*(i+1)) {
			t.Errorf("bucket %d spans [%v, %v), want [%d, %d)", i, b.Start, b.End, 32*i, 32*(i+1))
		}
	}
	if buckets[0].RemoteSamples != 0 || buckets[1].RemoteSamples != 0 {
		t.Errorf("first half should have no remote samples: %+v", buckets[:2])
	}
	if buckets[2].RemoteSamples != 32 || buckets[3].RemoteSamples != 32 {
		t.Errorf("second half should be remote: %+v", buckets[2:])
	}
	if buckets[3].AvgRemoteLatency != 900 {
		t.Errorf("remote latency %f, want 900", buckets[3].AvgRemoteLatency)
	}
	var total float64
	for _, b := range buckets {
		total += b.Samples
	}
	if total != 128 {
		t.Errorf("buckets hold %f samples, want 128", total)
	}

	// One cycle past 127 forces the next width: 64-cycle buckets over
	// [0, 192), three of them.
	buckets = Timeline(append(samples, mkSample(128, true, 900)), 4, 1)
	if len(buckets) != 3 || buckets[0].End != 64 || buckets[2].Start != 128 || buckets[2].End != 192 {
		t.Errorf("after one more cycle: %+v", buckets)
	}
}

func TestTimelineWeight(t *testing.T) {
	samples := []pebs.Sample{mkSample(0, true, 500), mkSample(1, true, 500)}
	buckets := Timeline(samples, 1, 10)
	if len(buckets) != 1 || buckets[0].Start != 0 || buckets[0].End != 2 {
		t.Fatalf("one 2-cycle bucket expected: %+v", buckets)
	}
	if buckets[0].Samples != 20 || buckets[0].RemoteSamples != 20 {
		t.Errorf("weighted counts: %+v", buckets[0])
	}
	if buckets[0].AvgRemoteLatency != 500 {
		t.Errorf("latency must not scale with weight: %f", buckets[0].AvgRemoteLatency)
	}
}

func TestTimelineEdgeCases(t *testing.T) {
	if Timeline(nil, 4, 1) != nil {
		t.Error("empty samples should give nil")
	}
	if Timeline([]pebs.Sample{mkSample(5, true, 100)}, 0, 1) != nil {
		t.Error("zero buckets should give nil")
	}
	// Single instant: one 1-cycle bucket around it.
	b := Timeline([]pebs.Sample{mkSample(5, true, 100)}, 3, 1)
	if len(b) != 1 || b[0].Start != 5 || b[0].End != 6 || b[0].Samples != 1 {
		t.Fatalf("single instant: %+v", b)
	}
	// Negative times bucket by floor: [-3, -1] at width 1 is three buckets,
	// and at width 2 -3 lands in [-4, -2).
	b = Timeline([]pebs.Sample{mkSample(-3, true, 100), mkSample(-1, true, 100)}, 4, 1)
	if len(b) != 3 || b[0].Start != -3 || b[2].End != 0 {
		t.Fatalf("negative span: %+v", b)
	}
	b = Timeline([]pebs.Sample{mkSample(-3, true, 100), mkSample(0, true, 100)}, 2, 1)
	if len(b) != 2 || b[0].Start != -4 || b[0].End != 0 || b[1].End != 4 {
		t.Fatalf("negative span at width 4: %+v", b)
	}
	// Times at the ends of the int64 range fit without overflow, in either
	// order (the second sample lies below the first one's window).
	for _, ts := range [][2]int64{{math.MinInt64, math.MaxInt64}, {math.MaxInt64, math.MinInt64}} {
		b = Timeline([]pebs.Sample{mkSample(ts[0], true, 100), mkSample(ts[1], true, 100)}, 2, 1)
		if len(b) != 2 || b[0].Samples != 1 || b[1].Samples != 1 || b[0].Start != -(1<<63) {
			t.Fatalf("full int64 range %v: %+v", ts, b)
		}
	}
	// n = 1 still covers a span that straddles zero at the widest width.
	b = Timeline([]pebs.Sample{mkSample(-1, true, 100), mkSample(1, true, 100)}, 1, 1)
	if len(b) != 2 || b[0].Samples+b[1].Samples != 2 {
		t.Fatalf("n=1 across zero: %+v", b)
	}
}

func TestSparkline(t *testing.T) {
	buckets := []Bucket{
		{AvgRemoteLatency: 0},
		{AvgRemoteLatency: 100, RemoteSamples: 1},
		{AvgRemoteLatency: 800, RemoteSamples: 1},
	}
	s := Sparkline(buckets, RemoteLatencyMetric)
	if utf8.RuneCountInString(s) != 3 {
		t.Fatalf("sparkline %q has %d runes", s, utf8.RuneCountInString(s))
	}
	runes := []rune(s)
	if runes[0] != ' ' {
		t.Errorf("zero bucket rendered %q", runes[0])
	}
	if runes[2] != '█' {
		t.Errorf("peak bucket rendered %q, want full block", runes[2])
	}
	if runes[1] == ' ' || runes[1] == '█' {
		t.Errorf("mid bucket rendered %q", runes[1])
	}
	// All-zero timeline renders spaces, not a panic.
	blank := Sparkline([]Bucket{{}, {}}, RemoteTrafficMetric)
	if blank != "  " {
		t.Errorf("blank sparkline %q", blank)
	}
	if Sparkline(nil, RemoteLatencyMetric) != "" {
		t.Error("empty sparkline should be empty")
	}
}
