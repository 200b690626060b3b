package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"drbw"
)

// benchCase is one simulated case: a built-in benchmark and its Tt-Nn
// configuration.
type benchCase struct {
	bench string
	c     drbw.Case
}

// recording is one simulator recording written in every encoding the
// analysis routes read.
type recording struct {
	benchCase
	bin, csv, objects string
	shards            []string // the binary recording split 2 ways
	samples           int
	minT, maxT        float64
}

// corpus is a set of recordings made during set-up.
type corpus struct {
	recs               []recording
	samples            int
	binBytes, csvBytes int64
	shardBytes         int64
}

// recordCorpus simulates every case with tool and writes each recording as
// CSV (drbw-profile's default), as indexed binary, and as two binary
// shards sharing one objects table.
func recordCorpus(tool *drbw.Tool, cases []benchCase, dir string) (*corpus, error) {
	c := &corpus{}
	for i, bc := range cases {
		td, err := tool.Record(bc.bench, bc.c)
		if err != nil {
			return nil, fmt.Errorf("record %s: %w", bc.bench, err)
		}
		if len(td.Samples) < 2 {
			return nil, fmt.Errorf("record %s: %d samples", bc.bench, len(td.Samples))
		}
		base := filepath.Join(dir, fmt.Sprintf("%02d-%s", i, bc.bench))
		r := recording{
			benchCase: bc,
			bin:       base + ".samples.bin",
			csv:       base + ".samples.csv",
			objects:   base + ".objects.csv",
			samples:   len(td.Samples),
			minT:      math.Inf(1),
			maxT:      math.Inf(-1),
		}
		for _, s := range td.Samples {
			r.minT = math.Min(r.minT, s.Time)
			r.maxT = math.Max(r.maxT, s.Time)
		}
		if err := td.SaveAs(r.bin, r.objects, drbw.FormatBinary); err != nil {
			return nil, err
		}
		if err := td.SaveAs(r.csv, r.objects, drbw.FormatCSV); err != nil {
			return nil, err
		}
		half := len(td.Samples) / 2
		for k, part := range [][]drbw.SampleRecord{td.Samples[:half], td.Samples[half:]} {
			shard := fmt.Sprintf("%s.samples.%d.bin", base, k)
			sub := &drbw.TraceData{Samples: part, Objects: td.Objects, Weight: td.Weight}
			if err := sub.SaveAs(shard, r.objects, drbw.FormatBinary); err != nil {
				return nil, err
			}
			r.shards = append(r.shards, shard)
			c.shardBytes += fileSize(shard)
		}
		c.recs = append(c.recs, r)
		c.samples += r.samples
		c.binBytes += fileSize(r.bin)
		c.csvBytes += fileSize(r.csv)
	}
	return c, nil
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// The four analysis routes. binary and shards take the fused single sweep
// over an indexed recording; csv and range take the two-pass path.
var routes = []string{"binary", "csv", "range", "shards"}

// analyze runs one route over r. The range route covers the middle half of
// the recording's time window unless full is set.
func (r *recording) analyze(tool *drbw.Tool, route string, full bool) (*drbw.Report, error) {
	switch route {
	case "binary":
		return tool.AnalyzeTraceFile(r.bin, r.objects)
	case "csv":
		return tool.AnalyzeTraceFile(r.csv, r.objects)
	case "range":
		lo, hi := r.minT, r.maxT
		if !full {
			span := r.maxT - r.minT
			lo, hi = r.minT+span/4, r.minT+3*span/4
		}
		return tool.AnalyzeTraceFileRange(r.bin, r.objects, lo, hi)
	case "shards":
		return tool.AnalyzeTraceShards(r.shards, r.objects)
	}
	return nil, fmt.Errorf("unknown route %q", route)
}

// routeInputBytes is the size of the files a route reads, the base of its
// read amplification.
func (c *corpus) routeInputBytes(route string) int64 {
	switch route {
	case "csv":
		return c.csvBytes
	case "shards":
		return c.shardBytes
	}
	return c.binBytes
}

// sameReport reports whether two reports agree on everything the analysis
// routes must agree on: verdict, contended channels, CF object ranking
// with exact CF values, and the sample count.
func sameReport(a, b *drbw.Report) error {
	switch {
	case a.Detected != b.Detected:
		return fmt.Errorf("verdict %v vs %v", a.Detected, b.Detected)
	case !slices.Equal(a.Channels, b.Channels):
		return fmt.Errorf("channels %v vs %v", a.Channels, b.Channels)
	case !slices.Equal(a.Objects, b.Objects):
		return fmt.Errorf("CF ranking %v vs %v", a.Objects, b.Objects)
	case a.Samples != b.Samples:
		return fmt.Errorf("samples %d vs %d", a.Samples, b.Samples)
	}
	return nil
}

// routeStats is what one route's timed loop measured.
type routeStats struct {
	perRec   [][]float64 // seconds per analysis call, by recording
	calls    []float64   // seconds per analysis call, all recordings
	spent    float64     // seconds spent in this route's loop
	analyzed int         // samples one pass analyzes (sum of Report.Samples)
	first    []*drbw.Report
}

// pass is the route's time for one pass over the corpus: the sum over
// recordings of each recording's median call time. Per-recording medians
// keep a burst of host noise from moving the pass time.
func (st *routeStats) pass() float64 {
	var t float64
	for _, calls := range st.perRec {
		t += median(calls)
	}
	return t
}

// routeRounds is how many slices the analyze workload cuts each route's
// timed loop into.
const routeRounds = 8

// routeProbe runs every route's timed loop over the corpus in slices. The
// routes take turns slice by slice, so each samples the whole measured
// window rather than one stretch of a drifting host. Every call is one
// operation: it fails on an error, or when its report differs from the
// binary route's report for the same recording (the range route, which
// covers only part of the window, is held to its own first report
// instead).
type routeProbe struct {
	b      *bench
	tool   *drbw.Tool
	c      *corpus
	budget float64 // seconds per route
	stats  map[string]*routeStats
}

func newRouteProbe(b *bench, tool *drbw.Tool, c *corpus, budget float64) *routeProbe {
	p := &routeProbe{b: b, tool: tool, c: c, budget: budget, stats: map[string]*routeStats{}}
	for _, route := range routes {
		p.stats[route] = &routeStats{perRec: make([][]float64, len(c.recs)), first: make([]*drbw.Report, len(c.recs))}
	}
	return p
}

// advance runs the routes in turn, each until it has spent share of its
// budget and at least one more pass. A collection first gives every slice
// the same heap, whatever ran before it.
func (p *routeProbe) advance(share float64) {
	runtime.GC()
	for _, route := range routes {
		st := p.stats[route]
		for {
			start := time.Now()
			p.pass(route)
			if st.spent += time.Since(start).Seconds(); st.spent >= share*p.budget {
				break
			}
		}
	}
}

// pass analyzes every recording once on one route.
func (p *routeProbe) pass(route string) {
	st := p.stats[route]
	for i := range p.c.recs {
		start := time.Now()
		rep, err := p.c.recs[i].analyze(p.tool, route, false)
		d := time.Since(start).Seconds()
		st.perRec[i] = append(st.perRec[i], d)
		st.calls = append(st.calls, d)
		if err == nil {
			if st.first[i] == nil {
				st.first[i] = rep
				st.analyzed += int(rep.Samples)
			}
			ref := p.stats["binary"].first[i]
			if route == "range" {
				ref = st.first[i]
			}
			if ref != nil && ref != rep {
				err = sameReport(rep, ref)
			}
		}
		p.b.op(wrap(err, "%s route on %s", route, p.c.recs[i].bench))
	}
}

// measureRoutes gives each route its own timed loop of budget seconds,
// in routeRounds slices.
func measureRoutes(b *bench, tool *drbw.Tool, c *corpus, budget float64) map[string]*routeStats {
	p := newRouteProbe(b, tool, c, budget)
	for round := 1; round <= routeRounds; round++ {
		p.advance(float64(round) / routeRounds)
	}
	return p.stats
}

// checkCorpus runs the checks that are not timed: the range route over the
// full window must match the binary route, and every recording's offline
// report must match a live Analyze of the same case.
func checkCorpus(b *bench, tool *drbw.Tool, c *corpus, rs map[string]*routeStats) {
	for i := range c.recs {
		r := &c.recs[i]
		ref := rs["binary"].first[i]
		if ref == nil {
			continue // the binary call already counted as failed
		}
		rep, err := r.analyze(tool, "range", true)
		if err == nil {
			err = sameReport(rep, ref)
		}
		b.op(wrap(err, "full-window range route on %s", r.bench))
		live, err := tool.Analyze(r.bench, r.c)
		if err == nil {
			err = sameReport(ref, live)
		}
		b.op(wrap(err, "offline vs live report on %s", r.bench))
	}
}

func wrap(err error, format string, args ...any) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf(format+": %w", append(args, err)...)
}
