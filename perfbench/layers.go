package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"drbw"
	"drbw/internal/diagnose"
	"drbw/internal/features"
	"drbw/internal/pebs"
	"drbw/internal/profiledata"
	"drbw/internal/topology"
)

// sweepBudget is the host time each layer-only sweep is repeated for.
const sweepBudget = 0.4

// decoded is one recording decoded into the blocks SampleReader yields.
type decoded struct {
	blocks  [][]pebs.Sample
	flat    []pebs.Sample
	weight  float64
	objects *profiledata.Table
	rec     *recording
}

// decodeFile streams a recording through SampleReader and returns the
// number of samples; keep, when non-nil, receives a copy of every block.
func decodeFile(path string, keep func(block []pebs.Sample)) (int, float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	sr, err := profiledata.NewSampleReader(f)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: %w", path, err)
	}
	n := 0
	for {
		block, err := sr.Next()
		if errors.Is(err, io.EOF) {
			return n, sr.Weight(), nil
		}
		if err != nil {
			return n, 0, fmt.Errorf("%s: %w", path, err)
		}
		n += len(block)
		if keep != nil {
			keep(append([]pebs.Sample(nil), block...))
		}
	}
}

// decodeSweep times decode-only passes (no analysis) over one encoding of
// the whole corpus and returns host nanoseconds per sample.
func decodeSweep(b *bench, c *corpus, path func(*recording) string) float64 {
	passes := loop(sweepBudget, func() {
		for i := range c.recs {
			n, _, err := decodeFile(path(&c.recs[i]), nil)
			if err == nil && n != c.recs[i].samples {
				err = fmt.Errorf("decoded %d samples, recorded %d", n, c.recs[i].samples)
			}
			b.op(wrap(err, "decode sweep"))
		}
	})
	return median(passes) * 1e9 / float64(c.samples)
}

// layerSweeps measures the analysis layers in isolation on the corpus:
// encoding sizes, decode cost per encoding, binary encode time, and the
// three accumulators fed pre-decoded blocks.
func layerSweeps(b *bench, c *corpus) error {
	b.set("profiledata.binary_bytes_per_sample", "B/sample", float64(c.binBytes)/float64(c.samples))
	b.set("profiledata.csv_bytes_per_sample", "B/sample", float64(c.csvBytes)/float64(c.samples))
	b.set("profiledata.decode_binary_ns_per_sample", "ns/sample", decodeSweep(b, c, func(r *recording) string { return r.bin }))
	b.set("profiledata.decode_csv_ns_per_sample", "ns/sample", decodeSweep(b, c, func(r *recording) string { return r.csv }))

	recs := make([]decoded, len(c.recs))
	for i := range c.recs {
		d := &recs[i]
		d.rec = &c.recs[i]
		_, w, err := decodeFile(c.recs[i].bin, func(block []pebs.Sample) {
			d.blocks = append(d.blocks, block)
			d.flat = append(d.flat, block...)
		})
		if err != nil {
			return err
		}
		d.weight = w
		f, err := os.Open(c.recs[i].objects)
		if err != nil {
			return err
		}
		objs, err := profiledata.ReadObjects(f)
		f.Close()
		if err != nil {
			return err
		}
		if d.objects, err = profiledata.NewTable(objs); err != nil {
			return err
		}
	}

	encode := loop(sweepBudget, func() {
		for i := range recs {
			err := profiledata.WriteSamplesBinary(io.Discard, recs[i].flat, recs[i].weight, profiledata.BinaryOptions{Index: true})
			b.op(wrap(err, "encode sweep"))
		}
	})
	b.set("profiledata.encode_s", "s", median(encode))

	m := topology.XeonE5_4650()
	perSample := func(pass func(d *decoded)) float64 {
		times := loop(sweepBudget, func() {
			for i := range recs {
				pass(&recs[i])
			}
		})
		return median(times) * 1e9 / float64(c.samples)
	}
	b.set("features.add_ns_per_sample", "ns/sample", perSample(func(d *decoded) {
		acc := features.NewAccumulator(m)
		for _, blk := range d.blocks {
			acc.Add(blk)
		}
	}))
	b.set("diagnose.densecf_ns_per_sample", "ns/sample", perSample(func(d *decoded) {
		cf := diagnose.NewDenseCF(d.objects, m.Nodes(), d.weight)
		for _, blk := range d.blocks {
			cf.Add(blk)
		}
	}))
	for i := range recs {
		recs[i].flat = nil // only the timeline sweep is left; free the copy
	}
	b.set("diagnose.timeline_ns_per_sample", "ns/sample", perSample(func(d *decoded) {
		tl := diagnose.NewTimelineAccumulator(32, d.weight)
		tl.ObserveRange(d.rec.minT, d.rec.maxT, d.rec.samples)
		for _, blk := range d.blocks {
			tl.Add(blk)
		}
	}))
	return nil
}

// readAmplification measures, per route, the bytes the process read
// (rchar in /proc/self/io) during one pass over the corpus, divided by the
// size of the files that route reads.
func readAmplification(b *bench, tool *drbw.Tool, c *corpus) error {
	for _, route := range routes {
		before, err := readChars()
		if err != nil {
			return err
		}
		for i := range c.recs {
			_, err := c.recs[i].analyze(tool, route, false)
			b.op(wrap(err, "%s route on %s", route, c.recs[i].bench))
		}
		after, err := readChars()
		if err != nil {
			return err
		}
		b.set("analysis.read_amplification."+route, "x", float64(after-before)/float64(c.routeInputBytes(route)))
	}
	return nil
}

// readChars returns rchar from /proc/self/io: bytes this process has read
// through read(2) and pread(2), page-cache hits included.
func readChars() (int64, error) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "rchar: "); ok {
			return strconv.ParseInt(v, 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/self/io has no rchar")
}

// reportRouteLatency sets each route's per-call latency p50 and p90 and
// the number of calls they come from.
func reportRouteLatency(b *bench, rs map[string]*routeStats) {
	for _, route := range routes {
		st := rs[route]
		name := "analysis.route_ms." + route
		b.set(name+".p50", "ms", quantile(st.calls, 0.5)*1e3)
		b.set(name+".p90", "ms", quantile(st.calls, 0.9)*1e3)
		b.set(name+".n", "count", float64(len(st.calls)))
	}
}
