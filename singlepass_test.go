package drbw_test

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"drbw"
	"drbw/internal/core"
	"drbw/internal/pebs"
	"drbw/internal/profiledata"
)

// countIndexOpens installs the index hook as a counter, returning the
// counter and a cleanup the test must defer. Batch members open their
// indexes concurrently, so the counter is atomic.
func countIndexOpens() (*atomic.Int64, func()) {
	n := new(atomic.Int64)
	restore := drbw.SetTestHookIndexOpened(func() { n.Add(1) })
	return n, restore
}

// blocksIn counts the blocks a streaming read of path yields.
func blocksIn(t *testing.T, path string) int64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sr, err := profiledata.NewSampleReader(f)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for {
		if _, err := sr.Next(); err == io.EOF {
			return n
		} else if err != nil {
			t.Fatal(err)
		}
		n++
	}
}

// loadAnalyze is the reference: LoadTrace + AnalyzeTrace.
func loadAnalyze(t *testing.T, tl *drbw.Tool, samplesPath, objectsPath string) *drbw.Report {
	t.Helper()
	td, err := drbw.LoadTrace(samplesPath, objectsPath)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tl.AnalyzeTrace(td)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// writeSamples writes samples at weight to a new file in dir.
func writeSamples(t *testing.T, path string, samples []pebs.Sample, weight float64, opt profiledata.BinaryOptions) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := profiledata.WriteSamplesBinary(f, samples, weight, opt); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSinglePassMatchesTwoPassMatrix is the route-equivalence matrix: for
// every input encoding and route, at every worker count, the whole report
// — timeline included — is bit-identical to LoadTrace + AnalyzeTrace, and
// the analysis decodes every block of its input exactly once.
func TestSinglePassMatchesTwoPassMatrix(t *testing.T) {
	tl := sharedTool(t)
	// Record to CSV first so every variant holds identical grid-quantized
	// samples and the slice-path report carries no Record-only metadata.
	_, csvPath, oPath := recordTo(t, tl, 73, drbw.FormatCSV)
	td, err := drbw.LoadTrace(csvPath, oPath)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	indexed := filepath.Join(dir, "samples.bin")
	if err := td.SaveAs(indexed, filepath.Join(dir, "o.csv"), drbw.FormatBinary); err != nil {
		t.Fatal(err)
	}
	samples, weight, err := readSamplesFile(t, indexed)
	if err != nil {
		t.Fatal(err)
	}
	unindexed := filepath.Join(dir, "samples.noindex.bin")
	writeSamples(t, unindexed, samples, weight, profiledata.BinaryOptions{})
	compressed := filepath.Join(dir, "samples.z.bin")
	writeSamples(t, compressed, samples, weight, profiledata.BinaryOptions{Compress: true})
	// CSV v1 is v2 without the weight meta row: it reads at weight 1.
	csv, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	csvV1 := filepath.Join(dir, "samples.v1.csv")
	if err := os.WriteFile(csvV1, csv[bytes.IndexByte(csv, '\n')+1:], 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := drbw.LoadTrace(indexed, oPath)
	if err != nil {
		t.Fatal(err)
	}
	shards, shardObjs := splitTrace(t, loaded, 3)
	minT, maxT := timeBounds(loaded)
	reblocked := reblock(t, indexed, 64)

	whole := loadAnalyze(t, tl, indexed, oPath)
	cases := []struct {
		name    string
		inputs  []string
		analyze func() (*drbw.Report, error)
		want    *drbw.Report
	}{
		{"csv-v1", []string{csvV1}, func() (*drbw.Report, error) { return tl.AnalyzeTraceFile(csvV1, oPath) }, loadAnalyze(t, tl, csvV1, oPath)},
		{"csv-v2", []string{csvPath}, func() (*drbw.Report, error) { return tl.AnalyzeTraceFile(csvPath, oPath) }, whole},
		{"indexed", []string{indexed}, func() (*drbw.Report, error) { return tl.AnalyzeTraceFile(indexed, oPath) }, whole},
		{"unindexed", []string{unindexed}, func() (*drbw.Report, error) { return tl.AnalyzeTraceFile(unindexed, oPath) }, whole},
		{"flate", []string{compressed}, func() (*drbw.Report, error) { return tl.AnalyzeTraceFile(compressed, oPath) }, whole},
		{"reblocked", []string{reblocked}, func() (*drbw.Report, error) { return tl.AnalyzeTraceFile(reblocked, oPath) }, whole},
		{"shards", shards, func() (*drbw.Report, error) { return tl.AnalyzeTraceShards(shards, shardObjs) }, whole},
		{"full-window range", []string{indexed}, func() (*drbw.Report, error) { return tl.AnalyzeTraceFileRange(indexed, oPath, minT, maxT) }, whole},
	}

	defer core.SetPoolWorkers(0)
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		core.SetPoolWorkers(workers)
		for _, tc := range cases {
			var blocks int64
			for _, in := range tc.inputs {
				blocks += blocksIn(t, in)
			}
			before := blocksDecoded.Value()
			got, err := tc.analyze()
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, tc.name, err)
			}
			if decoded := blocksDecoded.Value() - before; decoded != blocks {
				t.Fatalf("workers=%d %s: decoded %d blocks of a %d-block input", workers, tc.name, decoded, blocks)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("workers=%d %s: report differs from LoadTrace + AnalyzeTrace\n got %+v\nwant %+v", workers, tc.name, got, tc.want)
			}
		}
	}
}

// timeBounds returns the earliest and latest sample times of td.
func timeBounds(td *drbw.TraceData) (minT, maxT float64) {
	minT, maxT = td.Samples[0].Time, td.Samples[0].Time
	for _, s := range td.Samples {
		minT, maxT = math.Min(minT, s.Time), math.Max(maxT, s.Time)
	}
	return minT, maxT
}

// readSamplesFile loads a recording's samples and weight.
func readSamplesFile(t *testing.T, path string) ([]pebs.Sample, float64, error) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	return profiledata.ReadSamples(f)
}

// TestSinglePassShardsMatchWhole: indexed shards read through their
// indexes, and the merged report is bit-identical to the whole-trace slice
// analysis.
func TestSinglePassShardsMatchWhole(t *testing.T) {
	tl := sharedTool(t)
	_, sPath, objPath := recordTo(t, tl, 74, drbw.FormatBinary)
	td, err := drbw.LoadTrace(sPath, objPath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := tl.AnalyzeTrace(td)
	if err != nil {
		t.Fatal(err)
	}
	shards, oPath := splitTrace(t, td, 3)

	defer core.SetPoolWorkers(0)
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		core.SetPoolWorkers(workers)
		opens, restoreHook := countIndexOpens()
		got, err := tl.AnalyzeTraceShards(shards, oPath)
		restoreHook()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if opens.Load() == 0 {
			t.Fatalf("workers=%d: indexed shards did not read through their indexes", workers)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: sharded report differs from the slice path\n got %+v\nwant %+v", workers, got, want)
		}
	}
}

// analyzeRoutes are the entry points that analyze one whole recording:
// on its own, and as a member of a batch. Every one of them reads an
// indexed recording through its index at any worker count.
var analyzeRoutes = []struct {
	name    string
	analyze func(tl *drbw.Tool, sPath, oPath string) (*drbw.Report, error)
}{
	{"file", func(tl *drbw.Tool, sPath, oPath string) (*drbw.Report, error) {
		return tl.AnalyzeTraceFile(sPath, oPath)
	}},
	{"batch", func(tl *drbw.Tool, sPath, oPath string) (*drbw.Report, error) {
		reps, err := tl.AnalyzeTraceFiles([]drbw.TracePaths{{Samples: sPath, Objects: oPath}, {Samples: sPath, Objects: oPath}})
		return reps[0], err
	}},
}

// TestSinglePassRecordingMutatedDuringAnalysis: corruption that lands
// after the index was read must be caught by the per-block checksums, on
// every route and at every worker count.
func TestSinglePassRecordingMutatedDuringAnalysis(t *testing.T) {
	tl := sharedTool(t)
	_, sPath, oPath := recordTo(t, tl, 75, drbw.FormatBinary)

	data, err := os.ReadFile(sPath)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := profiledata.ReadBlockIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in the middle of the first block — well past
	// its two header uvarints, well before the next block — once the
	// analysis has already read and validated the footer.
	end := idx.DataEnd
	if len(idx.Entries) > 1 {
		end = idx.Entries[1].Offset
	}
	mid := (idx.Entries[0].Offset + end) / 2
	mutated := append([]byte(nil), data...)
	mutated[mid] ^= 0x40
	defer core.SetPoolWorkers(0)
	for _, workers := range []int{1, 2} {
		core.SetPoolWorkers(workers)
		for _, route := range analyzeRoutes {
			// Batch members open their indexes concurrently: mutate once,
			// and hold every member until the write is done.
			var once sync.Once
			restore := drbw.SetTestHookIndexOpened(func() {
				once.Do(func() {
					if err := os.WriteFile(sPath, mutated, 0o644); err != nil {
						t.Error(err)
					}
				})
			})
			_, err = route.analyze(tl, sPath, oPath)
			restore()
			if err == nil || !strings.Contains(err.Error(), "index checksum") {
				t.Fatalf("workers=%d %s: error = %v, want per-block checksum failure", workers, route.name, err)
			}

			// Restored, the recording analyzes cleanly again.
			if err := os.WriteFile(sPath, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := route.analyze(tl, sPath, oPath); err != nil {
				t.Fatalf("workers=%d %s: %v", workers, route.name, err)
			}
		}
	}
}

// forgeFooterTimes rewrites path's index footer with modified entry times.
// The entry times live in the footer, which no block checksum covers — so a
// forged footer passes every checksum and must be caught by the index
// honesty check instead.
func forgeFooterTimes(t *testing.T, path string, mutate func(entries []profiledata.IndexEntry)) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := profiledata.ReadBlockIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	mutate(idx.Entries)
	out := filepath.Join(t.TempDir(), "forged.bin")
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	// Body plus its zero-count terminator at DataEnd, then the new footer.
	if _, err := f.Write(data[:idx.DataEnd+1]); err != nil {
		t.Fatal(err)
	}
	if err := profiledata.WriteBlockIndex(f, idx.Entries); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSinglePassRejectsLyingIndexFooter: a footer whose time claims
// disagree with the decoded samples — narrower, so real samples fall
// outside the claimed range, or wider, so the observed range never reaches
// the claim — must fail loudly on every route and at every worker count,
// never panic or silently mis-bucket the timeline.
func TestSinglePassRejectsLyingIndexFooter(t *testing.T) {
	tl := sharedTool(t)
	_, sPath, oPath := recordTo(t, tl, 76, drbw.FormatBinary)

	forged := map[string]string{
		"narrower": forgeFooterTimes(t, sPath, func(entries []profiledata.IndexEntry) {
			// Claim the recording starts later than it does: the samples at
			// the true global minimum land outside the claimed range.
			g := entries[0].MinTime
			for _, e := range entries {
				if e.MinTime < g {
					g = e.MinTime
				}
			}
			for i := range entries {
				if entries[i].MinTime == g {
					entries[i].MinTime = g + 1
				}
			}
		}),
		"wider": forgeFooterTimes(t, sPath, func(entries []profiledata.IndexEntry) {
			// Claim more trailing span than any sample occupies: the
			// observed range never reaches the claim.
			entries[len(entries)-1].MaxTime += 1e6
		}),
	}
	defer core.SetPoolWorkers(0)
	for _, workers := range []int{1, 2} {
		core.SetPoolWorkers(workers)
		for name, path := range forged {
			for _, route := range analyzeRoutes {
				opens, restoreHook := countIndexOpens()
				_, err := route.analyze(tl, path, oPath)
				restoreHook()
				if opens.Load() == 0 {
					t.Fatalf("workers=%d %s %s: the index was never read", workers, route.name, name)
				}
				if err == nil || !strings.Contains(err.Error(), "index disagrees with recording") {
					t.Fatalf("workers=%d %s %s: error = %v, want index-disagrees", workers, route.name, name, err)
				}
			}
		}
	}
}

// TestRangePrunesBlocksAtAnyWorkerCount: a time window over an indexed
// recording decodes only the blocks it touches, on a one-worker pool as
// on a wider one, and reports the same as the loaded-slice analysis.
func TestRangePrunesBlocksAtAnyWorkerCount(t *testing.T) {
	tl := sharedTool(t)
	td, sPath, oPath := recordTo(t, tl, 78, drbw.FormatBinary)
	reblocked := reblock(t, sPath, 64)
	blocks := blocksIn(t, reblocked)
	if blocks < 8 {
		t.Fatalf("recording has %d blocks, want at least 8 to prune", blocks)
	}
	minT, maxT := timeBounds(td)
	lo, hi := minT+(maxT-minT)/4, maxT-(maxT-minT)/4
	loaded, err := drbw.LoadTrace(reblocked, oPath)
	if err != nil {
		t.Fatal(err)
	}
	windowed := &drbw.TraceData{Weight: loaded.Weight, Objects: loaded.Objects}
	for _, r := range loaded.Samples {
		if r.Time >= lo && r.Time <= hi {
			windowed.Samples = append(windowed.Samples, r)
		}
	}
	want, err := tl.AnalyzeTrace(windowed)
	if err != nil {
		t.Fatal(err)
	}
	defer core.SetPoolWorkers(0)
	for _, workers := range []int{1, 2} {
		core.SetPoolWorkers(workers)
		before := blocksDecoded.Value()
		got, err := tl.AnalyzeTraceFileRange(reblocked, oPath, lo, hi)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if decoded := blocksDecoded.Value() - before; decoded >= blocks {
			t.Fatalf("workers=%d: decoded %d of %d blocks; the window should prune some", workers, decoded, blocks)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: windowed report differs from the loaded-slice analysis\n got %+v\nwant %+v", workers, got, want)
		}
	}
}

// TestNonFiniteTimesOneRule: a time or latency no cycle field can hold
// (non-finite, beyond ±2^53, a latency outside [0, 2^32)) is an error on
// every route it can enter by — CSV parse, binary and CSV write, the slice
// path — never a silently bucketed sample; and every route gives the same
// report for in-range times of any magnitude.
func TestNonFiniteTimesOneRule(t *testing.T) {
	tl := sharedTool(t)
	// Start from CSV-quantized samples so every encoding carries the same
	// values.
	_, csvIn, oIn := recordTo(t, tl, 77, drbw.FormatCSV)
	td, err := drbw.LoadTrace(csvIn, oIn)
	if err != nil {
		t.Fatal(err)
	}
	defer core.SetPoolWorkers(0)
	core.SetPoolWorkers(2)

	shift := func(f func(i int, r *drbw.SampleRecord)) *drbw.TraceData {
		out := &drbw.TraceData{Weight: td.Weight, Objects: td.Objects}
		out.Samples = append([]drbw.SampleRecord(nil), td.Samples...)
		for i := range out.Samples {
			f(i, &out.Samples[i])
		}
		return out
	}
	mid := len(td.Samples) / 2
	at := func(set func(r *drbw.SampleRecord)) *drbw.TraceData {
		return shift(func(i int, r *drbw.SampleRecord) {
			if i == mid {
				set(r)
			}
		})
	}

	// Rejected: the record routes (slice analysis, binary and CSV save)
	// and the CSV parse of the same value written as text.
	for _, tc := range []struct {
		name, field, text string
		td                *drbw.TraceData
		wantErr           string
	}{
		{"NaN time", "time", "NaN", at(func(r *drbw.SampleRecord) { r.Time = math.NaN() }), "sample time NaN is not a finite cycle count"},
		{"+Inf time", "time", "+Inf", at(func(r *drbw.SampleRecord) { r.Time = math.Inf(1) }), "sample time +Inf is not a finite cycle count"},
		{"-Inf time", "time", "-Inf", at(func(r *drbw.SampleRecord) { r.Time = math.Inf(-1) }), "sample time -Inf is not a finite cycle count"},
		{"1e300 time", "time", "1e300", at(func(r *drbw.SampleRecord) { r.Time = 1e300 }), "sample time 1e+300 is not a finite cycle count"},
		{"1e30 latency", "latency", "1e30", at(func(r *drbw.SampleRecord) { r.Latency = 1e30 }), "sample latency 1e+30 is not a cycle count"},
		{"negative latency", "latency", "-3", at(func(r *drbw.SampleRecord) { r.Latency = -3 }), "sample latency -3 is not a cycle count"},
		{"NaN latency", "latency", "NaN", at(func(r *drbw.SampleRecord) { r.Latency = math.NaN() }), "sample latency NaN is not a cycle count"},
	} {
		dir := t.TempDir()
		oPath := filepath.Join(dir, "o.csv")
		errs := map[string]error{}
		_, errs["slice"] = tl.AnalyzeTrace(tc.td)
		errs["binary write"] = tc.td.SaveAs(filepath.Join(dir, "s.bin"), oPath, drbw.FormatBinary)
		errs["csv write"] = tc.td.SaveAs(filepath.Join(dir, "s.csv"), oPath, drbw.FormatCSV)

		// The CSV parse: a valid recording with the value written into the
		// middle row's field by hand.
		csvPath := filepath.Join(dir, "hand.csv")
		if err := td.SaveAs(csvPath, oPath, drbw.FormatCSV); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(csvPath)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(raw), "\n")
		row := strings.Split(lines[2+mid], ",")
		col := map[string]int{"time": 0, "latency": 5}[tc.field]
		row[col] = tc.text
		lines[2+mid] = strings.Join(row, ",")
		if err := os.WriteFile(csvPath, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
			t.Fatal(err)
		}
		_, errs["csv parse"] = tl.AnalyzeTraceFile(csvPath, oPath)
		_, errs["csv load"] = drbw.LoadTrace(csvPath, oPath)

		for route, err := range errs {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s via %s: error = %v, want one containing %q", tc.name, route, err, tc.wantErr)
			}
		}
	}

	// Accepted: in-range times of any magnitude give one report on every
	// route.
	for _, tc := range []struct {
		name string
		td   *drbw.TraceData
	}{
		{"-2^52 shift", shift(func(i int, r *drbw.SampleRecord) { r.Time -= 1 << 52 })},
		{"±2^53", shift(func(i int, r *drbw.SampleRecord) {
			if i%2 == 0 {
				r.Time = 1 << 53
			} else {
				r.Time = -(1 << 53)
			}
		})},
	} {
		dir := t.TempDir()
		oPath := filepath.Join(dir, "o.csv")
		csvPath := filepath.Join(dir, "s.csv")
		binPath := filepath.Join(dir, "s.bin")
		if err := tc.td.SaveAs(csvPath, oPath, drbw.FormatCSV); err != nil {
			t.Fatal(err)
		}
		if err := tc.td.SaveAs(binPath, oPath, drbw.FormatBinary); err != nil {
			t.Fatal(err)
		}
		samples, weight, err := readSamplesFile(t, binPath)
		if err != nil {
			t.Fatal(err)
		}
		noIndex := filepath.Join(dir, "s.noindex.bin")
		writeSamples(t, noIndex, samples, weight, profiledata.BinaryOptions{})
		routes := map[string]func() (*drbw.Report, error){
			"slice":     func() (*drbw.Report, error) { return tl.AnalyzeTrace(tc.td) },
			"csv":       func() (*drbw.Report, error) { return tl.AnalyzeTraceFile(csvPath, oPath) },
			"unindexed": func() (*drbw.Report, error) { return tl.AnalyzeTraceFile(noIndex, oPath) },
			"indexed":   func() (*drbw.Report, error) { return tl.AnalyzeTraceFile(binPath, oPath) },
		}
		var first *drbw.Report
		for route, analyze := range routes {
			rep, err := analyze()
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, route, err)
			}
			if len(rep.Timeline) == 0 {
				t.Fatalf("%s %s: no timeline", tc.name, route)
			}
			rep.Bench, rep.Config = "", ""
			if first == nil {
				first = rep
			} else if !reflect.DeepEqual(rep, first) {
				t.Fatalf("%s %s: report differs from the other routes\n got %+v\nwant %+v", tc.name, route, rep, first)
			}
		}
	}
}
