package drbw

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"drbw/internal/alloc"
	"drbw/internal/core"
	"drbw/internal/diagnose"
	"drbw/internal/features"
	"drbw/internal/obs"
	"drbw/internal/pebs"
	"drbw/internal/profiledata"
	"drbw/internal/topology"
)

// TraceFormat selects the on-disk samples encoding.
type TraceFormat string

// Supported trace formats. Reading always autodetects; the format only
// matters when writing.
const (
	// FormatCSV is the line-oriented text format (v2 with the weight meta
	// row) — greppable, produced and consumed by shell tooling.
	FormatCSV TraceFormat = "csv"
	// FormatBinary is the binary columnar format (v4) — several times
	// smaller and faster to decode, the right choice for large traces.
	// Written with the block index footer, so AnalyzeTraceFile can fan the
	// blocks across the worker pool.
	FormatBinary TraceFormat = "binary"
)

// SaveAs is Save with an explicit samples format. The objects table is
// always CSV (it is tiny and hand-editable either way).
func (td *TraceData) SaveAs(samplesPath, objectsPath string, format TraceFormat) error {
	samples := make([]pebs.Sample, 0, len(td.Samples))
	for _, r := range td.Samples {
		s, err := fromRecord(r)
		if err != nil {
			return err
		}
		samples = append(samples, s)
	}
	weight := td.Weight
	if weight <= 0 {
		weight = 1
	}
	var writeSamples func(io.Writer) error
	switch format {
	case FormatCSV:
		writeSamples = func(w io.Writer) error {
			return profiledata.WriteSamples(w, samples, weight)
		}
	case FormatBinary:
		writeSamples = func(w io.Writer) error {
			return profiledata.WriteSamplesBinary(w, samples, weight, profiledata.BinaryOptions{Index: true})
		}
	default:
		return fmt.Errorf("drbw: unknown trace format %q (want %q or %q)", format, FormatCSV, FormatBinary)
	}
	if err := writeFile(samplesPath, writeSamples); err != nil {
		return err
	}
	return writeFile(objectsPath, func(w io.Writer) error {
		return profiledata.WriteObjects(w, td.internalObjects())
	})
}

// TracePaths names one recording's two files.
type TracePaths struct {
	Samples string
	Objects string
}

// timeRange restricts an analysis to samples with Time in [lo, hi]
// (inclusive). The zero value keeps everything.
type timeRange struct {
	lo, hi  float64
	limited bool
}

func fullRange() timeRange { return timeRange{} }

// filter compacts block, in place, down to the samples inside the range.
func (tr timeRange) filter(block []pebs.Sample) []pebs.Sample {
	if !tr.limited {
		return block
	}
	out := block[:0]
	for i := range block {
		// Times lie within ±2^53, so the conversion is exact.
		if t := float64(block[i].Time); t >= tr.lo && t <= tr.hi {
			out = append(out, block[i])
		}
	}
	return out
}

// skipBlock prunes an indexed block whose whole time range misses tr.
func (tr timeRange) skipBlock(e profiledata.IndexEntry) bool {
	return tr.limited && (float64(e.MaxTime) < tr.lo || float64(e.MinTime) > tr.hi)
}

// AnalyzeTraceFile runs the AnalyzeTrace pipeline directly off a recording
// on disk, in one read of every sample. When the samples file carries a
// block index (binary recordings written by this tool), its blocks are
// read through the index with every block checksum verified, and fanned
// across the shared worker pool: each worker streams its own block ranges
// with its own decode scratch into mergeable accumulators. Everything else
// (CSV, compressed, foreign) streams block by block as a single job. Either way
// peak memory is bounded by block size × workers, never by the recording
// length, and the report is bit-identical to LoadTrace + AnalyzeTrace on
// the same files at any worker count.
func (t *Tool) AnalyzeTraceFile(samplesPath, objectsPath string) (*Report, error) {
	rep, err := t.analyzeTraceFileRange(samplesPath, objectsPath, fullRange())
	return rep, obs.FlightFailure("analyze.trace_file", err)
}

// AnalyzeTraceFileRange is AnalyzeTraceFile restricted to samples with
// Time in [lo, hi] (inclusive): the report is exactly AnalyzeTrace over
// the recording with every other sample dropped. Blocks of an indexed
// recording whose time range misses the window are never read at all.
func (t *Tool) AnalyzeTraceFileRange(samplesPath, objectsPath string, lo, hi float64) (*Report, error) {
	if !(lo <= hi) {
		return nil, fmt.Errorf("drbw: invalid time range [%v, %v]", lo, hi)
	}
	rep, err := t.analyzeTraceFileRange(samplesPath, objectsPath, timeRange{lo: lo, hi: hi, limited: true})
	return rep, obs.FlightFailure("analyze.trace_file_range", err)
}

func (t *Tool) analyzeTraceFileRange(samplesPath, objectsPath string, tr timeRange) (*Report, error) {
	compute := func() (*Report, error) {
		sp := obs.BeginSpan("analyze.trace_file")
		sp.SetStr("samples", samplesPath)
		defer sp.End()
		return t.analyze([]string{samplesPath}, objectsPath, tr, nil, "analyze.blocks", sp)
	}
	if t.cache != nil {
		if key, err := t.analyzeFileKey(samplesPath, objectsPath, tr); err == nil {
			return t.cachedReport(key, compute)
		}
		// Fingerprinting failed — missing file, unreadable bytes. Fall
		// through uncached so the analysis itself surfaces the real error.
	}
	return compute()
}

// AnalyzeTraceFiles is AnalyzeTraceFile over a batch of recordings on the
// shared worker pool, with the AnalyzeTraces partial-result semantics:
// reports[i] is nil exactly when recording i failed, and a *BatchError
// aggregates the failures. Each recording runs serially on one worker —
// the batch itself is the parallelism — with per-worker decode buffers and
// accumulators, so the batch allocates like a handful of serial analyses.
func (t *Tool) AnalyzeTraceFiles(paths []TracePaths) ([]*Report, error) {
	if len(paths) == 1 {
		// A one-recording batch has no cross-file parallelism to exploit;
		// route it through AnalyzeTraceFile so an indexed recording fans
		// its block ranges across the pool instead of streaming serially.
		// The reports are bit-identical either way.
		rep, err := t.AnalyzeTraceFile(paths[0].Samples, paths[0].Objects)
		if err != nil {
			return []*Report{nil}, &BatchError{Cases: []CaseError{{Index: 0, Err: err}}}
		}
		return []*Report{rep}, nil
	}
	reports := make([]*Report, len(paths))
	errs := make([]error, len(paths))
	scratch := &workerStates{make: func() *analysisState { return &analysisState{} }}
	sp := obs.BeginSpan("analyze.tracefiles")
	core.ParallelForLabeledSpans(len(paths), "analyze.tracefiles", sp, func(i, w int, cs obs.SpanHandle) {
		cs.SetStr("samples", paths[i].Samples)
		reports[i], errs[i] = t.analyzeTraceFileBatch(paths[i].Samples, paths[i].Objects, scratch.get(w))
	})
	sp.End()
	var be BatchError
	for i, err := range errs {
		if err != nil {
			be.Cases = append(be.Cases, CaseError{Index: i, Err: err})
		}
	}
	if len(be.Cases) > 0 {
		obs.FlightFailure("analyze.tracefiles", &be)
		return reports, &be
	}
	return reports, nil
}

// analyzeTraceFileBatch is the batch path's per-recording unit: a serial
// sweep on the worker's scratch, through the cache when one is attached. The
// cache's singleflight also dedups a recording listed more than once in a
// batch — the duplicates decode once and every slot gets the report.
func (t *Tool) analyzeTraceFileBatch(samplesPath, objectsPath string, sc *analysisState) (*Report, error) {
	compute := func() (*Report, error) {
		return t.analyze([]string{samplesPath}, objectsPath, fullRange(), sc, "", obs.SpanHandle{})
	}
	if t.cache != nil {
		if key, err := t.analyzeFileKey(samplesPath, objectsPath, fullRange()); err == nil {
			return t.cachedReport(key, compute)
		}
	}
	return compute()
}

// AnalyzeTraceShards analyzes one logical recording that was captured as
// several sample files — shards — sharing a single objects table. All
// shards must carry the same collector weight. Shards are analyzed
// concurrently on the worker pool and the merged report is bit-identical
// to analyzing the concatenation of the shards in order.
func (t *Tool) AnalyzeTraceShards(samplePaths []string, objectsPath string) (*Report, error) {
	rep, err := t.analyzeTraceShards(samplePaths, objectsPath)
	return rep, obs.FlightFailure("analyze.shards", err)
}

func (t *Tool) analyzeTraceShards(samplePaths []string, objectsPath string) (*Report, error) {
	if len(samplePaths) == 0 {
		return nil, fmt.Errorf("drbw: no sample shards given")
	}
	compute := func() (*Report, error) {
		sp := obs.BeginSpan("analyze.shards")
		sp.SetInt("shards", int64(len(samplePaths)))
		defer sp.End()
		return t.analyze(samplePaths, objectsPath, fullRange(), nil, "analyze.shards", sp)
	}
	if t.cache != nil {
		if key, err := t.shardsKey(samplePaths, objectsPath); err == nil {
			return t.cachedReport(key, compute)
		}
	}
	return compute()
}

// AnalyzeTraceShardDir is AnalyzeTraceShards over a directory: every
// "*.samples.*" file (sorted by name) is a shard, and the single
// "*.objects.csv" file is the shared objects table.
func (t *Tool) AnalyzeTraceShardDir(dir string) (*Report, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, obs.FlightFailure("analyze.shard_dir", fmt.Errorf("drbw: %w", err))
	}
	var shards []string
	var objects []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		switch {
		case strings.Contains(name, ".samples."):
			shards = append(shards, filepath.Join(dir, name))
		case strings.HasSuffix(name, ".objects.csv"):
			objects = append(objects, filepath.Join(dir, name))
		}
	}
	if len(shards) == 0 {
		return nil, obs.FlightFailure("analyze.shard_dir", fmt.Errorf("drbw: no *.samples.* shards in %s", dir))
	}
	if len(objects) != 1 {
		return nil, obs.FlightFailure("analyze.shard_dir", fmt.Errorf("drbw: %s holds %d *.objects.csv files, want exactly one", dir, len(objects)))
	}
	sort.Strings(shards)
	return t.AnalyzeTraceShards(shards, objects[0])
}

// The analysis kernel. Every offline input — one recording, the shards of
// one, a time window of one, a batch member — is one sweep: dispatch
// splits it into jobs, each worker accumulates the jobs it runs into its
// own analysisState, the states merge, and finish classifies and reports.
// Every sample is decoded exactly once. Features, the timeline and CF
// attribution all accumulate in that one read: the timeline's geometry
// grows with the data (diagnose.TimelineAccumulator), and DenseCF counts
// attribution on every remote channel until classification names the
// contended ones.
//
// The block index only accelerates. A block-range job reads through the
// index with every block verified against its CRC-64, and on a full-range
// read the decoded samples must match the index's claimed count and time
// range exactly (checkIndexAgrees) — a footer no checksum covers cannot
// skew the result. Without a usable index the same recording streams as
// one job.

// testHookIndexOpened, when non-nil, runs after dispatch has opened a
// recording's block index and before any block decodes. Tests use it to
// mutate the recording mid-analysis and prove the per-block checksum
// verification fires, and to see which inputs took the index.
var testHookIndexOpened func()

// analysisState is one worker's reusable analysis state: decode buffers
// plus the mergeable accumulators. Reused across a batch's recordings, it
// keeps the batch's allocation count proportional to the worker count,
// not the trace count or length.
type analysisState struct {
	bufs   profiledata.Buffers
	acc    *features.Accumulator
	tl     *diagnose.TimelineAccumulator
	dcf    *diagnose.DenseCF // nil when the objects table is invalid
	weight float64
	raw    int64 // samples read, before time filtering
	// seen is the count and time range of the samples analyzed, after
	// time filtering, for the index honesty check.
	seen sampleSpan
}

// reset readies st for a sweep.
func (t *Tool) reset(st *analysisState, sw *sweep, table *profiledata.Table) {
	if st.acc == nil {
		st.acc = features.NewAccumulator(t.machine)
	} else {
		st.acc.Reset()
	}
	st.tl = diagnose.NewTimelineAccumulator(timelineBuckets, sw.weight)
	st.dcf = nil
	if table != nil {
		st.dcf = diagnose.NewDenseCF(table, t.machine.Nodes(), sw.weight)
	}
	st.weight = sw.weight
	st.raw, st.seen = 0, emptySpan()
}

// validateSample rejects a sample the analysis cannot place: a node
// outside the machine. Every route applies this one rule; times and
// latencies were range-checked where they entered the program.
func (t *Tool) validateSample(s *pebs.Sample) error {
	nodes := t.machine.Nodes()
	if s.SrcNode < 0 || int(s.SrcNode) >= nodes || s.HomeNode < 0 || int(s.HomeNode) >= nodes {
		return fmt.Errorf("drbw: sample references node outside the %d-node machine", nodes)
	}
	return nil
}

// add filters one decoded block to the time range, validates what is
// kept, and accumulates it.
func (t *Tool) add(st *analysisState, block []pebs.Sample, tr timeRange) error {
	st.raw += int64(len(block))
	block = tr.filter(block)
	st.seen.n += int64(len(block))
	nodes := uint(t.machine.Nodes())
	for i := range block {
		s := &block[i]
		if uint(s.SrcNode) >= nodes || uint(s.HomeNode) >= nodes {
			return t.validateSample(s)
		}
		st.seen.minT = min(st.seen.minT, s.Time)
		st.seen.maxT = max(st.seen.maxT, s.Time)
	}
	st.acc.Add(block)
	st.tl.Add(block)
	if st.dcf != nil {
		st.dcf.Add(block)
	}
	return nil
}

// merge folds o into st. Counts are integers and sums are exact, so any
// merge order is bit-identical to one state fed every sample.
func (st *analysisState) merge(o *analysisState) error {
	if err := st.acc.Merge(o.acc); err != nil {
		return err
	}
	if err := st.tl.Merge(o.tl); err != nil {
		return err
	}
	if st.dcf != nil {
		if err := st.dcf.Merge(o.dcf); err != nil {
			return err
		}
	}
	st.raw += o.raw
	st.seen.union(o.seen)
	return nil
}

// workerStates hands out per-worker state under a lock, growing the slice
// if the pool width changes mid-call — a dropped worker state would
// silently lose that worker's samples from the merge.
type workerStates struct {
	mu     sync.Mutex
	states []*analysisState
	make   func() *analysisState
}

func (ws *workerStates) get(w int) *analysisState {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	for len(ws.states) <= w {
		ws.states = append(ws.states, nil)
	}
	if ws.states[w] == nil {
		ws.states[w] = ws.make()
	}
	return ws.states[w]
}

// sampleSpan is a sample count and the time range the samples span: what
// a block index claims for its blocks, or what an analysis saw.
type sampleSpan struct {
	n          int64
	minT, maxT int64
}

func emptySpan() sampleSpan { return sampleSpan{minT: math.MaxInt64, maxT: math.MinInt64} }

// union widens c to cover o.
func (c *sampleSpan) union(o sampleSpan) {
	c.n += o.n
	c.minT = min(c.minT, o.minT)
	c.maxT = max(c.maxT, o.maxT)
}

// checkIndexAgrees is the index honesty check: the decoded samples must
// match the index's claims exactly — same count, same time range. The
// block checksums guarantee the payload bytes are the ones the encoder
// summed; this closes the remaining gap, a footer whose counts or times
// (which no checksum covers) disagree with the blocks they describe.
func checkIndexAgrees(claim, seen sampleSpan) error {
	if claim == seen {
		return nil
	}
	return fmt.Errorf("drbw: index disagrees with recording (index claims %d samples in [%d, %d]; decoded %d samples in [%d, %d])",
		claim.n, claim.minT, claim.maxT, seen.n, seen.minT, seen.maxT)
}

// job streams one independently decodable portion of a recording — a
// block range of an indexed trace, or a whole file. name and [from, to)
// identify the portion for trace spans and error messages: the recording
// ("blocks" for a single file) and block range for block-range jobs, the
// path and shard index for stream jobs.
type job struct {
	name     string
	from, to int
	// open starts the job's reader on the worker's decode buffers; done
	// releases it.
	open func(bufs *profiledata.Buffers) (sr *profiledata.SampleReader, done func(), err error)
}

// annotate attaches a job's portion identity to its trace span.
func (j *job) annotate(cs obs.SpanHandle) {
	cs.SetStr("portion", j.name)
	cs.SetInt("from", int64(j.from))
	cs.SetInt("to", int64(j.to))
}

// sweep is one analysis input split into jobs.
type sweep struct {
	jobs   []job
	weight float64
	// bounds, when bounded, is the index's claim for the whole input —
	// every block of it read through an index. checkIndexAgrees holds the
	// decoded samples to it.
	bounds  sampleSpan
	bounded bool
	// skipped counts samples in blocks the time range pruned, so an empty
	// window can be told apart from an empty recording.
	skipped int64
	closers []io.Closer
}

func (sw *sweep) close() {
	for _, c := range sw.closers {
		c.Close()
	}
}

// dispatch turns one analysis input into jobs — the only place that
// decides how an input is read. Every input with a usable block index
// becomes block-range jobs over the blocks tr does not prune: one job per
// contiguous run when the sweep is serial (a batch member) or the pool has
// one worker, about four per worker otherwise. Every other input — CSV,
// unindexed or compressed binary, a damaged footer — is one whole-file
// stream job. The sweep's weight is the first input's: from its index, or
// from its stream reader, which dispatch opens on bufs for the purpose and
// hands to that input's job.
func (t *Tool) dispatch(paths []string, tr timeRange, serial bool, bufs *profiledata.Buffers) (*sweep, error) {
	sw := &sweep{bounds: emptySpan(), bounded: !tr.limited}
	// Keep only blocks whose time range intersects tr, as maximal
	// contiguous runs (block time ranges need not be sorted, so pruning can
	// split the keep-set).
	type run struct {
		it       *profiledata.IndexedTrace
		name     string
		from, to int
	}
	var runs []run
	kept, indexed := 0, false
	for i, path := range paths {
		it, err := profiledata.OpenIndexedTrace(path)
		if err != nil {
			// No usable index. The stream reader ignores trailing footers,
			// so it reads everything; a missing file surfaces when it opens.
			sw.bounded = false
			j := streamJob(path, i)
			if i == 0 {
				sr, f, err := openStream(path, bufs)
				if err != nil {
					return nil, err
				}
				sw.closers = append(sw.closers, f)
				sw.weight = sr.Weight()
				j.open = func(*profiledata.Buffers) (*profiledata.SampleReader, func(), error) {
					return sr, func() {}, nil
				}
			}
			sw.jobs = append(sw.jobs, j)
			continue
		}
		sw.closers = append(sw.closers, it)
		indexed = true
		if i == 0 {
			sw.weight = it.Weight()
		}
		if it.Weight() != sw.weight {
			sw.close()
			return nil, fmt.Errorf("drbw: shard %s has weight %v, the first shard has %v", path, it.Weight(), sw.weight)
		}
		name := "blocks"
		if len(paths) > 1 {
			name = path
		}
		for b := 0; b < it.Blocks(); b++ {
			e := it.Entry(b)
			if tr.skipBlock(e) {
				sw.skipped += int64(e.Count)
				continue
			}
			kept++
			sw.bounds.union(sampleSpan{n: int64(e.Count), minT: e.MinTime, maxT: e.MaxTime})
			if n := len(runs); n > 0 && runs[n-1].it == it && runs[n-1].to == b {
				runs[n-1].to = b + 1
			} else {
				runs = append(runs, run{it: it, name: name, from: b, to: b + 1})
			}
		}
	}
	if indexed && testHookIndexOpened != nil {
		testHookIndexOpened()
	}
	// Cutting runs into ~4 chunks per worker lets stragglers rebalance
	// without degenerating into per-block jobs.
	perChunk := max(1, kept)
	if workers := core.PoolWorkers(); !serial && workers > 1 {
		perChunk = max(1, kept/(workers*4))
	}
	for _, r := range runs {
		for from := r.from; from < r.to; from += perChunk {
			it, from, to := r.it, from, min(from+perChunk, r.to)
			sw.jobs = append(sw.jobs, job{name: r.name, from: from, to: to,
				open: func(bufs *profiledata.Buffers) (*profiledata.SampleReader, func(), error) {
					sr, err := it.RangeReader(from, to, bufs)
					return sr, func() {}, err
				}})
		}
	}
	return sw, nil
}

// streamJob is a whole-file stream job over path, the i-th input.
func streamJob(path string, i int) job {
	return job{name: path, from: i, to: i + 1,
		open: func(bufs *profiledata.Buffers) (*profiledata.SampleReader, func(), error) {
			sr, f, err := openStream(path, bufs)
			if err != nil {
				return nil, nil, err
			}
			return sr, func() { f.Close() }, nil
		}}
}

// openStream opens path for streaming on bufs.
func openStream(path string, bufs *profiledata.Buffers) (*profiledata.SampleReader, *os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("drbw: %w", err)
	}
	sr, err := profiledata.NewSampleReaderBuffers(f, bufs)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return sr, f, nil
}

// runJob streams one job through st.
func (t *Tool) runJob(st *analysisState, j *job, tr timeRange) error {
	sr, done, err := j.open(&st.bufs)
	if err != nil {
		return err
	}
	defer done()
	if sr.Weight() != st.weight {
		return fmt.Errorf("drbw: shard %s has weight %v, the first shard has %v", j.name, sr.Weight(), st.weight)
	}
	for {
		block, err := sr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := t.add(st, block, tr); err != nil {
			return err
		}
	}
}

// analyze is the kernel's entry: read the objects table, dispatch the
// input into jobs, run them — in order on sc when the caller supplies its
// worker's state (a batch member), inline on a fresh state when there is
// one job, across the worker pool otherwise — merge, and finish. When a
// tracer is installed every pooled job becomes a child span of parent
// carrying the portion name, [from, to) range and worker id. Errors surface
// from the lowest-indexed failing job so reruns are deterministic.
func (t *Tool) analyze(paths []string, objectsPath string, tr timeRange, sc *analysisState, label string, parent obs.SpanHandle) (*Report, error) {
	objects, err := readObjectsFile(objectsPath)
	if err != nil {
		return nil, err
	}
	// DenseCF needs the objects table before the first sample. A table
	// that does not form valid ranges (nil) skips it, and its error
	// surfaces only if something is detected and CF is actually needed.
	table, tableErr := profiledata.NewTable(objects)
	st := sc
	if st == nil {
		st = &analysisState{}
	}
	sw, err := t.dispatch(paths, tr, sc != nil, &st.bufs)
	if err != nil {
		return nil, err
	}
	defer sw.close()
	t.reset(st, sw, table)
	if sc != nil || len(sw.jobs) == 1 {
		for i := 0; i < len(sw.jobs) && err == nil; i++ {
			err = t.runJob(st, &sw.jobs[i], tr)
		}
	} else {
		ws := &workerStates{make: func() *analysisState {
			w := &analysisState{}
			t.reset(w, sw, table)
			return w
		}}
		errs := make([]error, len(sw.jobs))
		core.ParallelForLabeledSpans(len(sw.jobs), label, parent, func(i, w int, cs obs.SpanHandle) {
			sw.jobs[i].annotate(cs)
			errs[i] = t.runJob(ws.get(w), &sw.jobs[i], tr)
		})
		err = firstError(errs)
		for _, w := range ws.states {
			if err == nil && w != nil {
				err = st.merge(w)
			}
		}
	}
	if err != nil {
		return nil, err
	}
	if sw.bounded {
		if err := checkIndexAgrees(sw.bounds, st.seen); err != nil {
			return nil, err
		}
	}
	return t.finish(st, tr, sw.skipped, tableErr)
}

// finish classifies the merged state and assembles the report: verdict,
// contended channels, timeline and, when contended, the CF attribution
// projected from the dense counts.
func (t *Tool) finish(st *analysisState, tr timeRange, skipped int64, tableErr error) (*Report, error) {
	if st.seen.n == 0 {
		return nil, errNoSamples(tr, int(st.raw+skipped))
	}
	rep := &Report{Samples: st.seen.n}
	contended := t.classify(st.acc, st.weight, rep)
	rep.attachTimeline(st.tl.Buckets())
	if !rep.Detected {
		return rep, nil
	}
	if tableErr != nil {
		return nil, tableErr
	}
	diag := st.dcf.Restrict(contended).Report()
	for _, o := range diag.Overall {
		rep.Objects = append(rep.Objects, ObjectCF{
			Name: o.Object.Name, Site: o.Object.Site.String(),
			CF: o.CF, Samples: o.Samples,
		})
	}
	rep.UnattributedCF = diag.UnattributedCF
	return rep, nil
}

// classify runs the trained tree over the accumulated per-channel vectors,
// marks the report, and returns the contended channels in stable order.
func (t *Tool) classify(acc *features.Accumulator, weight float64, rep *Report) []topology.Channel {
	var contended []topology.Channel
	for ch, vec := range acc.Vectors(weight, t.detector.MinSamples) {
		v := vec
		label := features.Label(t.tree.Predict(v[:]))
		core.CountPrediction(label)
		if label == features.RMC {
			rep.Detected = true
			contended = append(contended, ch)
		}
	}
	sortChannelsStable(contended)
	core.CountDetectCase(rep.Detected)
	for _, ch := range contended {
		rep.Channels = append(rep.Channels, ch.String())
	}
	return contended
}

// errNoSamples distinguishes an empty recording from a time window that
// excluded everything.
func errNoSamples(tr timeRange, rawSamples int) error {
	if tr.limited && rawSamples > 0 {
		return fmt.Errorf("drbw: no samples in time range [%v, %v]", tr.lo, tr.hi)
	}
	return fmt.Errorf("drbw: recording has no samples")
}

// firstError returns the error of the lowest-indexed failing job.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// readObjectsFile loads a recorded objects table.
func readObjectsFile(path string) ([]alloc.Object, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("drbw: %w", err)
	}
	defer f.Close()
	return profiledata.ReadObjects(f)
}
