package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"drbw"
	"drbw/internal/core"
)

// probeBudget is the host time each analysis route gets when train and
// pipeline measure the analysis rates on their set-up recordings, in
// slices between their timed operations.
const probeBudget = 2.0

// paperTableIIIFalseNegatives is the number of contended training runs the
// paper's Table III (10-fold cross validation, 117/3/3/69) classifies as
// good. Cross validation on this simulator has matched it on every seed
// tried; more is a regression of the classifier.
const paperTableIIIFalseNegatives = 3

// pipelineCases are the pipeline workload's cases: a replicate fix, a
// three-object fix whose search aborts candidates on the cycle budget,
// and a clean case that skips the search.
func pipelineCases(seed uint64) []benchCase {
	return []benchCase{
		{"Streamcluster", drbw.Case{Input: "native", Threads: 32, Nodes: 4, Seed: seed}},
		{"AMG2006", drbw.Case{Threads: 32, Nodes: 4, Seed: seed}},
		{"Blackscholes", drbw.Case{Threads: 16, Nodes: 2, Seed: seed}},
	}
}

// contendedCases are the pipeline cases that are contended in the paper's
// ground truth (Table V); a clean verdict on one is a false negative.
var contendedCases = map[string]bool{"Streamcluster": true, "AMG2006": true}

// analyzeCases records every built-in benchmark at T32-N4.
func analyzeCases(seed uint64) []benchCase {
	var out []benchCase
	for _, name := range drbw.Benchmarks() {
		out = append(out, benchCase{name, drbw.Case{Threads: 32, Nodes: 4, Seed: seed}})
	}
	return out
}

// quickSetup trains the quick model every workload's set-up starts from
// and records cases into a corpus. It returns the simulator rate of the
// recording step in simulated accesses per host second.
func quickSetup(seed uint64, cases []benchCase, dir string) (*drbw.Tool, *corpus, float64, error) {
	tool, err := drbw.Train(drbw.Config{Quick: true, Seed: seed})
	if err != nil {
		return nil, nil, 0, err
	}
	before := readCounts()
	start := time.Now()
	c, err := recordCorpus(tool, cases, dir)
	if err != nil {
		return nil, nil, 0, err
	}
	rate := readCounts().since(before).simulated() / time.Since(start).Seconds()
	return tool, c, rate, nil
}

// sectionBudget is the host time of one timed section. An untraced run
// measures one section of the whole --seconds. A traced run measures an
// untraced and a traced section of a quarter each, which together give
// trace_overhead_frac, and leaves time for the layer sweeps.
func (b *bench) sectionBudget() float64 {
	if b.trace {
		return b.seconds / 4
	}
	return b.seconds
}

// timed runs a workload's timed sections: the untraced one, and in a traced
// run the traced one after it. The probe advances between the untraced
// section's operations and completes after it.
func (b *bench) timed(fn func(), probe *routeProbe) (untraced, traced *section, err error) {
	untraced, err = measure(b.sectionBudget(), false, fn, probe.advance)
	probe.advance(1)
	if err != nil || !b.trace {
		return untraced, nil, err
	}
	traced, err = measure(b.sectionBudget(), true, fn, nil)
	return untraced, traced, err
}

// reportEndToEnd sets the end-to-end metrics of an untraced run from its
// timed section, the simulator rate and the analysis routes. Call it last:
// ok_frac covers every operation counted before it.
func (b *bench) reportEndToEnd(s *section, wall, simRate float64, rs map[string]*routeStats) {
	b.set("setup_s", "s", b.setupS)
	b.set("wall_s", "s", wall)
	b.set("peak_heap_mb", "MB", s.peakMB)
	b.set("sim_maccesses_per_s", "Maccess/s", simRate/1e6)
	for _, route := range []string{"binary", "csv", "range"} {
		st := rs[route]
		b.set("analyze_"+route+"_msps", "Msamples/s", ratio(float64(st.analyzed), st.pass())/1e6)
	}
	// The share of operations that passed every check: 1 - failed_frac.
	b.set("ok_frac", "frac", 1-ratio(float64(b.failed), float64(b.attempted)))
}

// simRate is a section's simulated accesses per host second of its calls.
func (s *section) simRate() float64 { return s.delta.simulated() / sum(s.iters) }

// reportLayers sets the per-layer metrics every traced run reports: the
// simulator's exact counts and host time per timed iteration, CPU shares,
// the batch pool and the hierarchy pool, tracing overhead, the layer sweeps
// over the corpus, and failed_frac. Metrics of layers a workload does not
// use read 0; the workload sets them afterwards.
func (b *bench) reportLayers(tool *drbw.Tool, c *corpus, rs map[string]*routeStats, traced *section, wallU, wallT float64) error {
	iters := float64(len(traced.iters))
	sp := collectSpans(traced.spans)
	for name := range engineCounters {
		if name != "engine.runs" && name != "engine.warmup_accesses" {
			b.set(name, "count", float64(traced.delta[name])/iters)
		}
	}
	b.set("engine.run_s", "s", sp.dur["engine.run"]/iters)
	b.set("engine.ns_per_access", "ns", ratio(sp.dur["engine.run"]*1e9, traced.delta.simulated()))
	for _, pkg := range cpuPackages {
		b.set("cpu_share."+pkg, "frac", traced.cpuShare[pkg])
	}
	b.set("core.pool_busy_frac", "frac", ratio(sum(sp.caseSpans), sp.poolSpan*float64(core.PoolWorkers())))
	b.set("core.case_p50_ms", "ms", quantile(sp.caseSpans, 0.5)*1e3)
	b.set("core.case_max_ms", "ms", quantile(sp.caseSpans, 1)*1e3)
	runs := float64(traced.delta["engine.runs"])
	b.set("cache.pool_reuse", "frac", ratio(runs-traced.hierBuilt, runs))
	b.set("search.run_s", "s", sp.dur["search.run"]/iters)
	b.set("trace_overhead_frac", "frac", wallT/wallU-1)
	for _, name := range []string{"dtree.fit_s", "dtree.cv_s", "stage.load_s", "stage.record_s", "stage.save_s", "stage.analyze_s", "stage.optimize_s"} {
		b.set(name, "s", 0)
	}
	for _, name := range []string{"dtree.cv_correct", "dtree.cv_fn", "search.candidates", "search.explored", "search.aborted"} {
		b.set(name, "count", 0)
	}
	b.set("search.useful_frac", "frac", 0)
	for bench := range contendedCases {
		b.set("search.speedup."+bench, "x", 0)
	}
	reportRouteLatency(b, rs)
	if err := readAmplification(b, tool, c); err != nil {
		return err
	}
	if err := layerSweeps(b, c); err != nil {
		return err
	}
	b.set("failed_frac", "frac", ratio(float64(b.failed), float64(b.attempted)))
	return nil
}

// runTrain: full drbw.Train (192 simulated runs) plus CrossValidate, the
// cost every CLI pays without -model.
func runTrain(b *bench) error {
	var quick *drbw.Tool
	var c *corpus
	if err := b.setup(func(dir string) (err error) {
		quick, c, _, err = quickSetup(b.seed, pipelineCases(b.seed), dir)
		return err
	}); err != nil {
		return err
	}
	var first *drbw.Confusion
	var trainSecs, cvSecs []float64
	op := func() {
		start := time.Now()
		tool, err := drbw.Train(drbw.Config{Seed: b.seed})
		trainSecs = append(trainSecs, time.Since(start).Seconds())
		var cm *drbw.Confusion
		if err == nil {
			start = time.Now()
			cm, err = tool.CrossValidate()
			cvSecs = append(cvSecs, time.Since(start).Seconds())
		}
		if err == nil {
			err = checkTableIII(tool, cm, first)
			if first == nil {
				first = cm
			}
		}
		b.op(wrap(err, "train"))
	}
	probe := newRouteProbe(b, quick, c, probeBudget)
	untraced, traced, err := b.timed(op, probe)
	if err != nil {
		return err
	}
	rs := probe.stats
	checkCorpus(b, quick, c, rs)
	if !b.trace {
		b.reportEndToEnd(untraced, median(untraced.iters), untraced.simRate(), rs)
		return nil
	}
	if err := b.reportLayers(quick, c, rs, traced, median(untraced.iters), median(traced.iters)); err != nil {
		return err
	}
	// The traced iterations are the last ones; fitting is what Train spends
	// outside the training-set collection pool.
	tracedTrain := sum(trainSecs[len(trainSecs)-len(traced.iters):])
	sp := collectSpans(traced.spans)
	iters := float64(len(traced.iters))
	b.set("dtree.fit_s", "s", (tracedTrain-sp.dur["pool.train.collect"])/iters)
	b.set("dtree.cv_s", "s", median(cvSecs))
	if first != nil {
		b.set("dtree.cv_correct", "count", float64(first.GoodGood+first.RMCRMC))
		b.set("dtree.cv_fn", "count", float64(first.RMCGood))
	}
	return nil
}

// checkTableIII holds the cross-validation matrix to the training set's
// size, the paper's false-negative count, and the first matrix of the run
// (training is deterministic for a seed).
func checkTableIII(tool *drbw.Tool, cm, first *drbw.Confusion) error {
	switch {
	case cm.Total() != tool.TrainingRuns():
		return fmt.Errorf("cross validation covers %d of %d runs", cm.Total(), tool.TrainingRuns())
	case cm.RMCGood > paperTableIIIFalseNegatives:
		return fmt.Errorf("Table III has %d false negatives, the paper %d", cm.RMCGood, paperTableIIIFalseNegatives)
	case first != nil && *cm != *first:
		return fmt.Errorf("Table III changed between identical runs: %v vs %v", cm, first)
	}
	return nil
}

// searchOutcome is what one case's AutoOptimize decided.
type searchOutcome struct {
	placement string
	speedup   float64
}

// runPipeline: load a saved quick model, then Record, SaveAs binary,
// AnalyzeTraceFile and AutoOptimize three cases.
func runPipeline(b *bench) error {
	cases := pipelineCases(b.seed)
	var quick *drbw.Tool
	var c *corpus
	var model string
	if err := b.setup(func(dir string) (err error) {
		if quick, c, _, err = quickSetup(b.seed, cases, dir); err != nil {
			return err
		}
		model = filepath.Join(dir, "model.json")
		return quick.Save(model)
	}); err != nil {
		return err
	}
	work, err := b.scratch("pipeline")
	if err != nil {
		return err
	}
	stageNames := []string{"load", "record", "save", "analyze", "optimize"}
	stages := map[string][]float64{}
	first := map[string]searchOutcome{}
	var last struct{ candidates, explored, aborted int }
	op := func() {
		cur := map[string]float64{}
		stage := func(name string, start time.Time) { cur[name] += time.Since(start).Seconds() }
		start := time.Now()
		tool, err := drbw.Load(model)
		stage("load", start)
		last.candidates, last.explored, last.aborted = 0, 0, 0
		for _, bc := range cases {
			if err != nil {
				b.op(wrap(err, "load model"))
				continue
			}
			o, cerr := pipelineCase(tool, bc, filepath.Join(work, bc.bench), stage)
			if cerr == nil {
				last.candidates += o.Candidates
				last.explored += o.Explored
				last.aborted += o.AbortedRuns
				got := searchOutcome{o.Placement, o.Speedup}
				if want, ok := first[bc.bench]; !ok {
					first[bc.bench] = got
				} else if got != want {
					cerr = fmt.Errorf("search chose %v, an identical earlier run %v", got, want)
				}
			}
			b.op(wrap(cerr, "pipeline %s", bc.bench))
		}
		for _, name := range stageNames {
			stages[name] = append(stages[name], cur[name])
		}
	}
	probe := newRouteProbe(b, quick, c, probeBudget)
	untraced, traced, err := b.timed(op, probe)
	if err != nil {
		return err
	}
	rs := probe.stats
	checkCorpus(b, quick, c, rs)
	if !b.trace {
		b.reportEndToEnd(untraced, median(untraced.iters), untraced.simRate(), rs)
		return nil
	}
	if err := b.reportLayers(quick, c, rs, traced, median(untraced.iters), median(traced.iters)); err != nil {
		return err
	}
	for _, name := range stageNames {
		b.set("stage."+name+"_s", "s", median(stages[name]))
	}
	b.set("search.candidates", "count", float64(last.candidates))
	b.set("search.explored", "count", float64(last.explored))
	b.set("search.aborted", "count", float64(last.aborted))
	b.set("search.useful_frac", "frac", ratio(float64(last.explored-last.aborted), float64(last.explored)))
	for bench := range contendedCases {
		b.set("search.speedup."+bench, "x", first[bench].speedup)
	}
	return nil
}

// pipelineCase records one case, saves it as indexed binary, analyzes the
// file, and optimizes the case. It fails when the offline report differs
// from the live one AutoOptimize computed, when a contended case is
// reported clean, or when a detection yields no placement.
func pipelineCase(tool *drbw.Tool, bc benchCase, base string, stage func(string, time.Time)) (*drbw.Optimization, error) {
	start := time.Now()
	td, err := tool.Record(bc.bench, bc.c)
	stage("record", start)
	if err != nil {
		return nil, err
	}
	samples, objects := base+".samples.bin", base+".objects.csv"
	start = time.Now()
	err = td.SaveAs(samples, objects, drbw.FormatBinary)
	stage("save", start)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	offline, err := tool.AnalyzeTraceFile(samples, objects)
	stage("analyze", start)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	o, err := tool.AutoOptimize(bc.bench, bc.c, drbw.SearchOptions{})
	stage("optimize", start)
	switch {
	case err != nil:
		return nil, err
	case sameReport(offline, o.Report) != nil:
		return nil, wrap(sameReport(offline, o.Report), "offline vs live report")
	case contendedCases[bc.bench] && !o.Detected:
		return nil, errors.New("contended case reported clean (false negative)")
	case o.Detected && o.Placement == "":
		return nil, errors.New("contention detected but no placement chosen")
	}
	return o, nil
}

// runAnalyze: offline analysis of recordings of all 23 built-in benchmarks
// on four routes, each in its own timed loop. Nothing is simulated while
// timing.
func runAnalyze(b *bench) error {
	var quick *drbw.Tool
	var c *corpus
	var rates []float64
	if err := b.setup(func(dir string) (err error) {
		var rate float64
		quick, c, rate, err = quickSetup(b.seed, analyzeCases(b.seed), dir)
		rates = append(rates, rate)
		return err
	}); err != nil {
		return err
	}
	budget := b.sectionBudget() / float64(len(routes))
	// One section times every route's own loop; wall_s is one pass of each
	// route over the corpus.
	timeRoutes := func(traced bool) (*section, map[string]*routeStats, float64, error) {
		var rs map[string]*routeStats
		s, err := measure(0, traced, func() { rs = measureRoutes(b, quick, c, budget) }, nil)
		wall := 0.0
		for _, st := range rs {
			wall += st.pass()
		}
		return s, rs, wall, err
	}
	untraced, rs, wallU, err := timeRoutes(false)
	if err != nil {
		return err
	}
	checkCorpus(b, quick, c, rs)
	if !b.trace {
		// Nothing is simulated while timing; the simulator rate is the
		// set-up's recording step.
		b.reportEndToEnd(untraced, wallU, median(rates), rs)
		return nil
	}
	traced, _, wallT, err := timeRoutes(true)
	if err != nil {
		return err
	}
	return b.reportLayers(quick, c, rs, traced, wallU, wallT)
}
