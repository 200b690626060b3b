// Command perfbench is DR-BW's end-to-end benchmark. It runs one named
// workload (train, pipeline or analyze) through the public drbw API for a
// fixed number of seconds, checks every output it produces, and prints one
// JSON line with the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1). README.md lists the workloads and metrics.
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload train --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupRepeats is how many times a run performs its set-up; setup_s is the
// median, and the last set-up's products feed the measurement.
const setupRepeats = 3

// maxLoggedFailures bounds the failure messages copied to standard error.
const maxLoggedFailures = 10

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one benchmark run: its arguments, scratch directory, operation
// tally and the metrics it reports.
type bench struct {
	seed    uint64
	seconds float64
	trace   bool
	dir     string

	attempted, failed int
	setupS            float64 // median set-up time
	metrics           map[string]metric
}

// op counts one operation, failed when err is non-nil.
func (b *bench) op(err error) {
	b.attempted++
	if err == nil {
		return
	}
	b.failed++
	if b.failed <= maxLoggedFailures {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", err)
	}
}

func (b *bench) set(name, unit string, v float64) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// scratch returns a fresh directory under the run's scratch directory.
func (b *bench) scratch(name string) (string, error) {
	d := filepath.Join(b.dir, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}

// setup runs fn setupRepeats times, each in a fresh directory, and keeps
// the median duration for setup_s.
func (b *bench) setup(fn func(dir string) error) error {
	times := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		dir, err := b.scratch("setup")
		if err != nil {
			return err
		}
		start := time.Now()
		if err := fn(dir); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	b.setupS = median(times)
	return nil
}

// loop calls fn until budget seconds have elapsed, at least once, and
// returns each call's duration in seconds.
func loop(budget float64, fn func()) []float64 {
	var times []float64
	start := time.Now()
	for len(times) == 0 || time.Since(start).Seconds() < budget {
		t := time.Now()
		fn()
		times = append(times, time.Since(t).Seconds())
	}
	return times
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0, so an idle layer reads 0 instead of NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func main() {
	workload := flag.String("workload", "", "workload to run: train, pipeline or analyze")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Float64("seconds", 20, "seconds the run measures")
	trace := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.Parse()
	run, ok := map[string]func(*bench) error{
		"train":    runTrain,
		"pipeline": runPipeline,
		"analyze":  runAnalyze,
	}[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload train|pipeline|analyze --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := benchMain(run, uint64(*seed), *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchMain(run func(*bench) error, seed uint64, seconds float64, traced bool) error {
	// One process, never more OS threads running Go code than host CPUs.
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	if traced {
		// Fine enough that every simulated L3 array (2.5 MiB) is sampled:
		// the hierarchy-build count behind cache.pool_reuse is exact.
		runtime.MemProfileRate = 64 << 10
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	b := &bench{seed: seed, seconds: seconds, trace: traced, dir: dir, metrics: map[string]metric{}}
	if err := run(b); err != nil {
		return err
	}
	for name, m := range b.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	out, err := json.Marshal(result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
