// Command perfbench is the repository benchmark. It runs one named
// workload for a fixed time, checks the program's outputs, and prints one
// JSON result line last:
//
//	go build -o perfbench . && ./perfbench --workload serve-flat --seed 1 --seconds 10 --trace 0
//
// run from the repository root (it reads BENCHMARK.json and the committed
// figure goldens from there). --trace 0 reports the end-to-end metrics of
// BENCHMARK.json; --trace 1 is the separate traced run: it records spans
// around every layer call the benchmark makes, writes them with self times
// under .bench_out/, and reports the per-layer metrics. README.md in this
// directory lists the workloads, latency limits and layer predictions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// benchmarkFile is the metric catalogue the result line must match.
const benchmarkFile = "BENCHMARK.json"

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	procs   int
	tr      *tracer // nil in untraced runs
}

// outcome is one workload run's findings. values holds every metric the
// run measured, by name; the result line picks the ones BENCHMARK.json
// lists for the run's mode.
type outcome struct {
	attempted, failed int64
	values            map[string]float64
	problems          []string // failed output checks
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

var runners = map[string]func(runConfig) (*outcome, error){
	"repro-figs": runReproFigs,
	"serve-flat": runServeFlat,
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload name (see BENCHMARK.json)")
		seed     = flag.Int64("seed", 1, "seed for the generated inputs")
		seconds  = flag.Float64("seconds", 10, "length of the timed phase")
		traced   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	spec, err := loadSpec(benchmarkFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fn, ok := runners[*workload]
	if !ok || !spec.hasWorkload(*workload) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	rc := runConfig{seed: *seed, seconds: *seconds, procs: runtime.GOMAXPROCS(0)}
	defs := spec.EndToEnd
	if *traced == 1 {
		rc.tr = newTracer()
		defs = spec.PerLayer
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%d GOMAXPROCS=%d NumCPU=%d %s\n",
		*workload, *seed, *seconds, *traced, rc.procs, runtime.NumCPU(), runtime.Version())
	out, err := fn(rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if rc.tr != nil {
		path := fmt.Sprintf(".bench_out/spans-%s-seed%d.jsonl", *workload, *seed)
		if err := rc.tr.finish(path, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	res := result{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := out.values[d.Name]
		if !ok {
			v = 0 // a layer this workload does not exercise
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	printReport(out)
	for _, p := range out.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct || res.Attempted < 1 {
		return 1
	}
	return 0
}

func loadSpec(path string) (*benchmarkSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read metric catalogue (run from the repository root): %w", err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

func (s *benchmarkSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// printReport lists every value the run measured, by name, so the human
// output carries the workload-specific metrics the result line omits.
func printReport(o *outcome) {
	names := make([]string, 0, len(o.values))
	for n := range o.values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("attempted=%d failed=%d fail_frac=%.6f\n", o.attempted, o.failed,
		float64(o.failed)/float64(max(o.attempted, 1)))
	for _, n := range names {
		fmt.Printf("  %-32s %.6g\n", n, o.values[n])
	}
}
