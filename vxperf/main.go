// Command vxperf is the repository's benchmark. Each workload builds its
// inputs from --seed, sets up (several times, reporting the median),
// warms up, measures for --seconds, checks every output, and prints one
// JSON line as the last line of standard output:
//
//	{"correct": true, "attempted": n, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics, measured with
// the engine at its default settings and no layer timing. Every
// workload reports all of them: setup_s, live_heap_mb and four slots,
// op_a_ms to op_d_ms, that each workload fills with its own figures
// (the Figures of spec.go; vertex-centric PageRank time on fig2 and
// lookup p50 on the OLTP workloads under op_a_ms, for instance).
// With --trace 1 they are the per-layer metrics, timed around public
// calls into each module and read from counters the program exposes.
//
// Run it from the repository root through vxperf/run.sh, which builds
// it first:
//
//	bash vxperf/run.sh --workload oltp-read --seed 1 --seconds 25 --trace 0
//	bash vxperf/run.sh --workload all --seed 1 --seconds 25
//
// --workload all runs the three workloads in one process and prints a
// table of every end-to-end metric. -write-spec DIR regenerates
// DIR/BENCHMARK.json and DIR/vxperf/spec.json from the tables in spec.go.
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

// options configure one workload run.
type options struct {
	Seed   int64
	Window time.Duration
	Trace  bool
	TmpDir string
	Nodes  int64 // graph size; tests shrink it
}

// result is what one workload run measured and checked.
type result struct {
	Workload  string
	Attempted int64
	Failed    int64
	Metrics   map[string]float64
	Errors    []string // failed output checks
}

func newResult(w string) *result {
	return &result{Workload: w, Metrics: map[string]float64{}}
}

// check records a failed output check; the run then reports
// correct=false and exits non-zero.
func (r *result) check(err error) {
	if err != nil && len(r.Errors) < 20 {
		r.Errors = append(r.Errors, err.Error())
	}
}

func (r *result) correct() bool { return len(r.Errors) == 0 }

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// output selects the metrics the run reports: every end-to-end metric
// untraced, each filled with the workload's own figure for it, and
// every per-layer metric traced (0 where
// the workload does not exercise the layer). A metric the workload
// must measure that was not measured, or a metric that is not a
// number, fails the run.
func (r *result) output(trace bool) jsonResult {
	out := jsonResult{Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]jsonMetric{}}
	if trace {
		measured := map[string]bool{}
		for _, name := range measuredOn(r.Workload) {
			measured[name] = true
		}
		for _, m := range perLayer {
			v, ok := r.Metrics[m.Name]
			if !ok && measured[m.Name] {
				r.check(fmt.Errorf("metric %s was not measured", m.Name))
			}
			out.Metrics[m.Name] = jsonMetric{Value: v, Unit: m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			v, ok := m.value(r.Workload, r.Metrics)
			if !ok {
				r.check(fmt.Errorf("metric %s (%s) was not measured", m.Name, m.figure(r.Workload)))
				continue
			}
			out.Metrics[m.Name] = jsonMetric{Value: v, Unit: m.Unit}
		}
	}
	for name, m := range out.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.check(fmt.Errorf("metric %s is %v", name, m.Value))
			out.Metrics[name] = jsonMetric{Value: -1, Unit: m.Unit}
		}
	}
	if out.Attempted < 1 {
		r.check(fmt.Errorf("no operation attempted"))
	}
	out.Correct = r.correct()
	return out
}

func runWorkload(name string, o options) (*result, error) {
	switch name {
	case wFig2:
		return runFig2(o)
	case wOLTPRead:
		return runOLTP(o, false)
	case wOLTPWrite:
		return runOLTP(o, true)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func main() {
	var (
		wl      = flag.String("workload", "", "fig2, oltp-read, oltp-write, or all")
		seed    = flag.Int64("seed", defaultSeed, "workload seed")
		seconds = flag.Int("seconds", runSeconds, "measured window per workload, in seconds")
		trace   = flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
		tmp     = flag.String("tmp", os.TempDir(), "directory for the durable workload's database")
		spec    = flag.String("write-spec", "", "write BENCHMARK.json and vxperf/spec.json under this repository root, then exit")
	)
	flag.Parse()
	if *spec != "" {
		if err := writeSpec(*spec); err != nil {
			fmt.Fprintln(os.Stderr, "vxperf:", err)
			os.Exit(1)
		}
		return
	}
	names := []string{*wl}
	if *wl == "all" {
		names = []string{wFig2, wOLTPRead, wOLTPWrite}
	}
	// A wedged run must still end: each workload, with its set-up and
	// checks, gets a fixed allowance.
	limit := time.Duration(len(names)) * 170 * time.Second
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "vxperf: run exceeded %v\n", limit)
		os.Exit(3)
	})
	o := options{Seed: *seed, Window: time.Duration(*seconds) * time.Second, Trace: *trace == 1,
		TmpDir: *tmp, Nodes: graphNodes}
	fmt.Fprintf(os.Stderr, "vxperf: seed=%d seconds=%d trace=%d GOMAXPROCS=%d\n",
		*seed, *seconds, *trace, runtime.GOMAXPROCS(0))

	ok := true
	var lines []jsonResult
	for _, name := range names {
		r, err := runWorkload(name, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vxperf: %s: %v\n", name, err)
			os.Exit(1)
		}
		out := r.output(o.Trace)
		for _, e := range r.Errors {
			fmt.Fprintf(os.Stderr, "vxperf: %s: check failed: %s\n", name, e)
		}
		ok = ok && out.Correct
		if len(names) > 1 {
			printTable(name, out)
		}
		lines = append(lines, out)
	}
	for _, out := range lines {
		b, err := json.Marshal(out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vxperf:", err)
			os.Exit(1)
		}
		fmt.Println(string(b))
	}
	if !ok {
		os.Exit(1)
	}
}

func printTable(name string, out jsonResult) {
	fmt.Printf("%s: attempted=%d failed=%d correct=%t\n", name, out.Attempted, out.Failed, out.Correct)
	keys := make([]string, 0, len(out.Metrics))
	for k := range out.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	figure := map[string]string{}
	for _, m := range endToEnd {
		if f := m.figure(name); f != m.Name {
			figure[m.Name] = "(" + f + ")"
		}
	}
	for _, k := range keys {
		fmt.Printf("  %-32s %-16s %14.6g %s\n", k, figure[k], out.Metrics[k].Value, out.Metrics[k].Unit)
	}
}

// The benchmark's contract with the driver that runs it.
const (
	runSeconds  = 25
	defaultSeed = 1
	heldOutSeed = 2
)

type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []nameWhy      `json:"workloads"`
	EndToEnd   []contractStat `json:"end_to_end"`
	PerLayer   []contractStat `json:"per_layer"`
}

type nameWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type contractStat struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// specJSON is the longer record kept beside the benchmark: workload
// shapes, the metric map, and the seeds.
type specJSON struct {
	DefaultSeed int64           `json:"default_seed"`
	HeldOutSeed int64           `json:"held_out_seed"`
	GOMAXPROCS  string          `json:"gomaxprocs"`
	Workloads   []workload      `json:"workloads"`
	EndToEnd    []metric        `json:"end_to_end"`
	PerLayer    []metric        `json:"per_layer"`
	Dropped     []string        `json:"dropped_workloads"`
	DroppedM    []droppedMetric `json:"dropped_metrics"`
}

func writeSpec(root string) error {
	b := benchmarkJSON{
		Command:    []string{"bash", "vxperf/run.sh"},
		Paths:      []string{"vxperf"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, nameWhy{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		bound := m.Bound
		b.EndToEnd = append(b.EndToEnd, contractStat{m.Name, m.Unit, m.Better, &bound})
	}
	for _, m := range perLayer {
		b.PerLayer = append(b.PerLayer, contractStat{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	s := specJSON{
		DefaultSeed: defaultSeed, HeldOutSeed: heldOutSeed,
		GOMAXPROCS: "runtime default (the CPU count; 2 on the reference box); each run logs it to stderr",
		Workloads:  workloads, EndToEnd: endToEnd, PerLayer: perLayer,
		Dropped: []string{}, DroppedM: droppedMetrics,
	}
	if err := writeJSON(filepath.Join(root, "BENCHMARK.json"), b); err != nil {
		return err
	}
	return writeJSON(filepath.Join(root, "vxperf", "spec.json"), s)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
