package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sqlgraph"
	"repro/internal/testutil"
)

// setupReps is how many times each workload sets up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 9

const (
	prIterations = 10 // the paper's PageRank depth
	prDamping    = 0.85
)

// fig2Algo is one of the four Figure 2 runs with its reference
// answers. Rotation rot runs it on input rot % len(want) and checks the
// result against want[rot % len(want)].
type fig2Algo struct {
	metric string
	run    func(ctx context.Context, rot int) (map[int64]float64, *core.RunStats, error)
	want   []map[int64]float64
	tol    float64
}

func (a fig2Algo) wantAt(rot int) map[int64]float64 { return a.want[rot%len(a.want)] }

// ssspSources is how many sources the SSSP runs cycle through: the
// highest-out-degree vertices. One source's depth varies with the seed
// (13 to 17 supersteps over seeds 1 to 12), and SQL SSSP time with it;
// across four hubs of one graph the depths even out (56 to 63 supersteps
// in total over seeds 1 to 8).
const ssspSources = 4

// setupFig2 generates the graph and bulk-loads it into a fresh
// in-memory engine.
func setupFig2(o options) (*core.Graph, *graphData, time.Duration, time.Duration, error) {
	t0 := time.Now()
	gd := generate(o.Seed, o.Nodes)
	t1 := time.Now()
	g, err := core.CreateGraph(engine.New(), "fig2")
	if err != nil {
		return nil, nil, 0, 0, err
	}
	vals := make(map[int64]string, gd.ds.Nodes)
	for v := int64(0); v < gd.ds.Nodes; v++ {
		vals[v] = ""
	}
	if err := g.BulkLoad(vals, gd.coreEdges()); err != nil {
		return nil, nil, 0, 0, err
	}
	return g, gd, t1.Sub(t0), time.Since(t1), nil
}

func runFig2(o options) (*result, error) {
	r := newResult(wFig2)
	var (
		g              *core.Graph
		gd             *graphData
		setup, gen, ld []float64
	)
	harness := harnessHeapMB(o)
	for i := 0; i < setupReps; i++ {
		g, gd = nil, nil
		runtime.GC()
		t0 := time.Now()
		var genD, loadD time.Duration
		var err error
		if g, gd, genD, loadD, err = setupFig2(o); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
		gen = append(gen, genD.Seconds())
		ld = append(ld, loadD.Seconds())
	}
	r.Metrics["setup_s"] = median(setup)
	r.Metrics["live_heap_mb"] = liveHeapMB() - harness
	if o.Trace {
		r.Metrics["dataset.generate_s"] = median(gen)
		r.Metrics["storage.load_s"] = median(ld)
	}

	ref := &testutil.RefGraph{Nodes: gd.ds.Nodes, Edges: gd.coreEdges()}
	wantPR := []map[int64]float64{testutil.RefPageRank(ref, prIterations, prDamping)}
	srcs := gd.hubs(ssspSources)
	var wantSP []map[int64]float64
	for _, src := range srcs {
		wantSP = append(wantSP, testutil.RefShortestPaths(ref, src, false))
	}
	source := func(rot int) int64 { return srcs[rot%len(srcs)] }
	algos := []fig2Algo{
		{"pagerank_s", func(ctx context.Context, _ int) (map[int64]float64, *core.RunStats, error) {
			return algorithms.RunPageRank(ctx, g, prIterations, core.Options{})
		}, wantPR, 1e-9},
		{"pagerank_sql_s", func(ctx context.Context, _ int) (map[int64]float64, *core.RunStats, error) {
			m, err := sqlgraph.PageRank(ctx, g, prIterations, prDamping)
			return m, nil, err
		}, wantPR, 1e-9},
		{"sssp_s", func(ctx context.Context, rot int) (map[int64]float64, *core.RunStats, error) {
			m, st, err := algorithms.RunSSSP(ctx, g, source(rot), false, core.Options{})
			return testutil.DropInf(m), st, err
		}, wantSP, 1e-12},
		{"sssp_sql_s", func(ctx context.Context, rot int) (map[int64]float64, *core.RunStats, error) {
			m, err := sqlgraph.ShortestPaths(ctx, g, source(rot), false)
			return m, nil, err
		}, wantSP, 1e-12},
	}
	return r, measureFig2(r, o, algos)
}

// secondsPerRotation sets how many rotations of the four algorithms a
// run makes from --seconds alone, so both sides of a comparison run the
// same work whatever their speed. A rotation takes about 6 s on a 2-CPU
// box. The count is a multiple of ssspSources, so every SSSP source
// runs equally often (and of four, for the traced order).
const secondsPerRotation = 6

// fig2Rotations is the fixed rotation count: --seconds/6 rounded to a
// multiple of four, at least four (4 at 25 s).
func fig2Rotations(o options) int {
	n := int((o.Window + 2*secondsPerRotation*time.Second) / (4 * secondsPerRotation * time.Second) * 4)
	if n < 4 {
		n = 4
	}
	return n
}

// tracedRotation orders a traced run's rotations untraced, traced,
// traced, untraced, and so on. Within each adjacent pair (2k, 2k+1) the
// traced rotation comes second in even pairs and first in odd ones, so
// a steady drift cancels out of the mean of the pairs' time ratios.
func tracedRotation(o options, rot int) bool {
	return o.Trace && (rot%4 == 1 || rot%4 == 2)
}

// measureFig2 warms up, then runs the four algorithms in turn for a
// fixed number of rotations. In a traced run, half the rotations are
// traced (MemStats around each call, RunStats kept) and half are not,
// so their pagerank_s times give the tracing overhead.
func measureFig2(r *result, o options, algos []fig2Algo) error {
	ctx := context.Background()
	for _, a := range algos {
		got, _, err := a.run(ctx, 0)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", a.metric, err)
		}
		r.check(testutil.DiffFloatMaps(a.metric, got, a.wantAt(0), a.tol))
	}

	times := map[bool]map[string][]float64{false: {}, true: {}}
	mem := map[string][]memDelta{}
	stats := map[string]*core.RunStats{}
	var gcPerRot []float64
	for rot := 0; rot < fig2Rotations(o); rot++ {
		traced := tracedRotation(o, rot)
		gcs := 0.0
		for _, a := range algos {
			runtime.GC()
			var before runtime.MemStats
			if traced {
				before = readMem()
			}
			t0 := time.Now()
			got, st, err := a.run(ctx, rot)
			d := time.Since(t0).Seconds()
			if traced {
				md := diffMem(before, readMem())
				mem[a.metric] = append(mem[a.metric], md)
				gcs += md.GCs
				if st != nil {
					stats[a.metric] = st
				}
			}
			r.Attempted++
			if err != nil {
				// A failed run misses every latency limit.
				r.Failed++
				d = math.Inf(1)
			} else {
				r.check(testutil.DiffFloatMaps(a.metric, got, a.wantAt(rot), a.tol))
			}
			times[traced][a.metric] = append(times[traced][a.metric], d)
		}
		if traced {
			gcPerRot = append(gcPerRot, gcs)
		}
		// Each rotation's times go to stderr, so a run's spread can
		// be read next to its medians.
		fmt.Fprintf(os.Stderr, "vxperf: fig2 rotation %d traced=%t:", rot, traced)
		for _, a := range algos {
			ts := times[traced][a.metric]
			fmt.Fprintf(os.Stderr, " %s=%.3f", a.metric, ts[len(ts)-1])
		}
		fmt.Fprintln(os.Stderr)
	}

	if !o.Trace {
		for _, a := range algos {
			r.Metrics[a.metric] = median(times[false][a.metric])
		}
		return nil
	}
	r.Metrics["bench.trace_overhead_pct"] = pairedOverheadPct(times[false]["pagerank_s"], times[true]["pagerank_s"])
	r.Metrics["runtime.gc_cycles"] = median(gcPerRot)
	medMem := func(metric string, f func(memDelta) float64) float64 {
		var xs []float64
		for _, m := range mem[metric] {
			xs = append(xs, f(m))
		}
		return median(xs)
	}
	mallocs := func(m memDelta) float64 { return m.Mallocs }
	r.Metrics["core.pagerank_mallocs"] = medMem("pagerank_s", mallocs)
	r.Metrics["sqlgraph.pagerank_mallocs"] = medMem("pagerank_sql_s", mallocs)
	r.Metrics["sqlgraph.pagerank_alloc_mb"] = medMem("pagerank_sql_s", func(m memDelta) float64 { return m.AllocBytes / (1 << 20) })
	r.Metrics["sqlgraph.sssp_mallocs"] = medMem("sssp_sql_s", mallocs)
	coreStats(r, stats["pagerank_s"], stats["sssp_s"])
	return nil
}

// pairedOverheadPct is the mean over adjacent rotation pairs of traced
// time over untraced time, as a percentage above 1; untraced[k] and
// traced[k] come from pair k.
func pairedOverheadPct(untraced, traced []float64) float64 {
	var sum float64
	for k := range traced {
		sum += traced[k] / untraced[k]
	}
	return (sum/float64(len(traced)) - 1) * 100
}

// coreStats reads the vertex runtime's own counters: PageRank keeps
// every vertex active (input assembly, messages, input cache), SSSP's
// sparse activity shows in write-back choice and partition skipping.
func coreStats(r *result, pr, sssp *core.RunStats) {
	if pr != nil {
		var input int64
		var steps []float64
		for _, s := range pr.Steps {
			input += int64(s.InputRows)
			steps = append(steps, ms(s.Duration))
		}
		r.Metrics["core.supersteps"] = float64(pr.Supersteps)
		r.Metrics["core.superstep_ms"] = median(steps)
		r.Metrics["core.input_rows"] = float64(input)
		r.Metrics["core.messages"] = float64(pr.TotalMessages)
		if n := pr.CacheHits + pr.CacheBuilds; n > 0 {
			r.Metrics["core.cache_hit_ratio"] = float64(pr.CacheHits) / float64(n)
		}
	}
	if sssp != nil {
		var updated, replace int64
		for _, s := range sssp.Steps {
			updated += int64(s.Updated)
			if s.UsedReplace {
				replace++
			}
		}
		r.Metrics["core.updated_rows"] = float64(updated)
		r.Metrics["core.replace_steps"] = float64(replace)
		r.Metrics["core.skipped_parts"] = float64(sssp.SkippedParts)
	}
}
