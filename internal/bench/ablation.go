package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/sqlgraph"
)

// Ablation studies for the §2.3 optimizations. Each returns rows
// suitable for PrintAblation; each maps to one §2.3 design choice (see
// the README's package map).

// AblationRow is one ablation measurement.
type AblationRow struct {
	Study   string
	Variant string
	Seconds float64
	Extra   string
}

// freshGraph loads the ablation dataset (Twitter-shaped by default).
func freshGraph(scale float64) (*core.Graph, error) {
	return loadVertexica(dataset.TwitterScale(scale))
}

func timedRun(g *core.Graph, iters int, opts core.Options) (float64, *core.RunStats, error) {
	start := time.Now()
	_, stats, err := algorithms.RunPageRank(context.Background(), g, iters, opts)
	return time.Since(start).Seconds(), stats, err
}

// AblationUnionVsJoin compares the paper's Table-Unions input assembly
// against the naive 3-way join (§2.3 "Table Unions").
func AblationUnionVsJoin(scale float64, iters int) ([]AblationRow, error) {
	var rows []AblationRow
	for _, join := range []bool{false, true} {
		g, err := freshGraph(scale)
		if err != nil {
			return nil, err
		}
		secs, stats, err := timedRun(g, iters, core.Options{UseJoinInput: join})
		if err != nil {
			return nil, err
		}
		variant := "union (paper)"
		if join {
			variant = "3-way join"
		}
		inputRows := 0
		for _, s := range stats.Steps {
			inputRows += s.InputRows
		}
		rows = append(rows, AblationRow{
			Study: "U: table unions", Variant: variant, Seconds: secs,
			Extra: fmt.Sprintf("%d input rows total", inputRows),
		})
	}
	return rows, nil
}

// AblationBatching sweeps the number of hash partitions (§2.3 "Vertex
// Batching"): 1 partition = one serial batch; many = finer batches.
func AblationBatching(scale float64, iters int, partitions []int) ([]AblationRow, error) {
	var rows []AblationRow
	for _, p := range partitions {
		g, err := freshGraph(scale)
		if err != nil {
			return nil, err
		}
		secs, _, err := timedRun(g, iters, core.Options{Partitions: p})
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Study: "B: vertex batching", Variant: fmt.Sprintf("%d partitions", p), Seconds: secs,
		})
	}
	return rows, nil
}

// AblationWorkers sweeps worker parallelism (§2.3 "Parallel Workers").
// It uses collaborative filtering rather than PageRank: CF's per-vertex
// compute (latent-vector SGD) is heavy enough that worker scaling is
// visible, whereas PageRank's compute is dwarfed by input assembly at
// laptop scale.
func AblationWorkers(scale float64, iters int, workers []int) ([]AblationRow, error) {
	var rows []AblationRow
	ds := dataset.MakeUndirected(dataset.TwitterScale(scale))
	for _, w := range workers {
		g, err := loadVertexica(ds)
		if err != nil {
			return nil, err
		}
		prog := algorithms.NewCollabFilter(16, iters)
		start := time.Now()
		if _, _, err := algorithms.RunCollabFilter(context.Background(), g, prog,
			core.Options{Workers: w}); err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Study:   "W: parallel workers (collaborative filtering, compute-bound)",
			Variant: fmt.Sprintf("%d workers", w), Seconds: time.Since(start).Seconds(),
		})
	}
	return rows, nil
}

// AblationUpdateVsReplace compares forced-update against forced-replace
// write-back on both a dense-update workload (PageRank: every vertex
// changes every superstep) and a sparse one (SSSP: few vertices change
// per superstep) — §2.3 "Update Vs Replace".
func AblationUpdateVsReplace(scale float64, iters int) ([]AblationRow, error) {
	var rows []AblationRow
	type variant struct {
		name      string
		threshold float64
	}
	variants := []variant{
		{"always update", 2},   // threshold above 100%: update in place
		{"always replace", -1}, // negative: rebuild + swap
		{"paper policy (10%)", 0.10},
	}
	for _, v := range variants {
		g, err := freshGraph(scale)
		if err != nil {
			return nil, err
		}
		secs, _, err := timedRun(g, iters, core.Options{UpdateThreshold: v.threshold})
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Study: "R: update-vs-replace (PageRank, dense)", Variant: v.name, Seconds: secs,
		})
	}
	for _, v := range variants {
		g, err := freshGraph(scale)
		if err != nil {
			return nil, err
		}
		source := int64(0)
		start := time.Now()
		_, _, err = algorithms.RunSSSP(context.Background(), g, source, true,
			core.Options{UpdateThreshold: v.threshold})
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Study: "R: update-vs-replace (SSSP, sparse)", Variant: v.name,
			Seconds: time.Since(start).Seconds(),
		})
	}
	return rows, nil
}

// AblationInputCache compares the superstep input cache (edge side
// partitioned+sorted once per run, per-superstep sorted-run merge,
// active-partition skipping) against full per-superstep union re-sort
// (DisableInputCache) on PageRank, SSSP and ConnectedComponents. Extra
// reports per-superstep time, cache hits and skipped partitions, so the
// per-superstep speedup is directly visible.
func AblationInputCache(scale float64, iters int) ([]AblationRow, error) {
	type algo struct {
		name string
		run  func(g *core.Graph, opts core.Options) (*core.RunStats, error)
	}
	algos := []algo{
		{"PageRank", func(g *core.Graph, opts core.Options) (*core.RunStats, error) {
			_, stats, err := algorithms.RunPageRank(context.Background(), g, iters, opts)
			return stats, err
		}},
		{"SSSP", func(g *core.Graph, opts core.Options) (*core.RunStats, error) {
			_, stats, err := algorithms.RunSSSP(context.Background(), g, 0, true, opts)
			return stats, err
		}},
		{"ConnectedComponents", func(g *core.Graph, opts core.Options) (*core.RunStats, error) {
			_, stats, err := algorithms.RunConnectedComponents(context.Background(), g, opts)
			return stats, err
		}},
	}
	var rows []AblationRow
	for _, a := range algos {
		for _, disable := range []bool{true, false} {
			g, err := freshGraph(scale)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			stats, err := a.run(g, core.Options{DisableInputCache: disable})
			if err != nil {
				return nil, err
			}
			secs := time.Since(start).Seconds()
			variant := "cached input"
			extra := fmt.Sprintf("%.1fms/superstep", 1e3*secs/float64(stats.Supersteps))
			if disable {
				variant = "full re-sort"
			} else {
				extra += fmt.Sprintf(", %d cache hits, %d skipped partitions",
					stats.CacheHits, stats.SkippedParts)
			}
			rows = append(rows, AblationRow{
				Study:   fmt.Sprintf("I: superstep input cache (%s)", a.name),
				Variant: variant, Seconds: secs, Extra: extra,
			})
		}
	}
	return rows, nil
}

// AblationSQLParallel sweeps the relational executor's per-statement
// worker budget over the hand-tuned SQL PageRank and SSSP drivers (the
// morsel-parallel tentpole: parallel scans/filters/projections,
// parallel hash-join probes, partitioned aggregation). The first entry
// of `workers` is the baseline (use 1); every other variant's results
// are checked byte-for-byte against it — the executor guarantees
// identical results at every parallelism level — and Extra reports the
// speedup.
func AblationSQLParallel(scale float64, iters int, workers []int) ([]AblationRow, error) {
	ds := dataset.TwitterScale(scale)
	type algo struct {
		name string
		run  func(g *core.Graph) (map[int64]float64, error)
	}
	algos := []algo{
		{"PageRank", func(g *core.Graph) (map[int64]float64, error) {
			return sqlgraph.PageRank(context.Background(), g, iters, 0.85)
		}},
		{"SSSP", func(g *core.Graph) (map[int64]float64, error) {
			return sqlgraph.ShortestPaths(context.Background(), g, 0, true)
		}},
	}
	var rows []AblationRow
	for _, a := range algos {
		var baseline map[int64]float64
		var baseSecs float64
		for i, w := range workers {
			g, err := loadVertexica(ds)
			if err != nil {
				return nil, err
			}
			g.DB.SetParallelism(w)
			start := time.Now()
			result, err := a.run(g)
			if err != nil {
				return nil, err
			}
			secs := time.Since(start).Seconds()
			extra := fmt.Sprintf("%d edges", len(ds.Edges))
			if i == 0 {
				baseline, baseSecs = result, secs
			} else {
				extra = fmt.Sprintf("%.2fx vs %d worker(s), %s", baseSecs/secs, workers[0], identicalFloatMaps(result, baseline))
			}
			rows = append(rows, AblationRow{
				Study:   fmt.Sprintf("P: morsel-parallel SQL (%s)", a.name),
				Variant: fmt.Sprintf("%d workers", w), Seconds: secs, Extra: extra,
			})
		}
	}
	return rows, nil
}

// identicalFloatMaps renders the byte-identity check for ablation rows.
func identicalFloatMaps(a, b map[int64]float64) string {
	if len(a) != len(b) {
		return fmt.Sprintf("RESULTS DIFFER (cardinality %d vs %d)", len(a), len(b))
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok || av != bv {
			return fmt.Sprintf("RESULTS DIFFER at id %d", k)
		}
	}
	return "results byte-identical"
}

// AblationCombiner compares runs with the message combiner enabled and
// disabled (Pregel combiners; an extension beyond the paper's four
// optimizations).
func AblationCombiner(scale float64, iters int) ([]AblationRow, error) {
	var rows []AblationRow
	for _, disabled := range []bool{false, true} {
		g, err := freshGraph(scale)
		if err != nil {
			return nil, err
		}
		secs, stats, err := timedRun(g, iters, core.Options{DisableCombiner: disabled})
		if err != nil {
			return nil, err
		}
		variant := "combiner on"
		if disabled {
			variant = "combiner off"
		}
		rows = append(rows, AblationRow{
			Study: "C: message combiner", Variant: variant, Seconds: secs,
			Extra: fmt.Sprintf("%d messages total", stats.TotalMessages),
		})
	}
	return rows, nil
}

// PrintAblation renders ablation rows.
func PrintAblation(w io.Writer, rows []AblationRow) {
	study := ""
	for _, r := range rows {
		if r.Study != study {
			study = r.Study
			fmt.Fprintf(w, "\n%s\n", study)
		}
		fmt.Fprintf(w, "  %-24s %10.3fs  %s\n", r.Variant, r.Seconds, r.Extra)
	}
}
