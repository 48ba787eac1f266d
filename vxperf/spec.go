package main

import "strings"

// The benchmark's definition: its workloads and metrics. BENCHMARK.json
// at the repository root and vxperf/spec.json are both generated from
// these tables (vxperf -write-spec), so the code that measures a metric
// and the record that describes it cannot drift apart.

const (
	wFig2      = "fig2"
	wOLTPRead  = "oltp-read"
	wOLTPWrite = "oltp-write"
)

// Input sizes shared by every workload: dataset.PreferentialAttachment
// with the Twitter node count at 1/10 scale and k attachments per node.
const (
	graphNodes    = 8130
	attachPerNode = 10
)

// workload describes one workload for BENCHMARK.json and spec.json.
type workload struct {
	Name    string `json:"name"`
	Why     string `json:"why"`
	Loop    string `json:"loop"`
	Clients int    `json:"clients"`
	Sizes   string `json:"sizes"`
	Layers  string `json:"layers"`
	// Wall is how long one run takes, set-up and checks included.
	Wall string `json:"wall_clock"`
}

var workloads = []workload{
	{
		Name:    wFig2,
		Why:     "Figure 2 in-process, op_a..op_d = vertex-centric and SQL PageRank (10 iterations), vertex-centric and SQL SSSP; stresses core, sqlgraph, exec, storage, allocator",
		Loop:    "closed, one goroutine; a fixed count of rotations of the four algorithms, --seconds/6 rounded to a multiple of 4 and at least 4 (4 at 25 s); the SSSP source cycles through the 4 highest-out-degree vertices",
		Clients: 0,
		Sizes:   "8130 nodes, ~81k edges (PreferentialAttachment k=10)",
		Layers:  "core, sqlgraph, exec, storage, Go allocator; bypasses client, wire, server, plan cache and WAL",
		Wall:    "about 35 s untraced or traced (4 rotations of about 6 s plus 9 set-ups and a warm-up rotation), at --seconds 25 on 2 CPUs",
	},
	{
		Name:    wOLTPRead,
		Why:     "2 wire clients, closed loop, prepared lookups and 1-hop joins 3:1 on an 8-shard table in memory; op_a..op_d = lookup p50, p90, join p50, p90; client, wire, server, exec",
		Loop:    "closed: each client sends its next request when the previous reply is drained",
		Clients: 2,
		Sizes:   "edges 8-shard table of ~81k rows, nodes table of 8130 rows",
		Layers:  "client, wire, server, engine session and plan cache, exec scan and join; core idle",
		Wall:    "about 29 s untraced, 33 s traced (in-process replay and EXPLAIN ANALYZE after the window), at --seconds 25 on 2 CPUs",
	},
	{
		Name:    wOLTPWrite,
		Why:     "durable engine: client 0 runs a fixed count of INSERTs, client 1 reads beside it, then WAL recovery; op_a..op_d = lookup p50, join p50, insert p50, recovery",
		Loop:    "closed: client 0 inserts a fixed count (2000 per second of --seconds); client 1 reads until client 0 is done",
		Clients: 2,
		Sizes:   "same tables as oltp-read in a persistent engine checkpointed at set-up",
		Layers:  "engine WAL group commit, mvcc and storage appends beside read snapshots, persist replay",
		Wall:    "about 23 s untraced, 26 to 32 s traced, at --seconds 25 on 2 CPUs: the fixed 50000 inserts end the window, then 5 timed reopens",
	},
}

// metric is one reported metric. End-to-end metrics carry a bound and
// the figure each workload reports under them; per-layer metrics name
// the end-to-end metric they should move and where they should not.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Figures maps each workload to the figure of its own it reports
	// under an end-to-end slot; an end-to-end metric without Figures is
	// its own figure on every workload.
	Figures map[string]string `json:"figures,omitempty"`
	// Moves is the end-to-end metric a per-layer metric should move,
	// and On the workload where it should move it.
	Moves string `json:"moves,omitempty"`
	On    string `json:"on,omitempty"`
	// Unchanged names the workloads where the layer metric is
	// predicted not to move.
	Unchanged string `json:"unchanged_on,omitempty"`
	// Exact marks counts that repeat exactly for a given seed and
	// GOMAXPROCS; vxperf's tests pin that.
	Exact bool   `json:"exact,omitempty"`
	Note  string `json:"note,omitempty"`
}

// figures builds a slot's map from its fig2, oltp-read and oltp-write
// figures.
func figures(fig2, read, write string) map[string]string {
	return map[string]string{wFig2: fig2, wOLTPRead: read, wOLTPWrite: write}
}

// endToEnd lists the metrics every workload reports: the result line's
// format has each workload print every end-to-end metric. Beyond
// setup_s and live_heap_mb they are four slots, op_a_ms to op_d_ms,
// that each workload fills with four of its own figures, all in ms.
// Lookup p50 takes the same slot on both OLTP workloads.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Note: "median of setupReps set-ups in one run: generate, load (and checkpoint on oltp-write)"},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.05,
		Note: "the heap the engine keeps after set-up: HeapAlloc after runtime.GC() with the engine and the benchmark's copy of the graph held, minus HeapAlloc after runtime.GC() with that copy alone"},
	{Name: "op_a_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Figures: figures("pagerank_s", "lookup_p50_ms", "lookup_p50_ms"),
		Note:    "fig2: median vertex-centric PageRank run; oltp-*: point lookup p50"},
	{Name: "op_b_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Figures: figures("pagerank_sql_s", "lookup_p90_ms", "hop1_p50_ms"),
		Note:    "fig2: median SQL PageRank run; oltp-read: point lookup p90, the median over 3 s sub-windows; oltp-write: 1-hop join p50 beside the inserts"},
	{Name: "op_c_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Figures: figures("sssp_s", "hop1_p50_ms", "insert_p50_ms"),
		Note:    "fig2: median vertex-centric SSSP run over the rotations, whose source cycles through the 4 highest-out-degree vertices; oltp-read: 1-hop join p50; oltp-write: durable insert p50"},
	{Name: "op_d_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Figures: figures("sssp_sql_s", "hop1_p90_ms", "recover_s"),
		Note:    "fig2: median SQL SSSP run over the rotations, source as for op_c_ms; oltp-read: 1-hop join p90, the median over 3 s sub-windows; oltp-write: median of recoverReps reopens after the insert window, each replaying the same WAL"},
}

// figure is the name of the figure workload w reports under m.
func (m metric) figure(w string) string {
	if f, ok := m.Figures[w]; ok {
		return f
	}
	return m.Name
}

// value reads m's figure for workload w from a run's measurements, in
// m's unit: a figure in seconds reported under a slot in ms is scaled.
func (m metric) value(w string, measured map[string]float64) (float64, bool) {
	f := m.figure(w)
	v, ok := measured[f]
	if ok && m.Unit == "ms" && strings.HasSuffix(f, "_s") {
		v *= 1000
	}
	return v, ok
}

// hop1Note says which slot the 1-hop layer metrics move on which
// workload.
const hop1Note = "moves op_c_ms (join p50) on oltp-read and op_b_ms (join p50 beside the inserts) on oltp-write"

// perLayer metrics are reported by every workload's traced run; a
// layer a workload does not exercise reports 0.
var perLayer = []metric{
	// core, from the RunStats of the traced vertex-centric runs.
	{Name: "core.supersteps", Unit: "count", Better: "lower", Moves: "op_a_ms", On: wFig2, Unchanged: "oltp-read, oltp-write", Exact: true},
	{Name: "core.superstep_ms", Unit: "ms", Better: "lower", Moves: "op_a_ms", On: wFig2, Unchanged: "oltp-read, oltp-write"},
	{Name: "core.input_rows", Unit: "count", Better: "lower", Moves: "op_a_ms", On: wFig2, Unchanged: "oltp-read, oltp-write", Exact: true},
	{Name: "core.messages", Unit: "count", Better: "lower", Moves: "op_a_ms", On: wFig2, Unchanged: "oltp-read, oltp-write", Exact: true},
	{Name: "core.cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "op_a_ms", On: wFig2, Unchanged: "oltp-read, oltp-write"},
	{Name: "core.updated_rows", Unit: "count", Better: "lower", Moves: "op_c_ms", On: wFig2, Unchanged: "oltp-read, oltp-write", Exact: true},
	{Name: "core.replace_steps", Unit: "count", Better: "lower", Moves: "op_c_ms", On: wFig2, Unchanged: "oltp-read, oltp-write"},
	{Name: "core.skipped_parts", Unit: "count", Better: "higher", Moves: "op_c_ms", On: wFig2, Unchanged: "oltp-read, oltp-write"},

	// Go allocator: runtime.MemStats deltas around each public call.
	{Name: "core.pagerank_mallocs", Unit: "count", Better: "lower", Moves: "op_a_ms", On: wFig2, Unchanged: "oltp-read, oltp-write"},
	{Name: "sqlgraph.pagerank_mallocs", Unit: "count", Better: "lower", Moves: "op_b_ms", On: wFig2, Unchanged: "oltp-read, oltp-write"},
	{Name: "sqlgraph.pagerank_alloc_mb", Unit: "MB", Better: "lower", Moves: "op_b_ms", On: wFig2, Unchanged: "oltp-read, oltp-write"},
	{Name: "sqlgraph.sssp_mallocs", Unit: "count", Better: "lower", Moves: "op_d_ms", On: wFig2, Unchanged: "oltp-read, oltp-write"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Moves: "op_a_ms, op_b_ms, op_c_ms, op_d_ms", On: wFig2, Unchanged: "oltp-read",
		Note: "GC cycles per rotation of the four Figure 2 runs (fig2) or per 1000 requests (oltp-*)"},

	// Set-up.
	{Name: "dataset.generate_s", Unit: "s", Better: "lower", Moves: "setup_s", On: "fig2, oltp-read, oltp-write"},
	{Name: "storage.load_s", Unit: "s", Better: "lower", Moves: "setup_s", On: "fig2, oltp-read, oltp-write",
		Note: "Graph.BulkLoad on fig2, the multi-row INSERT load on oltp-*"},
	{Name: "engine.checkpoint_s", Unit: "s", Better: "lower", Moves: "setup_s", On: wOLTPWrite, Unchanged: "fig2, oltp-read"},

	// client / server / wire, medians over the traced requests.
	{Name: "client.lookup_ms", Unit: "ms", Better: "lower", Moves: "op_a_ms", On: "oltp-read, oltp-write", Unchanged: wFig2},
	{Name: "server.lookup_ms", Unit: "ms", Better: "lower", Moves: "op_a_ms", On: "oltp-read, oltp-write", Unchanged: wFig2,
		Note: "client.Rows.ServerTime"},
	{Name: "wire.lookup_ms", Unit: "ms", Better: "lower", Moves: "op_a_ms", On: "oltp-read, oltp-write", Unchanged: wFig2,
		Note: "median of per-request client time minus server time"},
	{Name: "client.hop1_ms", Unit: "ms", Better: "lower", Moves: "op_c_ms, op_b_ms", On: "oltp-read, oltp-write", Unchanged: wFig2,
		Note: hop1Note},
	{Name: "server.hop1_ms", Unit: "ms", Better: "lower", Moves: "op_c_ms, op_b_ms", On: "oltp-read, oltp-write", Unchanged: wFig2,
		Note: hop1Note},
	{Name: "wire.hop1_ms", Unit: "ms", Better: "lower", Moves: "op_c_ms, op_b_ms", On: "oltp-read, oltp-write", Unchanged: wFig2,
		Note: hop1Note},
	{Name: "client.insert_ms", Unit: "ms", Better: "lower", Moves: "op_c_ms", On: wOLTPWrite, Unchanged: "fig2, oltp-read"},
	{Name: "server.insert_ms", Unit: "ms", Better: "lower", Moves: "op_c_ms", On: wOLTPWrite, Unchanged: "fig2, oltp-read",
		Note: "the engine trace ring's total_ns for the insert: client.Stmt.Exec drops the Done trailer that carries server_us"},
	{Name: "wire.insert_ms", Unit: "ms", Better: "lower", Moves: "op_c_ms", On: wOLTPWrite, Unchanged: "fig2, oltp-read"},
	{Name: "wire.lookup_result_bytes", Unit: "B", Better: "lower", Moves: "op_a_ms", On: "oltp-read, oltp-write", Unchanged: wFig2,
		Note: "mean size of wire.AppendBatch of the lookup result"},

	// engine / exec / sql: single-goroutine in-process replay of the
	// same statements on a Session of the same engine.
	{Name: "engine.lookup_run_us", Unit: "us", Better: "lower", Moves: "op_a_ms", On: wOLTPRead, Unchanged: wFig2},
	{Name: "exec.lookup_drain_us", Unit: "us", Better: "lower", Moves: "op_a_ms", On: wOLTPRead, Unchanged: wFig2},
	{Name: "engine.lookup_mallocs", Unit: "count", Better: "lower", Moves: "op_a_ms", On: wOLTPRead, Unchanged: wFig2},
	{Name: "engine.lookup_bytes", Unit: "B", Better: "lower", Moves: "op_a_ms", On: wOLTPRead, Unchanged: wFig2},
	{Name: "engine.hop1_run_us", Unit: "us", Better: "lower", Moves: "op_c_ms", On: wOLTPRead, Unchanged: wFig2},
	{Name: "exec.hop1_drain_us", Unit: "us", Better: "lower", Moves: "op_c_ms", On: wOLTPRead, Unchanged: wFig2},
	{Name: "engine.hop1_mallocs", Unit: "count", Better: "lower", Moves: "op_c_ms", On: wOLTPRead, Unchanged: wFig2},
	{Name: "engine.hop1_bytes", Unit: "B", Better: "lower", Moves: "op_c_ms", On: wOLTPRead, Unchanged: wFig2},
	{Name: "sql.parse_us", Unit: "us", Better: "lower", Moves: "none predicted: the plan cache keeps parsing off the blocking path", On: wOLTPRead, Unchanged: "fig2, oltp-read, oltp-write"},
	{Name: "engine.plan_cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "op_a_ms, op_c_ms", On: wOLTPRead, Unchanged: wFig2},
	{Name: "exec.lookup_rows_examined", Unit: "rows/row", Better: "lower", Moves: "op_a_ms", On: "oltp-read, oltp-write", Unchanged: wFig2, Exact: true,
		Note: "Scan rows per returned row in EXPLAIN ANALYZE over a fixed key sample"},
	{Name: "exec.hop1_rows_examined", Unit: "rows/row", Better: "lower", Moves: "op_c_ms", On: wOLTPRead, Unchanged: wFig2, Exact: true},

	// WAL and storage.
	{Name: "engine.wal_fsyncs", Unit: "count", Better: "lower", Moves: "op_c_ms", On: wOLTPWrite, Unchanged: "fig2, oltp-read"},
	{Name: "engine.wal_records_per_fsync", Unit: "count", Better: "higher", Moves: "op_c_ms", On: wOLTPWrite, Unchanged: "fig2, oltp-read"},
	{Name: "storage.wal_bytes_per_insert", Unit: "B", Better: "lower", Moves: "op_d_ms", On: wOLTPWrite, Unchanged: "fig2, oltp-read"},
	{Name: "storage.snapshot_bytes_per_row", Unit: "B", Better: "lower", Moves: "op_d_ms", On: wOLTPWrite, Unchanged: "fig2, oltp-read"},

	// Scheduler.
	{Name: "sched.budget_high_water", Unit: "count", Better: "lower", Moves: "op_c_ms, op_d_ms", On: wOLTPRead, Unchanged: wFig2},

	// The benchmark itself.
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower", Moves: "none: the cost of the traced run's own timing", On: "fig2, oltp-read, oltp-write",
		Note: "traced over untraced time, from alternating blocks in one run: on fig2 the mean over adjacent rotation pairs of the pagerank_s ratio, rotations ordered untraced, traced, traced, untraced so drift cancels; on oltp-read the lookup p50s of 500 ms blocks; on oltp-write the insert p50s of 500-insert blocks"},
}

// droppedMetric is an end-to-end metric the issue asked for that the
// benchmark does not report, with the reason.
type droppedMetric struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Reason   string `json:"reason"`
}

var droppedMetrics = []droppedMetric{
	{"lookup_p90_ms", wOLTPWrite, "unsteady beside the durable inserts: over seeds 1 to 10 its quartile spread was 31% of the median, above the 25% bound, and 22% over the five seeds of that set that ran on a quiet machine; the join p50 takes its slot"},
	{"read_qps", wOLTPRead, "every workload must report every end-to-end metric and fig2 has no request rate; with two clients in a closed loop the rate follows from the lookup and join p50s, which are kept"},
	{"insert_p90_ms", wOLTPWrite, "unsteady: over ten seeds its quartile spread was 29% and 55% of the median in two sets, above the largest bound the benchmark may set (25%); fsync and CPU contention from outside the process move it whole runs at a time"},
	{"insert_qps", wOLTPWrite, "unsteady: quartile spread 19% and 27% of the median in the same two sets; with a fixed insert count it is the inverse of the mean latency, so it carries the same tail"},
}

// measuredOn lists the per-layer metrics a workload's traced run must
// measure: those whose On field names the workload.
func measuredOn(w string) []string {
	var out []string
	for _, m := range perLayer {
		for _, on := range strings.Split(m.On, ",") {
			if strings.TrimSpace(on) == w {
				out = append(out, m.Name)
			}
		}
	}
	return out
}
