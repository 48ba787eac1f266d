package vertexica

// Benchmark harness regenerating the paper's evaluation:
//
//	BenchmarkFig2a_*  — Figure 2(a): PageRank across four systems and
//	                    the three paper-shaped datasets.
//	BenchmarkFig2b_*  — Figure 2(b): Shortest Paths, same grid.
//	BenchmarkAblation* — §2.3 optimization ablations (table unions,
//	                    vertex batching, parallel workers,
//	                    update-vs-replace, message combiner).
//	BenchmarkHop1_*   — §3.2 1-hop SQL algorithms.
//	BenchmarkTemporal* — §3.3 time-series analysis.
//
// Datasets are scaled down from the paper's sizes (the presets in
// internal/dataset) so the whole suite runs on one machine. The Giraph
// and GraphDB baselines include their modeled overheads (cluster
// coordination, transaction cost), exactly as in the Figure 2
// reproduction.

import (
	"context"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/giraph"
	"repro/internal/graphdb"
	"repro/internal/sqlgraph"
	"repro/internal/temporal"
)

// Bench-scale datasets (node counts ~300-2000, edges ~8-14k).
func benchTwitter() *dataset.Graph     { return dataset.TwitterScale(0.01) }
func benchGPlus() *dataset.Graph       { return dataset.GPlusScale(0.002) }
func benchLiveJournal() *dataset.Graph { return dataset.LiveJournalScale(0.0004) }

const benchPRIters = 10 // the paper's PageRank depth

func loadVertexicaBench(b *testing.B, ds *dataset.Graph) *core.Graph {
	b.Helper()
	db := engine.New()
	g, err := core.CreateGraph(db, "bench")
	if err != nil {
		b.Fatal(err)
	}
	edges := make([]core.Edge, len(ds.Edges))
	for i, e := range ds.Edges {
		edges[i] = core.Edge{Src: e.Src, Dst: e.Dst, Weight: e.Weight, Type: e.Type, Created: e.Created}
	}
	vals := make(map[int64]string, ds.Nodes)
	for v := int64(0); v < ds.Nodes; v++ {
		vals[v] = ""
	}
	if err := g.BulkLoad(vals, edges); err != nil {
		b.Fatal(err)
	}
	return g
}

func loadGiraphBench(b *testing.B, ds *dataset.Graph) *giraph.Engine {
	b.Helper()
	e := giraph.New(giraph.Config{}) // default modeled cluster overhead
	for v := int64(0); v < ds.Nodes; v++ {
		e.AddVertex(v)
	}
	for _, ed := range ds.Edges {
		e.AddEdge(ed.Src, ed.Dst, ed.Weight)
	}
	return e
}

func loadGraphDBBench(b *testing.B, ds *dataset.Graph) *graphdb.Store {
	b.Helper()
	s := graphdb.New() // default modeled transaction overhead
	rows := make([][3]float64, len(ds.Edges))
	for i, e := range ds.Edges {
		rows[i] = [3]float64{float64(e.Src), float64(e.Dst), e.Weight}
	}
	if err := s.Load(rows); err != nil {
		b.Fatal(err)
	}
	return s
}

// --- Figure 2(a): PageRank ---

func benchPageRankVertexica(b *testing.B, ds *dataset.Graph) {
	g := loadVertexicaBench(b, ds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := algorithms.RunPageRank(context.Background(), g, benchPRIters, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchPageRankSQL(b *testing.B, ds *dataset.Graph) {
	g := loadVertexicaBench(b, ds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqlgraph.PageRank(context.Background(), g, benchPRIters, 0.85); err != nil {
			b.Fatal(err)
		}
	}
}

func benchPageRankGiraph(b *testing.B, ds *dataset.Graph) {
	e := loadGiraphBench(b, ds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := giraph.PageRank(e, benchPRIters); err != nil {
			b.Fatal(err)
		}
	}
}

func benchPageRankGraphDB(b *testing.B, ds *dataset.Graph) {
	s := loadGraphDBBench(b, ds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graphdb.PageRank(s, benchPRIters, 0.85); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2a_Twitter_GraphDB(b *testing.B)      { benchPageRankGraphDB(b, benchTwitter()) }
func BenchmarkFig2a_Twitter_Giraph(b *testing.B)       { benchPageRankGiraph(b, benchTwitter()) }
func BenchmarkFig2a_Twitter_Vertexica(b *testing.B)    { benchPageRankVertexica(b, benchTwitter()) }
func BenchmarkFig2a_Twitter_VertexicaSQL(b *testing.B) { benchPageRankSQL(b, benchTwitter()) }

// GraphDB did not finish the larger graphs in the paper either
// (Figure 2 shows Neo4j only on Twitter); we keep the same DNF policy.
func BenchmarkFig2a_GPlus_GraphDB(b *testing.B) {
	b.Skip("DNF: graph database baseline only runs the smallest dataset, as in the paper")
}
func BenchmarkFig2a_GPlus_Giraph(b *testing.B)       { benchPageRankGiraph(b, benchGPlus()) }
func BenchmarkFig2a_GPlus_Vertexica(b *testing.B)    { benchPageRankVertexica(b, benchGPlus()) }
func BenchmarkFig2a_GPlus_VertexicaSQL(b *testing.B) { benchPageRankSQL(b, benchGPlus()) }

func BenchmarkFig2a_LiveJournal_GraphDB(b *testing.B) {
	b.Skip("DNF: graph database baseline only runs the smallest dataset, as in the paper")
}
func BenchmarkFig2a_LiveJournal_Giraph(b *testing.B) { benchPageRankGiraph(b, benchLiveJournal()) }
func BenchmarkFig2a_LiveJournal_Vertexica(b *testing.B) {
	benchPageRankVertexica(b, benchLiveJournal())
}
func BenchmarkFig2a_LiveJournal_VertexicaSQL(b *testing.B) {
	benchPageRankSQL(b, benchLiveJournal())
}

// --- Figure 2(b): Shortest Paths ---

func benchSSSPVertexica(b *testing.B, ds *dataset.Graph) {
	g := loadVertexicaBench(b, ds)
	src := ds.MaxOutDegreeNode()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := algorithms.RunSSSP(context.Background(), g, src, false, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSSSPSQL(b *testing.B, ds *dataset.Graph) {
	g := loadVertexicaBench(b, ds)
	src := ds.MaxOutDegreeNode()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqlgraph.ShortestPaths(context.Background(), g, src, false); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSSSPGiraph(b *testing.B, ds *dataset.Graph) {
	e := loadGiraphBench(b, ds)
	src := ds.MaxOutDegreeNode()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := giraph.SSSP(e, src, false); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSSSPGraphDB(b *testing.B, ds *dataset.Graph) {
	s := loadGraphDBBench(b, ds)
	src := ds.MaxOutDegreeNode()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graphdb.ShortestPaths(s, src, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2b_Twitter_GraphDB(b *testing.B)      { benchSSSPGraphDB(b, benchTwitter()) }
func BenchmarkFig2b_Twitter_Giraph(b *testing.B)       { benchSSSPGiraph(b, benchTwitter()) }
func BenchmarkFig2b_Twitter_Vertexica(b *testing.B)    { benchSSSPVertexica(b, benchTwitter()) }
func BenchmarkFig2b_Twitter_VertexicaSQL(b *testing.B) { benchSSSPSQL(b, benchTwitter()) }

func BenchmarkFig2b_GPlus_GraphDB(b *testing.B) {
	b.Skip("DNF: graph database baseline only runs the smallest dataset, as in the paper")
}
func BenchmarkFig2b_GPlus_Giraph(b *testing.B)       { benchSSSPGiraph(b, benchGPlus()) }
func BenchmarkFig2b_GPlus_Vertexica(b *testing.B)    { benchSSSPVertexica(b, benchGPlus()) }
func BenchmarkFig2b_GPlus_VertexicaSQL(b *testing.B) { benchSSSPSQL(b, benchGPlus()) }

func BenchmarkFig2b_LiveJournal_GraphDB(b *testing.B) {
	b.Skip("DNF: graph database baseline only runs the smallest dataset, as in the paper")
}
func BenchmarkFig2b_LiveJournal_Giraph(b *testing.B)    { benchSSSPGiraph(b, benchLiveJournal()) }
func BenchmarkFig2b_LiveJournal_Vertexica(b *testing.B) { benchSSSPVertexica(b, benchLiveJournal()) }
func BenchmarkFig2b_LiveJournal_VertexicaSQL(b *testing.B) {
	benchSSSPSQL(b, benchLiveJournal())
}

// --- Ablations (§2.3 optimizations) ---

func benchPageRankOpts(b *testing.B, opts core.Options, iters int) {
	g := loadVertexicaBench(b, benchTwitter())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := algorithms.RunPageRank(context.Background(), g, iters, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationUnionVsJoin_Union(b *testing.B) {
	benchPageRankOpts(b, core.Options{UseJoinInput: false}, 5)
}
func BenchmarkAblationUnionVsJoin_Join(b *testing.B) {
	benchPageRankOpts(b, core.Options{UseJoinInput: true}, 5)
}

func BenchmarkAblationBatching_1Partition(b *testing.B) {
	benchPageRankOpts(b, core.Options{Partitions: 1}, 5)
}
func BenchmarkAblationBatching_4Partitions(b *testing.B) {
	benchPageRankOpts(b, core.Options{Partitions: 4}, 5)
}
func BenchmarkAblationBatching_16Partitions(b *testing.B) {
	benchPageRankOpts(b, core.Options{Partitions: 16}, 5)
}
func BenchmarkAblationBatching_64Partitions(b *testing.B) {
	benchPageRankOpts(b, core.Options{Partitions: 64}, 5)
}
func BenchmarkAblationBatching_256Partitions(b *testing.B) {
	benchPageRankOpts(b, core.Options{Partitions: 256}, 5)
}

func BenchmarkAblationWorkers_1(b *testing.B) { benchPageRankOpts(b, core.Options{Workers: 1}, 5) }
func BenchmarkAblationWorkers_2(b *testing.B) { benchPageRankOpts(b, core.Options{Workers: 2}, 5) }
func BenchmarkAblationWorkers_4(b *testing.B) { benchPageRankOpts(b, core.Options{Workers: 4}, 5) }
func BenchmarkAblationWorkers_8(b *testing.B) { benchPageRankOpts(b, core.Options{Workers: 8}, 5) }

// Update-vs-replace: PageRank updates every vertex every superstep
// (dense); SSSP touches few (sparse). The paper's 10% threshold should
// pick replace for the former and update for the latter.
func BenchmarkAblationUpdateVsReplace_PageRank_AlwaysUpdate(b *testing.B) {
	benchPageRankOpts(b, core.Options{UpdateThreshold: 2}, 5)
}
func BenchmarkAblationUpdateVsReplace_PageRank_AlwaysReplace(b *testing.B) {
	benchPageRankOpts(b, core.Options{UpdateThreshold: -1}, 5)
}
func BenchmarkAblationUpdateVsReplace_PageRank_PaperPolicy(b *testing.B) {
	benchPageRankOpts(b, core.Options{UpdateThreshold: 0.10}, 5)
}

func benchSSSPOpts(b *testing.B, opts core.Options) {
	ds := benchTwitter()
	g := loadVertexicaBench(b, ds)
	src := ds.MaxOutDegreeNode()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := algorithms.RunSSSP(context.Background(), g, src, true, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationUpdateVsReplace_SSSP_AlwaysUpdate(b *testing.B) {
	benchSSSPOpts(b, core.Options{UpdateThreshold: 2})
}
func BenchmarkAblationUpdateVsReplace_SSSP_AlwaysReplace(b *testing.B) {
	benchSSSPOpts(b, core.Options{UpdateThreshold: -1})
}
func BenchmarkAblationUpdateVsReplace_SSSP_PaperPolicy(b *testing.B) {
	benchSSSPOpts(b, core.Options{UpdateThreshold: 0.10})
}

func BenchmarkAblationCombiner_On(b *testing.B) {
	benchPageRankOpts(b, core.Options{DisableCombiner: false}, 5)
}
func BenchmarkAblationCombiner_Off(b *testing.B) {
	benchPageRankOpts(b, core.Options{DisableCombiner: true}, 5)
}

// --- §3.2 1-hop SQL algorithms ---

func loadUndirectedBench(b *testing.B) *core.Graph {
	b.Helper()
	ds := dataset.MakeUndirected(dataset.ErdosRenyi("hop1", 400, 2400, 9))
	return loadVertexicaBench(b, ds)
}

func BenchmarkHop1_TriangleCounting(b *testing.B) {
	g := loadUndirectedBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqlgraph.TriangleCount(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHop1_StrongOverlap(b *testing.B) {
	g := loadUndirectedBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqlgraph.StrongOverlap(g, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHop1_WeakTies(b *testing.B) {
	g := loadUndirectedBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqlgraph.WeakTies(g, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHop1_ClusteringCoefficients(b *testing.B) {
	g := loadUndirectedBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqlgraph.ClusteringCoefficients(g); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §3.3 temporal analysis ---

func BenchmarkTemporalPageRankTimeSeries(b *testing.B) {
	g := loadVertexicaBench(b, benchTwitter())
	times := []int64{1262304000, 1293840000, 1325376000} // three yearly snapshots
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := temporal.TimeSeries(context.Background(), g, times,
			func(ctx context.Context, cg *core.Graph) (map[int64]float64, error) {
				r, _, err := algorithms.RunPageRank(ctx, cg, 3, core.Options{})
				return r, err
			})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate microbenchmarks ---

func BenchmarkEngineSQLJoinAggregate(b *testing.B) {
	g := loadVertexicaBench(b, benchTwitter())
	q := "SELECT e.dst, COUNT(*) FROM bench_edge AS e JOIN bench_vertex AS v ON e.src = v.id GROUP BY e.dst"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.DB.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineInsert(b *testing.B) {
	db := engine.New()
	if _, err := db.Exec("CREATE TABLE t (a INTEGER, b DOUBLE, c VARCHAR)"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec("INSERT INTO t VALUES (1, 2.5, 'row'), (2, 3.5, 'row2')"); err != nil {
			b.Fatal(err)
		}
	}
}
