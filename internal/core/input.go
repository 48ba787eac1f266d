package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/exec"
	"repro/internal/sched"
	"repro/internal/storage"
)

// Input assembly for one superstep, implementing both sides of the
// paper's Table-Unions optimization (§2.3):
//
//   - Union path (the paper's choice): the vertex, edge and message
//     tables are renamed to a common schema, concatenated with
//     UNION ALL, hash partitioned on the vertex id, and each partition
//     is sorted on (id, kind). Workers parse the tuple kinds apart.
//
//   - Join path (the ablation baseline): vertex LEFT JOIN message LEFT
//     JOIN edge. For a vertex with m messages and e out-edges the join
//     product holds m×e rows — the blowup the paper's optimization
//     avoids. Workers deduplicate via ordinal columns.

// Tuple kinds inside the union's common schema.
const (
	kindVertex  int64 = 0
	kindEdge    int64 = 1
	kindMessage int64 = 2
)

// workUnit is one vertex's reassembled state for a superstep.
type workUnit struct {
	id     int64
	value  string
	halted bool
	msgs   []Message
	edges  []Edge
}

// unionSortKeys is the (id, kind) ordering every union partition —
// cached or not — is sorted on.
var unionSortKeys = []storage.SortKey{{Col: 0}, {Col: 1}}

// unionInputSQL renders the common-schema UNION ALL over the three
// graph tables — the coordinator literally drives standard SQL, as in
// the paper.
func unionInputSQL(g *Graph) string {
	return fmt.Sprintf(`SELECT id AS id, 0 AS kind, CASE WHEN halted THEN 1 ELSE 0 END AS i1, 0.0 AS f1, value AS s1, 0 AS i2 FROM %s
UNION ALL SELECT src, 1, dst, weight, etype, created FROM %s
UNION ALL SELECT dst, 2, COALESCE(src, -1), 0.0, value, 0 FROM %s`,
		g.VertexTable(), g.EdgeTable(), g.MessageTable())
}

// edgeInputSQL selects the edge table for the cached adjacency. The
// edge table is immutable for the duration of a run, so the
// coordinator reads and parses this side once.
func edgeInputSQL(g *Graph) string {
	return fmt.Sprintf(`SELECT src, dst, weight, etype, created FROM %s`, g.EdgeTable())
}

// vertexMessageInputSQL renders the two mutable branches of the union
// (vertex state and in-flight messages) in the common schema — the only
// rows that change between supersteps.
func vertexMessageInputSQL(g *Graph) string {
	return fmt.Sprintf(`SELECT id AS id, 0 AS kind, CASE WHEN halted THEN 1 ELSE 0 END AS i1, 0.0 AS f1, value AS s1, 0 AS i2 FROM %s
UNION ALL SELECT dst, 2, COALESCE(src, -1), 0.0, value, 0 FROM %s`,
		g.VertexTable(), g.MessageTable())
}

// partInput is one partition's superstep input: its union (or join)
// rows sorted on the vertex id, and on the cached path the partition's
// adjacency, which then supplies the edges the rows leave out.
type partInput struct {
	rows *storage.Batch
	adj  *adjacency // nil on the uncached union and join paths
}

// inputRows is the number of input rows the partition stands for: its
// rows plus its cached edges, as many as the literal union would hold.
func (in partInput) inputRows() int {
	n := in.rows.Len()
	if in.adj != nil {
		n += len(in.adj.edges)
	}
	return n
}

// units reassembles one workUnit per vertex of the partition, each with
// its edges in compareEdges order, and counts dangling messages.
func (in partInput) units(join bool) (units []workUnit, dangling int) {
	if join {
		units, dangling = parseJoinPartition(in.rows)
	} else {
		units, dangling = parseUnionPartition(in.rows)
	}
	if in.adj == nil {
		for i := range units {
			sortEdges(units[i].edges)
		}
		return units, dangling
	}
	// Units and adjacency sources are both ascending: walk them
	// together and hand each unit a capped sub-slice of the cached
	// edges, so an append by the program cannot reach a neighbour's.
	a, k := in.adj, 0
	for i := range units {
		u := &units[i]
		for k < len(a.srcs) && a.srcs[k] < u.id {
			k++
		}
		if k < len(a.srcs) && a.srcs[k] == u.id {
			lo, hi := a.offs[k], a.offs[k+1]
			u.edges = a.edges[lo:hi:hi]
			k++
		}
	}
	return units, dangling
}

// adjacency is one partition's out-edges, parsed once per run. srcs
// holds the partition's distinct edge sources in ascending order; the
// edges of srcs[i] are edges[offs[i]:offs[i+1]], in compareEdges order.
type adjacency struct {
	srcs  []int64
	offs  []int
	edges []Edge
}

// newAdjacency orders edges by source and then by compareEdges, and
// indexes the runs of each source.
func newAdjacency(edges []Edge) *adjacency {
	slices.SortFunc(edges, func(a, b Edge) int {
		if c := cmp.Compare(a.Src, b.Src); c != 0 {
			return c
		}
		return compareEdges(a, b)
	})
	a := &adjacency{edges: edges}
	for i, e := range edges {
		if i == 0 || e.Src != edges[i-1].Src {
			a.srcs = append(a.srcs, e.Src)
			a.offs = append(a.offs, i)
		}
	}
	a.offs = append(a.offs, len(edges))
	return a
}

// inputCache holds the immutable edge side of the union input as one
// adjacency per hash partition of src, built once per run in
// Coordinator.Run. adj is dense — one slot per partition, nil for
// partitions with no edges — and uses the same partitioning as the
// per-superstep vertex+message rows, so slot p holds the edges of the
// vertices in partition p.
type inputCache struct {
	adj         []*adjacency
	partitions  int
	edgeVersion uint64 // edge-table version the cache was built against
}

// buildEdgeCache reads the edge table and builds each partition's
// adjacency. The version is read before the scan, so a concurrent
// mutation at worst makes the cache look stale and triggers a rebuild
// — never a silently stale hit.
func buildEdgeCache(g *Graph, partitions, workers int) (*inputCache, error) {
	version, err := g.EdgeVersion()
	if err != nil {
		return nil, err
	}
	rows, err := g.DB.Query(edgeInputSQL(g))
	if err != nil {
		return nil, fmt.Errorf("core: edge input: %w", err)
	}
	data, err := rows.Materialize()
	if err != nil {
		return nil, fmt.Errorf("core: edge input: %w", err)
	}
	srcs := data.Cols[0].(*storage.Int64Column).Int64s()
	dsts := data.Cols[1].(*storage.Int64Column).Int64s()
	weights := data.Cols[2].(*storage.Float64Column).Float64s()
	types := data.Cols[3].(*storage.StringColumn).Strings()
	created := data.Cols[4].(*storage.Int64Column).Int64s()
	pidx := storage.PartitionInt64(srcs, partitions)
	cache := &inputCache{
		adj:         make([]*adjacency, partitions),
		partitions:  partitions,
		edgeVersion: version,
	}
	var nonEmpty []int
	for p, idx := range pidx {
		if len(idx) > 0 {
			nonEmpty = append(nonEmpty, p)
		}
	}
	sched.ForEach(g.DB.WorkerBudget(), len(nonEmpty), workers, func(i int) {
		p := nonEmpty[i]
		edges := make([]Edge, len(pidx[p]))
		for j, r := range pidx[p] {
			edges[j] = Edge{Src: srcs[r], Dst: dsts[r], Weight: weights[r], Type: types[r], Created: created[r]}
		}
		cache.adj[p] = newAdjacency(edges)
	})
	return cache, nil
}

// cachedInputResult is what buildCachedUnionInput hands the coordinator
// for one superstep.
type cachedInputResult struct {
	parts        []partInput // dispatched partitions
	skippedParts int         // quiescent partitions not dispatched
	skippedVerts int         // halted vertices inside skipped partitions
}

// buildCachedUnionInput assembles one superstep's input on top of the
// edge cache: only the vertex and message rows are scanned, partitioned
// and sorted; each partition's edges come from its cached adjacency.
// Partitions with no incoming messages and no non-halted vertices are
// skipped entirely — Pregel semantics guarantee none of their vertices
// would compute (active-partition skipping).
func buildCachedUnionInput(g *Graph, cache *inputCache, step, workers int) (*cachedInputResult, error) {
	rows, err := g.DB.Query(vertexMessageInputSQL(g))
	if err != nil {
		return nil, fmt.Errorf("core: vertex+message input: %w", err)
	}
	data, err := rows.Materialize()
	if err != nil {
		return nil, fmt.Errorf("core: vertex+message input: %w", err)
	}
	ids := data.Cols[0].(*storage.Int64Column).Int64s()
	kinds := data.Cols[1].(*storage.Int64Column).Int64s()
	i1 := data.Cols[2].(*storage.Int64Column).Int64s() // halted flag on vertex rows
	pidx := storage.PartitionInt64(ids, cache.partitions)

	res := &cachedInputResult{}
	var active []int // partition numbers to dispatch
	for p, idx := range pidx {
		verts, live := 0, false
		for _, r := range idx {
			switch kinds[r] {
			case kindVertex:
				verts++
				if i1[r] == 0 {
					live = true
				}
			case kindMessage:
				// A message reactivates its target even if halted.
				live = true
			}
		}
		if step == 0 && verts > 0 {
			live = true // superstep 0 computes every vertex
		}
		if live {
			active = append(active, p)
			continue
		}
		if len(idx) > 0 || cache.adj[p] != nil {
			res.skippedParts++
			res.skippedVerts += verts
		}
	}

	res.parts = make([]partInput, len(active))
	sched.ForEach(g.DB.WorkerBudget(), len(active), workers, func(i int) {
		p := active[i]
		res.parts[i] = partInput{
			rows: storage.SortBatch(data.Gather(pidx[p]), unionSortKeys),
			adj:  cache.adj[p],
		}
	})
	return res, nil
}

// buildUnionInput assembles, partitions and sorts the superstep input
// via the union path. It returns one sorted batch per partition.
func buildUnionInput(g *Graph, partitions, workers int) ([]*storage.Batch, error) {
	rows, err := g.DB.Query(unionInputSQL(g))
	if err != nil {
		return nil, fmt.Errorf("core: union input: %w", err)
	}
	data, err := rows.Materialize()
	if err != nil {
		return nil, fmt.Errorf("core: union input: %w", err)
	}
	return partitionAndSort(data, 0, partitions, workers, g.DB.WorkerBudget(), unionSortKeys), nil
}

// buildJoinInput assembles the superstep input via the 3-way-join path.
func buildJoinInput(g *Graph, partitions, workers int) ([]*storage.Batch, error) {
	// These scans read the tables directly (not through the SQL
	// statement path), so pin one consistent MVCC snapshot of all
	// three tables for the superstep batch — the drain below then runs
	// with no engine latch held, and a concurrent session's write
	// statement neither blocks on it nor mutates what it reads.
	snap, err := g.DB.AcquireSnapshot(g.VertexTable(), g.MessageTable(), g.EdgeTable())
	if err != nil {
		return nil, err
	}
	defer snap.Release()
	vt, err := snap.Table(g.VertexTable())
	if err != nil {
		return nil, err
	}
	mt, err := snap.Table(g.MessageTable())
	if err != nil {
		return nil, err
	}
	et, err := snap.Table(g.EdgeTable())
	if err != nil {
		return nil, err
	}
	// vertex(id,value,halted) ⟕ message+mid ON id=dst  → 3+4 cols
	// ... ⟕ edge+eid ON id=src                         → 7+6 cols
	j1 := &exec.HashJoin{
		Left:     exec.NewTableScan(vt),
		Right:    &exec.Ordinal{Input: exec.NewTableScan(mt), Name: "mid"},
		LeftKeys: []int{0}, RightKeys: []int{1},
		Type: exec.LeftJoin,
	}
	j2 := &exec.HashJoin{
		Left:     j1,
		Right:    &exec.Ordinal{Input: exec.NewTableScan(et), Name: "eid"},
		LeftKeys: []int{0}, RightKeys: []int{0},
		Type: exec.LeftJoin,
	}
	data, err := exec.Drain(j2)
	if err != nil {
		return nil, fmt.Errorf("core: join input: %w", err)
	}
	return partitionAndSort(data, 0, partitions, workers, g.DB.WorkerBudget(), []storage.SortKey{{Col: 0}}), nil
}

// partitionAndSort hash-partitions the batch on the given int64 column
// and sorts each partition — the paper's Vertex Batching optimization.
// Partition-local gather+sort runs on the worker pool, since in
// Vertexica that work happens inside each worker UDF's input feed.
func partitionAndSort(data *storage.Batch, idCol, partitions, workers int, budget *sched.Budget, keys []storage.SortKey) []*storage.Batch {
	ids := data.Cols[idCol].(*storage.Int64Column).Int64s()
	parts := storage.PartitionInt64(ids, partitions)
	nonEmpty := make([][]int, 0, len(parts))
	for _, idx := range parts {
		if len(idx) > 0 {
			nonEmpty = append(nonEmpty, idx)
		}
	}
	out := make([]*storage.Batch, len(nonEmpty))
	sched.ForEach(budget, len(nonEmpty), workers, func(i int) {
		out[i] = storage.SortBatch(data.Gather(nonEmpty[i]), keys)
	})
	return out
}

// parseUnionPartition walks a sorted union partition and reassembles
// one workUnit per vertex that appears in it. Tuples whose vertex row
// is missing (dangling messages) are counted, not processed. Each
// unit's messages and edges are capped sub-slices of one per-partition
// slice, in row order.
func parseUnionPartition(b *storage.Batch) (units []workUnit, dangling int) {
	n := b.Len()
	ids := b.Cols[0].(*storage.Int64Column).Int64s()
	kinds := b.Cols[1].(*storage.Int64Column).Int64s()
	i1 := b.Cols[2].(*storage.Int64Column).Int64s()
	f1 := b.Cols[3].(*storage.Float64Column).Float64s()
	s1 := b.Cols[4].(*storage.StringColumn).Strings()
	i2 := b.Cols[5].(*storage.Int64Column).Int64s()

	var nVerts, nEdges, nMsgs int
	for _, k := range kinds {
		switch k {
		case kindVertex:
			nVerts++
		case kindEdge:
			nEdges++
		case kindMessage:
			nMsgs++
		}
	}
	units = make([]workUnit, 0, nVerts)
	edges := make([]Edge, 0, nEdges)
	msgs := make([]Message, 0, nMsgs)
	for i := 0; i < n; {
		j := i
		id := ids[i]
		for j < n && ids[j] == id {
			j++
		}
		u := workUnit{id: id}
		e0, m0 := len(edges), len(msgs)
		sawVertex := false
		for k := i; k < j; k++ {
			switch kinds[k] {
			case kindVertex:
				sawVertex = true
				u.halted = i1[k] != 0
				u.value = s1[k]
			case kindEdge:
				edges = append(edges, Edge{
					Src: id, Dst: i1[k], Weight: f1[k], Type: s1[k], Created: i2[k],
				})
			case kindMessage:
				msgs = append(msgs, Message{Src: i1[k], Dst: id, Value: s1[k]})
			}
		}
		if sawVertex {
			u.edges = edges[e0:len(edges):len(edges)]
			u.msgs = msgs[m0:len(msgs):len(msgs)]
			units = append(units, u)
		} else {
			dangling += len(msgs) - m0
			edges, msgs = edges[:e0], msgs[:m0]
		}
		i = j
	}
	return units, dangling
}

// parseJoinPartition reassembles workUnits from the 3-way-join product,
// deduplicating messages and edges via their ordinal columns.
// Join-output layout:
//
//	0:id 1:value 2:halted | 3:msrc 4:mdst 5:mval 6:mid | 7:esrc 8:edst 9:weight 10:etype 11:created 12:eid
func parseJoinPartition(b *storage.Batch) (units []workUnit, dangling int) {
	n := b.Len()
	ids := b.Cols[0].(*storage.Int64Column).Int64s()
	for i := 0; i < n; {
		j := i
		id := ids[i]
		for j < n && ids[j] == id {
			j++
		}
		u := workUnit{id: id}
		u.value = b.Cols[1].Value(i).S
		u.halted = b.Cols[2].Value(i).Bool()
		seenM := make(map[int64]bool)
		seenE := make(map[int64]bool)
		for k := i; k < j; k++ {
			if mid := b.Cols[6].Value(k); !mid.Null && !seenM[mid.I] {
				seenM[mid.I] = true
				src := b.Cols[3].Value(k)
				srcID := int64(-1)
				if !src.Null {
					srcID = src.I
				}
				u.msgs = append(u.msgs, Message{Src: srcID, Dst: id, Value: b.Cols[5].Value(k).S})
			}
			if eid := b.Cols[12].Value(k); !eid.Null && !seenE[eid.I] {
				seenE[eid.I] = true
				u.edges = append(u.edges, Edge{
					Src:     id,
					Dst:     b.Cols[8].Value(k).I,
					Weight:  b.Cols[9].Value(k).F,
					Type:    b.Cols[10].Value(k).S,
					Created: b.Cols[11].Value(k).I,
				})
			}
		}
		units = append(units, u)
		i = j
	}
	return units, 0
}
