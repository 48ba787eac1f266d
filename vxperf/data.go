package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
)

// graphData is one seed's generated graph plus the answers the output
// checks compare against, derived from the edge list alone.
type graphData struct {
	ds  *dataset.Graph
	out [][]int64 // sorted out-neighbours per node id
}

func generate(seed, nodes int64) *graphData {
	ds := dataset.PreferentialAttachment("twitter", nodes, attachPerNode, seed)
	out := make([][]int64, ds.Nodes)
	for _, e := range ds.Edges {
		out[e.Src] = append(out[e.Src], e.Dst)
	}
	for _, dsts := range out {
		sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
	}
	return &graphData{ds: ds, out: out}
}

// hubs returns the n nodes of highest out-degree, ties broken by the
// lower id; the first is dataset.Graph.MaxOutDegreeNode.
func (g *graphData) hubs(n int) []int64 {
	ids := make([]int64, len(g.out))
	for i := range ids {
		ids[i] = int64(i)
	}
	sort.SliceStable(ids, func(i, j int) bool { return len(g.out[ids[i]]) > len(g.out[ids[j]]) })
	return ids[:n]
}

func (g *graphData) coreEdges() []core.Edge {
	edges := make([]core.Edge, len(g.ds.Edges))
	for i, e := range g.ds.Edges {
		edges[i] = core.Edge{Src: e.Src, Dst: e.Dst, Weight: e.Weight, Type: e.Type, Created: e.Created}
	}
	return edges
}

func nodeLabel(id int64) string { return "v" + strconv.FormatInt(id, 10) }

// The OLTP tables: an edge table hash-partitioned on the lookup key and
// a node table the 1-hop join reads labels from.
const (
	edgeShards = 8
	loadBatch  = 1000 // rows per INSERT statement in the set-up load
	lookupSQL  = "SELECT dst FROM edges WHERE src = $1"
	hop1SQL    = "SELECT n.label FROM edges e JOIN nodes n ON n.id = e.dst WHERE e.src = $1"
	insertSQL  = "INSERT INTO edges VALUES ($1, $2)"
)

// loadTables creates the OLTP tables and fills them with multi-row
// INSERT statements.
func loadTables(db *engine.DB, g *graphData) error {
	for _, s := range []string{
		fmt.Sprintf("CREATE TABLE edges (src INTEGER NOT NULL, dst INTEGER NOT NULL) PARTITION BY HASH(src) SHARDS %d", edgeShards),
		"CREATE TABLE nodes (id INTEGER NOT NULL, label TEXT)",
	} {
		if _, err := db.Exec(s); err != nil {
			return err
		}
	}
	var b strings.Builder
	edges := g.ds.Edges
	for i := 0; i < len(edges); i += loadBatch {
		b.Reset()
		b.WriteString("INSERT INTO edges VALUES ")
		for j := i; j < i+loadBatch && j < len(edges); j++ {
			if j > i {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d)", edges[j].Src, edges[j].Dst)
		}
		if _, err := db.Exec(b.String()); err != nil {
			return fmt.Errorf("load edges: %w", err)
		}
	}
	for i := int64(0); i < g.ds.Nodes; i += loadBatch {
		b.Reset()
		b.WriteString("INSERT INTO nodes VALUES ")
		for j := i; j < i+loadBatch && j < g.ds.Nodes; j++ {
			if j > i {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, '%s')", j, nodeLabel(j))
		}
		if _, err := db.Exec(b.String()); err != nil {
			return fmt.Errorf("load nodes: %w", err)
		}
	}
	return nil
}

// keyStream is one client's seeded sequence of lookup keys; every
// fourth request is a 1-hop join, the rest are point lookups.
type keyStream struct {
	rng   *rand.Rand
	nodes int64
	i     int
}

func newKeyStream(seed int64, client int, nodes int64) *keyStream {
	return &keyStream{rng: rand.New(rand.NewSource(seed*7919 + int64(client) + 1)), nodes: nodes}
}

func (k *keyStream) next() (key int64, hop1 bool) {
	k.i++
	return k.rng.Int63n(k.nodes), k.i%4 == 0
}

// insertBase offsets inserted destination ids past every node id, so an
// inserted row is told apart from the loaded ones by its dst alone.
const insertBase = int64(1) << 40

// insertStream is the fixed, seeded list of rows the write client
// inserts: row i is (src[i], insertBase+i).
type insertStream struct {
	src   []int64
	byKey map[int64][]int // insert indices per src, ascending
}

func newInsertStream(seed int64, n int, nodes int64) *insertStream {
	rng := rand.New(rand.NewSource(seed*7919 + 100))
	s := &insertStream{src: make([]int64, n), byKey: make(map[int64][]int)}
	for i := range s.src {
		s.src[i] = rng.Int63n(nodes)
		s.byKey[s.src[i]] = append(s.byKey[s.src[i]], i)
	}
	return s
}

// checkLookup verifies a point lookup's dst column: exactly the key's
// loaded out-neighbours, plus only rows inserted for this key (index
// below issued), including every insert acknowledged before the read
// started (index below acked).
func (g *graphData) checkLookup(key int64, got []int64, ins *insertStream, acked, issued int) error {
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	n := sort.Search(len(got), func(i int) bool { return got[i] >= insertBase })
	base, extra := got[:n], got[n:]
	want := g.out[key]
	if len(base) != len(want) {
		return fmt.Errorf("lookup %d: %d loaded rows, want out-degree %d", key, len(base), len(want))
	}
	for i := range want {
		if base[i] != want[i] {
			return fmt.Errorf("lookup %d: row %d is dst %d, want %d", key, i, base[i], want[i])
		}
	}
	for _, d := range extra {
		idx := d - insertBase
		if ins == nil || idx >= int64(issued) || ins.src[idx] != key {
			return fmt.Errorf("lookup %d: unexpected dst %d", key, d)
		}
	}
	if ins != nil {
		if need := sort.SearchInts(ins.byKey[key], acked); len(extra) < need {
			return fmt.Errorf("lookup %d: %d inserted rows visible, %d acknowledged before the read", key, len(extra), need)
		}
	}
	return nil
}

// checkHop1 verifies a 1-hop join's label column against the labels of
// the key's loaded out-neighbours (inserted rows have no node row).
func (g *graphData) checkHop1(key int64, got []string) error {
	want := make([]string, len(g.out[key]))
	for i, d := range g.out[key] {
		want[i] = nodeLabel(d)
	}
	sort.Strings(want)
	sort.Strings(got)
	if len(got) != len(want) {
		return fmt.Errorf("hop1 %d: %d rows, want %d", key, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("hop1 %d: row %d is %q, want %q", key, i, got[i], want[i])
		}
	}
	return nil
}
