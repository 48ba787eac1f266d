package plan

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/sql"
	"repro/internal/storage"
)

// pushdownCatalog is the two-table fixture of the pushdown-rule tests
// (a and b share the column name id), plus c for three-way joins:
//
//	a(id, x): (1, 10) (2, 20) (3, 30)
//	b(id, y): (1, 'p') (3, 'q') (4, 'r')
//	c(id, z): (1, 100) (3, 300)
func pushdownCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	load := func(name string, schema storage.Schema, rows ...[]storage.Value) {
		tb, err := cat.Create(name, schema)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if err := tb.AppendRow(r...); err != nil {
				t.Fatal(err)
			}
		}
	}
	i, s := storage.Int64, storage.Str
	load("a", storage.NewSchema(storage.Col("id", storage.TypeInt64), storage.Col("x", storage.TypeInt64)),
		[]storage.Value{i(1), i(10)}, []storage.Value{i(2), i(20)}, []storage.Value{i(3), i(30)})
	load("b", storage.NewSchema(storage.Col("id", storage.TypeInt64), storage.Col("y", storage.TypeString)),
		[]storage.Value{i(1), s("p")}, []storage.Value{i(3), s("q")}, []storage.Value{i(4), s("r")})
	load("c", storage.NewSchema(storage.Col("id", storage.TypeInt64), storage.Col("z", storage.TypeInt64)),
		[]storage.Value{i(1), i(100)}, []storage.Value{i(3), i(300)})
	return cat
}

// resultLines drains op and renders one space-separated line per row.
func resultLines(t *testing.T, op exec.Operator) []string {
	t.Helper()
	out, err := exec.Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, out.Len())
	for r := range lines {
		parts := make([]string, out.Schema.Len())
		for c := range parts {
			parts[c] = out.Row(r)[c].String()
		}
		lines[r] = strings.Join(parts, " ")
	}
	return lines
}

// TestJoinPushdownRules pins one query per pushdown rule: the rows,
// computed by hand from the fixture, and the serial plan, which shows
// where each conjunct landed.
func TestJoinPushdownRules(t *testing.T) {
	cat := pushdownCatalog(t)
	cases := []struct {
		name, q string
		rows    []string
		plan    []string
	}{
		{"inner join, WHERE on each side",
			"SELECT a.id, b.y FROM a JOIN b ON a.id = b.id WHERE a.x > 10 AND b.y = 'q'",
			[]string{"3 q"},
			[]string{
				"Project (id, y)",
				"  HashJoin inner (id = id)",
				"    Filter ((b.y = 'q'))",
				"      Scan b",
				"    Filter ((a.x > 10))",
				"      Scan a",
			}},
		{"comma list, WHERE equality becomes the join key",
			"SELECT a.id, b.y FROM a, b WHERE a.id = b.id AND a.x = 30",
			[]string{"3 q"},
			[]string{
				"Project (id, y)",
				"  HashJoin inner (id = id)",
				"    Scan b",
				"    Filter ((a.x = 30))",
				"      Scan a",
			}},
		{"LEFT JOIN, right-side WHERE stays above the join",
			"SELECT a.id, b.y FROM a LEFT JOIN b ON a.id = b.id WHERE b.y IS NULL",
			[]string{"2 NULL"},
			[]string{
				"Project (id, y)",
				"  Filter ((b.y IS NULL))",
				"    HashJoin left (id = id)",
				"      Scan b",
				"      Scan a",
			}},
		{"LEFT JOIN, left-side WHERE goes to the preserved input",
			"SELECT a.id, b.y FROM a LEFT JOIN b ON a.id = b.id WHERE a.x >= 20 ORDER BY a.id",
			[]string{"2 NULL", "3 q"},
			[]string{
				"Sort (id)",
				"  Project (id, y)",
				"    HashJoin left (id = id)",
				"      Scan b",
				"      Filter ((a.x >= 20))",
				"        Scan a",
			}},
		{"LEFT JOIN, right-only ON conjunct filters the right input",
			"SELECT a.id, b.y FROM a LEFT JOIN b ON a.id = b.id AND b.y = 'q' ORDER BY a.id",
			[]string{"1 NULL", "2 NULL", "3 q"},
			[]string{
				"Sort (id)",
				"  Project (id, y)",
				"    HashJoin left (id = id)",
				"      Filter ((b.y = 'q'))",
				"        Scan b",
				"      Scan a",
			}},
		{"LEFT JOIN, left-only ON conjunct keeps preserved rows",
			"SELECT a.id, b.y FROM a LEFT JOIN b ON a.id = b.id AND a.x > 15 ORDER BY a.id",
			[]string{"1 NULL", "2 NULL", "3 q"},
			[]string{
				"Sort (id)",
				"  Project (id, y)",
				"    HashJoin left (id = id) residual ((a.x > 15))",
				"      Scan b",
				"      Scan a",
			}},
		{"CROSS JOIN, WHERE on each side",
			"SELECT a.id, b.id FROM a CROSS JOIN b WHERE a.x = 20 AND b.y <> 'p' ORDER BY b.id",
			[]string{"2 3", "2 4"},
			[]string{
				"Sort (id)",
				"  Project (id, id)",
				"    NestedLoopJoin cross",
				"      Filter ((b.y <> 'p'))",
				"        Scan b",
				"      Filter ((a.x = 20))",
				"        Scan a",
			}},
		{"three-way JOIN, conjuncts reach the inner join's inputs",
			"SELECT a.id, b.y, c.z FROM a JOIN b ON a.id = b.id JOIN c ON b.id = c.id WHERE c.z > 100 AND a.x < 100",
			[]string{"3 q 300"},
			[]string{
				"Project (id, y, z)",
				"  HashJoin inner (id = id)",
				"    Filter ((c.z > 100))",
				"      Scan c",
				"    HashJoin inner (id = id)",
				"      Scan b",
				"      Filter ((a.x < 100))",
				"        Scan a",
			}},
		{"derived-table input",
			"SELECT d.id, b.y FROM (SELECT id, x FROM a WHERE x < 30) AS d JOIN b ON d.id = b.id WHERE d.x > 5 AND b.y = 'p'",
			[]string{"1 p"},
			[]string{
				"Project (id, y)",
				"  HashJoin inner (id = id)",
				"    Filter ((b.y = 'p'))",
				"      Scan b",
				"    Filter ((d.x > 5))",
				"      Project (id, x)",
				"        Filter ((x < 30))",
				"          Scan a",
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			op := planQuery(t, cat, tc.q)
			if got := exec.Explain(op, false); strings.Join(got, "\n") != strings.Join(tc.plan, "\n") {
				t.Errorf("plan:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(tc.plan, "\n"))
			}
			if got := resultLines(t, op); strings.Join(got, "|") != strings.Join(tc.rows, "|") {
				t.Errorf("rows = %q, want %q", got, tc.rows)
			}
		})
	}
}

// TestAmbiguousColumnAcrossFromInputs: an unqualified name two FROM
// inputs share is an error in every FROM shape — a conjunct is pushed
// into an input only when no other input could bind it too.
func TestAmbiguousColumnAcrossFromInputs(t *testing.T) {
	cat := pushdownCatalog(t)
	p := New(cat, expr.NewRegistry())
	for _, q := range []string{
		"SELECT x, y FROM a, b WHERE id = 1",
		"SELECT x, y FROM a JOIN b ON a.id = b.id WHERE id = 1",
		"SELECT x, y FROM a CROSS JOIN b WHERE id = 1",
		"SELECT x, y FROM a JOIN b ON id = 1",
		"SELECT x, y FROM a, b, c WHERE a.id = b.id AND id = 1",
	} {
		st, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		_, err = p.PlanSelect(st.(*sql.SelectStmt))
		if err == nil || !strings.Contains(err.Error(), `ambiguous column "id"`) {
			t.Errorf("%s: err = %v, want ambiguous column \"id\"", q, err)
		}
	}
}

// TestPreparedJoinRoutesProbeScan: a parameterized point predicate on
// the partition key of a join input lands on that input's scan, which
// Bind then pins to the owning shard, and every execution returns the
// rows for its own key.
func TestPreparedJoinRoutesProbeScan(t *testing.T) {
	cat := pushdownCatalog(t)
	const shards = 4
	ev, err := cat.CreateSharded("ev", storage.NewSchema(
		storage.Col("src", storage.TypeInt64), storage.Col("dst", storage.TypeInt64)), 0, shards)
	if err != nil {
		t.Fatal(err)
	}
	for src := int64(1); src <= 12; src++ {
		for _, dst := range []int64{src % 5, (src + 1) % 5} {
			if err := ev.AppendRow(storage.Int64(src), storage.Int64(dst)); err != nil {
				t.Fatal(err)
			}
		}
	}
	owner := func(src int64) int { return int(storage.HashValue(storage.Int64(src))%shards) + 1 }

	// A literal key pins the scan at planning.
	lit := planQuery(t, cat, "SELECT b.y FROM ev e JOIN b ON b.id = e.dst WHERE e.src = 5")
	want := []string{
		"Project (y)",
		"  HashJoin inner (dst = id)",
		"    Scan b",
		"    Filter ((e.src = 5))",
		fmt.Sprintf("      Scan ev [shard %d/%d]", owner(5), shards),
	}
	if got := exec.Explain(lit, false); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("literal plan:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	// A $1 key is routed at every Bind.
	st, err := sql.Parse("SELECT b.y FROM ev e JOIN b ON b.id = e.dst WHERE e.src = $1")
	if err != nil {
		t.Fatal(err)
	}
	p := New(cat, expr.NewRegistry())
	first := []storage.Value{storage.Int64(5)}
	pp, err := p.PrepareSelect(st.(*sql.SelectStmt), 0, nil, NewParams(first))
	if err != nil {
		t.Fatal(err)
	}
	if len(pp.Routes) != 1 || pp.Routes[0].Scan.Table.Name() != "ev" {
		t.Fatalf("routes = %+v, want one route on the ev scan", pp.Routes)
	}
	want = []string{
		"Project (y)",
		"  HashJoin inner (dst = id)",
		"    Scan b",
		"    Filter ((e.src = $1))",
		fmt.Sprintf("      Scan ev [1 of %d shards, routed at bind]", shards),
	}
	if got := exec.Explain(pp.Root, false); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("prepared plan:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	// src's destinations are src%5 and (src+1)%5; b has ids 1, 3, 4.
	wantRows := map[int64]string{5: "p", 6: "p", 7: "q", 8: "q|r"}
	for _, src := range []int64{5, 6, 7, 8} {
		if err := pp.Bind(context.Background(), []storage.Value{storage.Int64(src)}, nil); err != nil {
			t.Fatal(err)
		}
		if got := pp.Routes[0].Scan.Shard; got != owner(src) {
			t.Errorf("src=%d: scan pinned to shard %d, want %d", src, got, owner(src))
		}
		if got := strings.Join(resultLines(t, pp.Root), "|"); got != wantRows[src] {
			t.Errorf("src=%d: rows = %q, want %q", src, got, wantRows[src])
		}
	}
}
