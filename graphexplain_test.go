package vertexica

import (
	"strings"
	"testing"
)

// EXPLAIN over graph verbs: the facade installs the renderer hook, so
// EXPLAIN PAGERANK / SSSP / COMPONENTS / TRIANGLES answer through
// ordinary SQL, and the ANALYZE variant actually runs the verb and
// folds its RunStats in.

func explainVerb(t *testing.T, vx *Engine, stmt string) []string {
	t.Helper()
	rows, _, err := vx.SQL(stmt)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	out := make([]string, rows.Len())
	for i := range out {
		out[i] = rows.Value(i, 0).S
	}
	return out
}

func wantContains(t *testing.T, stmt string, lines []string, subs ...string) {
	t.Helper()
	joined := strings.Join(lines, "\n")
	for _, sub := range subs {
		if !strings.Contains(joined, sub) {
			t.Errorf("%s: output lacks %q:\n%s", stmt, sub, joined)
		}
	}
}

func TestExplainGraphVerb(t *testing.T) {
	vx, _ := smallSocial(t)

	stmt := "EXPLAIN PAGERANK social 5"
	lines := explainVerb(t, vx, stmt)
	wantContains(t, stmt, lines,
		`pagerank iterations=5 on graph "social" (vertex-centric)`,
		"40 vertices",
		"hash partitions",
		"input cache: edge side built once",
		"combiner: enabled",
		"write-back: update in place when <10%",
		"schedule: up to",
	)
	// Plain EXPLAIN must not run the verb.
	for _, l := range lines {
		if strings.Contains(l, "executed:") {
			t.Fatalf("%s executed the run: %q", stmt, l)
		}
	}

	stmt = "EXPLAIN SSSP social 0 1"
	wantContains(t, stmt, explainVerb(t, vx, stmt),
		"sssp source=0 unit_weights=true", "vertex-centric")

	stmt = "EXPLAIN PAGERANK_SQL social 3"
	wantContains(t, stmt, explainVerb(t, vx, stmt),
		"(iterated SQL)", "iterations: 3 (fixed)")

	stmt = "EXPLAIN TRIANGLES social"
	wantContains(t, stmt, explainVerb(t, vx, stmt),
		"one-shot SQL", "self-join the edge table")

	if _, _, err := vx.SQL("EXPLAIN PAGERANK"); err == nil {
		t.Error("EXPLAIN PAGERANK without a graph name succeeded")
	}
	if _, _, err := vx.SQL("EXPLAIN FROBNICATE social"); err == nil {
		t.Error("EXPLAIN of an unknown verb succeeded")
	}
}

func TestExplainAnalyzeGraphVerb(t *testing.T) {
	vx, _ := smallSocial(t)

	stmt := "EXPLAIN ANALYZE PAGERANK social 4"
	lines := explainVerb(t, vx, stmt)
	wantContains(t, stmt, lines,
		"executed: supersteps=",
		"cache: builds=",
		"superstep  1:",
		"(assemble=",
		" compute=",
		" combine=",
		" write_back=",
		"result: 40 rows",
	)

	stmt = "EXPLAIN ANALYZE COMPONENTS social"
	wantContains(t, stmt, explainVerb(t, vx, stmt),
		"executed: supersteps=", "result: 40 rows")

	stmt = "EXPLAIN ANALYZE TRIANGLES social"
	wantContains(t, stmt, explainVerb(t, vx, stmt), "executed: triangles=")
}
