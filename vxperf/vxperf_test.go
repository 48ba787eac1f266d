package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	vertexica "repro"
	"repro/internal/core"
)

// testOptions shrinks the graph and the window so a traced run of a
// workload takes a few seconds.
func testOptions(t *testing.T) options {
	return options{Seed: 3, Window: time.Second, Trace: true, TmpDir: t.TempDir(), Nodes: 400}
}

// TestExactCountsRepeat runs each traced workload twice on one seed:
// the counts documented as exact must repeat, and every per-layer
// metric meant for the workload must be measured.
func TestExactCountsRepeat(t *testing.T) {
	for _, w := range []string{wFig2, wOLTPRead, wOLTPWrite} {
		t.Run(w, func(t *testing.T) {
			o := testOptions(t)
			var runs [2]*result
			for i := range runs {
				r, err := runWorkload(w, o)
				if err != nil {
					t.Fatal(err)
				}
				if !r.correct() || r.Failed != 0 {
					t.Fatalf("run %d: failed=%d checks=%v", i, r.Failed, r.Errors)
				}
				runs[i] = r
			}
			for _, name := range measuredOn(w) {
				if _, ok := runs[0].Metrics[name]; !ok {
					t.Errorf("%s not measured", name)
				}
			}
			for _, m := range perLayer {
				a, aok := runs[0].Metrics[m.Name]
				b := runs[1].Metrics[m.Name]
				if m.Exact && aok && a != b {
					t.Errorf("%s: %v then %v on the same seed", m.Name, a, b)
				}
			}
		})
	}
}

// TestFig2CheckRejectsWrongResult feeds the measurement loop an
// algorithm whose answer is off by more than the tolerance.
func TestFig2CheckRejectsWrongResult(t *testing.T) {
	for _, off := range []float64{0, 1e-6} {
		r := newResult(wFig2)
		algo := fig2Algo{metric: "pagerank_s", want: []map[int64]float64{{0: 0.5, 1: 0.25}}, tol: 1e-9,
			run: func(context.Context, int) (map[int64]float64, *core.RunStats, error) {
				return map[int64]float64{0: 0.5 + off, 1: 0.25}, nil, nil
			}}
		if err := measureFig2(r, options{}, []fig2Algo{algo}); err != nil {
			t.Fatal(err)
		}
		if got, want := r.correct(), off == 0; got != want {
			t.Errorf("offset %g: correct=%t, want %t (%v)", off, got, want, r.Errors)
		}
	}
}

func TestReadChecksRejectWrongResults(t *testing.T) {
	gd := generate(5, 200)
	var key int64
	for k, dsts := range gd.out {
		if len(dsts) >= 2 {
			key = int64(k)
			break
		}
	}
	want := append([]int64(nil), gd.out[key]...)
	ins := newInsertStream(5, 50, 200)
	ins.src[0], ins.src[1] = key, key+1
	ins.byKey = map[int64][]int{key: {0}, key + 1: {1}}

	if err := gd.checkLookup(key, append([]int64(nil), want...), nil, 0, 0); err != nil {
		t.Fatalf("correct lookup rejected: %v", err)
	}
	withInsert := append(append([]int64(nil), want...), insertBase)
	if err := gd.checkLookup(key, withInsert, ins, 1, 1); err != nil {
		t.Fatalf("lookup with its acknowledged insert rejected: %v", err)
	}
	for name, c := range map[string]struct {
		got           []int64
		ins           *insertStream
		acked, issued int
	}{
		"missing row":              {want[1:], nil, 0, 0},
		"wrong row":                {append([]int64{want[0] + 100000}, want[1:]...), nil, 0, 0},
		"insert on read-only":      {withInsert, nil, 0, 0},
		"insert not yet issued":    {withInsert, ins, 0, 0},
		"other key's insert":       {append(append([]int64(nil), want...), insertBase+1), ins, 2, 2},
		"acknowledged insert lost": {append([]int64(nil), want...), ins, 1, 1},
	} {
		if err := gd.checkLookup(key, c.got, c.ins, c.acked, c.issued); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	labels := make([]string, len(want))
	for i, d := range want {
		labels[i] = nodeLabel(d)
	}
	if err := gd.checkHop1(key, append([]string(nil), labels...)); err != nil {
		t.Fatalf("correct join rejected: %v", err)
	}
	labels[0] = "v-1"
	if err := gd.checkHop1(key, labels); err == nil {
		t.Error("wrong join label accepted")
	}
	if err := gd.checkHop1(key, labels[1:]); err == nil {
		t.Error("short join accepted")
	}
}

func TestRecoveryCheckRejectsLostInsert(t *testing.T) {
	gd := generate(7, 100)
	eng := vertexica.New()
	if err := loadTables(eng.DB(), gd); err != nil {
		t.Fatal(err)
	}
	ins := newInsertStream(7, 4, 100)
	acked := []bool{true, true, true, false}
	// Insert 2 is acknowledged but never written.
	for _, i := range []int{0, 1} {
		if _, err := eng.DB().Exec(fmt.Sprintf("INSERT INTO edges VALUES (%d, %d)", ins.src[i], insertBase+int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	base := int64(len(gd.ds.Edges))
	if err := checkRecovered(eng, ins, acked, base, 3); err == nil {
		t.Error("lost acknowledged insert accepted")
	}
	if err := checkRecovered(eng, ins, []bool{true, true, false, false}, base, 2); err != nil {
		t.Errorf("complete recovery rejected: %v", err)
	}
	if err := checkRecovered(eng, ins, []bool{true, false, false, false}, base, 1); err == nil {
		t.Error("unacknowledged row accepted")
	}
}

func TestOutputRejectsUnmeasuredOrNaN(t *testing.T) {
	// Every workload reports every end-to-end metric, from its own
	// figures.
	var r *result
	for _, w := range workloads {
		r = newResult(w.Name)
		r.Attempted = 1
		for _, m := range endToEnd {
			r.Metrics[m.figure(w.Name)] = 1
		}
		out := r.output(false)
		if !out.Correct || len(out.Metrics) != len(endToEnd) {
			t.Fatalf("%s: complete result rejected or short: %v", w.Name, r.Errors)
		}
		// A figure in seconds reads in ms under its slot.
		if want := map[string]float64{wFig2: 1000, wOLTPRead: 1, wOLTPWrite: 1}[w.Name]; out.Metrics["op_a_ms"].Value != want {
			t.Errorf("%s: op_a_ms = %v, want %v", w.Name, out.Metrics["op_a_ms"].Value, want)
		}
	}
	r = newResult(wOLTPRead)
	r.Attempted = 1
	for _, m := range endToEnd {
		r.Metrics[m.figure(wOLTPRead)] = 1
	}
	r.Metrics["hop1_p90_ms"] = math.NaN()
	if out := r.output(false); out.Correct {
		t.Error("NaN metric accepted")
	}
	r = newResult(wFig2)
	r.Attempted = 1
	if out := r.output(false); out.Correct {
		t.Error("missing metrics accepted")
	}

	// Traced: a layer the workload does not exercise reads 0, one it
	// must measure fails the run when missing.
	r = newResult(wFig2)
	r.Attempted = 1
	for _, name := range measuredOn(wFig2) {
		r.Metrics[name] = 1
	}
	if out := r.output(true); !out.Correct || out.Metrics["client.lookup_ms"].Value != 0 {
		t.Fatalf("complete traced result rejected: %v", r.Errors)
	}
	delete(r.Metrics, "core.cache_hit_ratio")
	if out := r.output(true); out.Correct {
		t.Error("unmeasured core.cache_hit_ratio accepted on fig2")
	}
}

// TestFig2ChecksEachSource gives each rotation its own reference
// answer, as the SSSP runs have one per source: a run that answers for
// the first source every time passes the first rotation only.
func TestFig2ChecksEachSource(t *testing.T) {
	want := []map[int64]float64{{0: 0}, {0: 1}}
	for _, follow := range []bool{true, false} {
		r := newResult(wFig2)
		algo := fig2Algo{metric: "sssp_s", want: want, tol: 1e-12,
			run: func(_ context.Context, rot int) (map[int64]float64, *core.RunStats, error) {
				if !follow {
					rot = 0
				}
				return want[rot%len(want)], nil, nil
			}}
		if err := measureFig2(r, options{}, []fig2Algo{algo}); err != nil {
			t.Fatal(err)
		}
		if r.correct() != follow {
			t.Errorf("run follows its source: %t, correct=%t (%v)", follow, r.correct(), r.Errors)
		}
	}
}

func TestHubsLeadWithMaxOutDegree(t *testing.T) {
	gd := generate(4, 300)
	hubs := gd.hubs(ssspSources)
	if hubs[0] != gd.ds.MaxOutDegreeNode() {
		t.Errorf("first hub %d, max out-degree node %d", hubs[0], gd.ds.MaxOutDegreeNode())
	}
	for i := 1; i < len(hubs); i++ {
		if len(gd.out[hubs[i]]) > len(gd.out[hubs[i-1]]) {
			t.Errorf("hubs out of order: %v", hubs)
		}
	}
}

// TestPairedOverheadCancelsDrift: times that rise steadily with no
// tracing cost give an overhead near 0 in the traced rotation order.
func TestPairedOverheadCancelsDrift(t *testing.T) {
	o := options{Window: 32 * time.Second, Trace: true}
	var untraced, traced []float64
	for rot := 0; rot < fig2Rotations(o); rot++ {
		d := 1 + 0.02*float64(rot)
		if tracedRotation(o, rot) {
			traced = append(traced, d)
		} else {
			untraced = append(untraced, d)
		}
	}
	if got := pairedOverheadPct(untraced, traced); math.Abs(got) > 0.1 {
		t.Errorf("overhead %.3f%% from drift alone", got)
	}
}

// TestSpecIsConsistent checks the tables BENCHMARK.json comes from.
func TestSpecIsConsistent(t *testing.T) {
	names := map[string]bool{}
	e2e := map[string]bool{}
	for _, m := range endToEnd {
		e2e[m.Name] = true
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		if m.Figures != nil && len(m.Figures) != len(workloads) {
			t.Errorf("%s: figures for %d of %d workloads", m.Name, len(m.Figures), len(workloads))
		}
	}
	for _, ms := range [][]metric{endToEnd, perLayer} {
		for _, m := range ms {
			if names[m.Name] {
				t.Errorf("%s defined twice", m.Name)
			}
			names[m.Name] = true
		}
	}
	for _, m := range perLayer {
		if strings.HasPrefix(m.Moves, "none") {
			continue
		}
		for _, target := range strings.Split(m.Moves, ",") {
			if !e2e[strings.TrimSpace(target)] {
				t.Errorf("%s moves unknown metric %q", m.Name, target)
			}
		}
	}
	for _, w := range workloads {
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
}

func TestSeriesTakesMediansOverSubWindows(t *testing.T) {
	s := &series{}
	// Four sub-windows of 100 requests; the third has a slow burst.
	for w := 0; w < 4; w++ {
		for i := 0; i < 100; i++ {
			v := float64(i%10 + 1)
			if w == 2 {
				v *= 10
			}
			s.add(v, time.Duration(w)*subWindow+time.Duration(i)*time.Millisecond)
		}
	}
	s.add(math.Inf(1), 4*subWindow+time.Millisecond) // after the last full sub-window
	window := 4*subWindow + time.Second
	if got := s.tail(0.9, window); got != 9 {
		t.Errorf("tail = %v, want 9 (the burst moves one sub-window of four)", got)
	}
}
