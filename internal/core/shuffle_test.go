package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/engine"
)

// concatCombiner folds a destination's values into one string in
// delivery order, so any change to the fold order shows in the result.
func concatCombiner(dst int64, values []string) string {
	return strconv.FormatInt(dst, 10) + ":" + strings.Join(values, "+")
}

// randomMessages draws n messages to destinations in [-5, 60) — some
// below, inside and above the vertex ids 0..39 — with repeated sources
// and values, so ties on (dst, src) occur.
func randomMessages(r *rand.Rand, n int) []Message {
	msgs := make([]Message, n)
	for i := range msgs {
		msgs[i] = Message{
			Src:   int64(r.Intn(10)) - 1,
			Dst:   int64(r.Intn(65)) - 5,
			Value: strconv.Itoa(r.Intn(6)),
		}
	}
	return msgs
}

// TestShuffleMatchesGlobalSort checks that the destination-range
// shuffle yields exactly the messages, in exactly the order, of one
// global sort followed by one combine — at bucket counts 1, 2, 7 and 64
// and with the messages spread over 1, 2 or 8 workers.
func TestShuffleMatchesGlobalSort(t *testing.T) {
	ids := make([]int64, 40)
	for i := range ids {
		ids[i] = int64(i)
	}
	r := rand.New(rand.NewSource(7))
	msgs := randomMessages(r, 2000)
	for _, combine := range []Combiner{nil, concatCombiner} {
		want := slices.Clone(msgs)
		sortMessages(want)
		if combine != nil {
			want = combineMessages(want, combine)
		}
		for _, buckets := range []int{1, 2, 7, 64} {
			s := newShuffle(ids, buckets)
			if s.buckets() != buckets {
				t.Fatalf("newShuffle(%d) made %d buckets", buckets, s.buckets())
			}
			for _, workers := range []int{1, 2, 8} {
				routed := make([][][]Message, workers)
				for w := range routed {
					routed[w] = make([][]Message, s.buckets())
				}
				for i, m := range msgs {
					w := (i * 7919) % workers
					s.route(routed[w], []Message{m})
				}
				out := s.exchange(routed, combine, nil, workers)
				var got []Message
				for b, bucket := range out {
					for _, m := range bucket {
						if s.bucket(m.Dst) != b {
							t.Fatalf("message to %d landed in bucket %d", m.Dst, b)
						}
					}
					got = append(got, bucket...)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("combine=%v buckets=%d workers=%d: shuffle output differs from the global sort",
						combine != nil, buckets, workers)
				}
			}
		}
	}
}

func TestShuffleBucketRanges(t *testing.T) {
	s := newShuffle([]int64{10, 20, 30, 40}, 2)
	for dst, want := range map[int64]int{-1: 0, 10: 0, 29: 0, 30: 1, 40: 1, 99: 1} {
		if got := s.bucket(dst); got != want {
			t.Errorf("bucket(%d) = %d, want %d", dst, got, want)
		}
	}
	// More buckets than vertices: empty ranges, still every id routed
	// to a bucket whose range holds it.
	s = newShuffle([]int64{5}, 4)
	if s.buckets() != 4 || s.bucket(4) != 0 || s.bucket(5) != 3 {
		t.Errorf("one-vertex shuffle: %d buckets, bucket(4)=%d bucket(5)=%d", s.buckets(), s.bucket(4), s.bucket(5))
	}
}

// edgeRecorder writes each vertex's out-edges, in GetOutEdges order,
// into its value in superstep 0 and halts.
type edgeRecorder struct{}

func (edgeRecorder) Compute(ctx *VertexContext, _ []Message) error {
	var b strings.Builder
	for _, e := range ctx.GetOutEdges() {
		fmt.Fprintf(&b, "%d/%g/%s/%d ", e.Dst, e.Weight, e.Type, e.Created)
	}
	ctx.ModifyVertexValue(b.String())
	ctx.VoteToHalt()
	return nil
}

// TestOutEdgeOrderAcrossInputPaths loads parallel edges that differ
// only in weight, type or creation time, in scrambled order, and
// demands the same GetOutEdges order from the cached, uncached and
// join input paths: the total edge order, not the load order.
func TestOutEdgeOrderAcrossInputPaths(t *testing.T) {
	edges := []Edge{
		{Src: 1, Dst: 3, Weight: 1},
		{Src: 1, Dst: 2, Weight: 3},
		{Src: 1, Dst: 2, Weight: 2, Type: "b"},
		{Src: 1, Dst: 2, Weight: 1},
		{Src: 1, Dst: 2, Weight: 2, Type: "a", Created: 9},
		{Src: 1, Dst: 2, Weight: 2, Type: "a", Created: 4},
		{Src: 2, Dst: 1, Weight: 0.5},
		{Src: 2, Dst: 1, Weight: -0.5},
	}
	want := map[int64]string{
		1: "2/1//0 2/2/a/4 2/2/a/9 2/2/b/0 2/3//0 3/1//0 ",
		2: "1/-0.5//0 1/0.5//0 ",
		3: "",
	}
	for _, opts := range []Options{
		{Workers: 2, Partitions: 3},
		{Workers: 2, Partitions: 3, DisableInputCache: true},
		{Workers: 2, Partitions: 3, UseJoinInput: true},
	} {
		for _, order := range [][]int{{0, 1, 2, 3, 4, 5, 6, 7}, {7, 5, 3, 1, 6, 4, 2, 0}} {
			g, err := CreateGraph(engine.New(), "par")
			if err != nil {
				t.Fatal(err)
			}
			loaded := make([]Edge, len(order))
			for i, j := range order {
				loaded[i] = edges[j]
			}
			if err := g.BulkLoad(map[int64]string{1: "", 2: "", 3: ""}, loaded); err != nil {
				t.Fatal(err)
			}
			if _, err := Run(context.Background(), g, edgeRecorder{}, opts); err != nil {
				t.Fatal(err)
			}
			got, err := g.VertexValues()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("opts %+v, load order %v: out-edges\n got  %q\n want %q", opts, order, got, want)
			}
		}
	}
}

// TestOutEdgesWithoutSourceVertex deletes a vertex row but not its
// out-edges: the cached path must skip that source's adjacency run and
// still hand every remaining vertex its own edges.
func TestOutEdgesWithoutSourceVertex(t *testing.T) {
	var results []map[int64]string
	for _, opts := range []Options{
		{Workers: 1, Partitions: 1},
		{Workers: 1, Partitions: 1, DisableInputCache: true},
	} {
		g, err := CreateGraph(engine.New(), "gone")
		if err != nil {
			t.Fatal(err)
		}
		if err := g.BulkLoad(nil, []Edge{
			{Src: 1, Dst: 3, Weight: 1}, {Src: 2, Dst: 3, Weight: 2}, {Src: 3, Dst: 1, Weight: 3},
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := g.DB.Exec("DELETE FROM gone_vertex WHERE id = 2"); err != nil {
			t.Fatal(err)
		}
		if _, err := Run(context.Background(), g, edgeRecorder{}, opts); err != nil {
			t.Fatal(err)
		}
		vals, err := g.VertexValues()
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, vals)
	}
	want := map[int64]string{1: "3/1//0 ", 3: "1/3//0 "}
	for i, got := range results {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("run %d: out-edges %q, want %q", i, got, want)
		}
	}
}

// edgeAppender appends to its GetOutEdges slice, against the contract,
// then records its edges as edgeRecorder does.
type edgeAppender struct{}

func (edgeAppender) Compute(ctx *VertexContext, msgs []Message) error {
	_ = append(ctx.GetOutEdges(), Edge{Src: ctx.Id(), Dst: 99})
	return edgeRecorder{}.Compute(ctx, msgs)
}

// TestOutEdgesAreCapped checks that a program appending to its cached
// out-edges cannot overwrite the next vertex's run of the adjacency.
func TestOutEdgesAreCapped(t *testing.T) {
	g, err := CreateGraph(engine.New(), "cap")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.BulkLoad(nil, []Edge{{Src: 1, Dst: 2}, {Src: 2, Dst: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), g, edgeAppender{}, Options{Workers: 1, Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	vals, _ := g.VertexValues()
	if vals[2] != "1/0//0 " {
		t.Errorf("vertex 2 out-edges = %q, want %q", vals[2], "1/0//0 ")
	}
}

// TestSuperstepPhasesTileDuration checks the per-phase split of every
// superstep: no phase is negative and together they fit inside the
// superstep's Duration.
func TestSuperstepPhasesTileDuration(t *testing.T) {
	for _, opts := range []Options{
		{Workers: 2, Partitions: 4},
		{Workers: 2, Partitions: 4, DisableInputCache: true, UpdateThreshold: -1},
	} {
		g := chainGraph(t, 10)
		stats, err := Run(context.Background(), g, propagate{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range stats.Steps {
			phases := []int64{int64(st.Assemble), int64(st.Compute), int64(st.Combine), int64(st.WriteBack)}
			var sum int64
			for _, p := range phases {
				if p < 0 {
					t.Errorf("superstep %d: negative phase in %+v", st.Superstep, st)
				}
				sum += p
			}
			if sum > int64(st.Duration) {
				t.Errorf("superstep %d: phases sum to %d ns, more than Duration %d ns", st.Superstep, sum, st.Duration)
			}
		}
	}
}
