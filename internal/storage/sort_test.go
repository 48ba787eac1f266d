package storage

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// boxedSortBatch is the reference SortBatch: every compared cell is
// boxed through Value(i) and ordered by Compare under a reflective
// stable sort. SortBatch's typed comparators must agree with it row
// for row.
func boxedSortBatch(b *Batch, keys []SortKey) *Batch {
	n := b.Len()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool {
		for _, k := range keys {
			c := Compare(b.Cols[k.Col].Value(idx[x]), b.Cols[k.Col].Value(idx[y]))
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return b.Gather(idx)
}

// Small value domains, so that random rows tie often on every key.
var (
	sortInts    = []int64{math.MinInt64, -1, 0, 1, 2, math.MaxInt64}
	sortFloats  = []float64{math.NaN(), math.Copysign(0, -1), 0, -1, 1.5, math.Inf(1), math.Inf(-1)}
	sortStrings = []string{"", "a", "ab", "b", "\xff"}
	sortTypes   = []Type{TypeInt64, TypeFloat64, TypeString, TypeBool}
)

// byteSource hands out bytes of a fuzz input, then zeros.
type byteSource struct{ data []byte }

func (s *byteSource) next() int {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return int(b)
}

// sortCase builds a batch and sort keys from a byte source: one to four
// key columns of any type (about one value in eight NULL), one to four
// keys with random direction, and a trailing row-number column that no
// key reads, so two results can be compared by row identity.
func sortCase(src *byteSource) (*Batch, []SortKey) {
	ncols := 1 + src.next()%4
	defs := make([]ColumnDef, 0, ncols+1)
	for c := 0; c < ncols; c++ {
		defs = append(defs, Col("k", sortTypes[src.next()%len(sortTypes)]))
	}
	defs = append(defs, Col("row", TypeInt64))
	b := NewBatch(NewSchema(defs...))
	rows := src.next() % 65
	for r := 0; r < rows; r++ {
		for c := 0; c < ncols; c++ {
			v := src.next()
			if v%8 == 7 {
				b.Cols[c].AppendNull()
				continue
			}
			var val Value
			switch defs[c].Type {
			case TypeInt64:
				val = Int64(sortInts[v%len(sortInts)])
			case TypeFloat64:
				val = Float64(sortFloats[v%len(sortFloats)])
			case TypeString:
				val = Str(sortStrings[v%len(sortStrings)])
			case TypeBool:
				val = Bool(v%2 == 1)
			}
			if err := b.Cols[c].Append(val); err != nil {
				panic(err)
			}
		}
		b.Cols[ncols].(*Int64Column).AppendInt64(int64(r))
	}
	nkeys := 1 + src.next()%4
	keys := make([]SortKey, nkeys)
	for i := range keys {
		v := src.next()
		keys[i] = SortKey{Col: v % ncols, Desc: v&0x80 != 0}
	}
	return b, keys
}

// checkSortMatchesBoxed sorts b both ways and demands the same row
// order and, row for row, bit-identical values and NULL flags.
func checkSortMatchesBoxed(t *testing.T, b *Batch, keys []SortKey) {
	t.Helper()
	got, want := SortBatch(b, keys), boxedSortBatch(b, keys)
	if got.Len() != want.Len() {
		t.Fatalf("keys %v: %d rows, want %d", keys, got.Len(), want.Len())
	}
	rowCol := len(b.Cols) - 1
	gotRows := got.Cols[rowCol].(*Int64Column).Int64s()
	wantRows := want.Cols[rowCol].(*Int64Column).Int64s()
	for i := range wantRows {
		if gotRows[i] != wantRows[i] {
			t.Fatalf("keys %v: position %d holds input row %d, want %d", keys, i, gotRows[i], wantRows[i])
		}
	}
	for c := range b.Cols {
		for i := 0; i < got.Len(); i++ {
			g, w := got.Cols[c].Value(i), want.Cols[c].Value(i)
			if g.Null != w.Null || g.I != w.I || g.S != w.S || math.Float64bits(g.F) != math.Float64bits(w.F) {
				t.Fatalf("keys %v: column %d row %d = %+v, want %+v", keys, c, i, g, w)
			}
		}
	}
}

func TestSortBatchMatchesBoxedComparator(t *testing.T) {
	// Fixed cases: every type, with and without NULLs, both directions,
	// and a multi-key sort whose first key is all ties.
	for _, typ := range sortTypes {
		for _, withNulls := range []bool{false, true} {
			for _, desc := range []bool{false, true} {
				b := NewBatch(NewSchema(Col("k", typ), Col("t", TypeInt64), Col("row", TypeInt64)))
				for r := 0; r < 40; r++ {
					switch {
					case withNulls && r%5 == 0:
						b.Cols[0].AppendNull()
					case typ == TypeInt64:
						_ = b.Cols[0].Append(Int64(sortInts[r%len(sortInts)]))
					case typ == TypeFloat64:
						_ = b.Cols[0].Append(Float64(sortFloats[r%len(sortFloats)]))
					case typ == TypeString:
						_ = b.Cols[0].Append(Str(sortStrings[r%len(sortStrings)]))
					default:
						_ = b.Cols[0].Append(Bool(r%3 == 0))
					}
					b.Cols[1].(*Int64Column).AppendInt64(int64(r % 3))
					b.Cols[2].(*Int64Column).AppendInt64(int64(r))
				}
				checkSortMatchesBoxed(t, b, []SortKey{{Col: 0, Desc: desc}})
				checkSortMatchesBoxed(t, b, []SortKey{{Col: 1}, {Col: 0, Desc: desc}})
				checkSortMatchesBoxed(t, b, []SortKey{{Col: 0, Desc: desc}, {Col: 1, Desc: !desc}})
			}
		}
	}
	// Random cases over the same generator the fuzzer uses.
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		data := make([]byte, 512)
		r.Read(data)
		b, keys := sortCase(&byteSource{data: data})
		checkSortMatchesBoxed(t, b, keys)
	}
}

func TestSortBatchEmpty(t *testing.T) {
	b := NewBatch(NewSchema(Col("k", TypeFloat64)))
	if out := SortBatch(b, []SortKey{{Col: 0}}); out.Len() != 0 {
		t.Fatalf("sorted empty batch has %d rows", out.Len())
	}
}

func FuzzSortBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 2, 3, 16, 0, 7, 15, 23, 1, 2, 3, 4, 5, 6, 7, 8, 2, 0x81, 2})
	f.Add([]byte{1, 1, 40, 0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7, 1, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, keys := sortCase(&byteSource{data: data})
		checkSortMatchesBoxed(t, b, keys)
	})
}
