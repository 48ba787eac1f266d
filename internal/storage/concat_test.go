package storage

import (
	"fmt"
	"slices"
	"testing"
)

// refConcat is the per-value loop Concat ran before typed appends:
// every cell goes through Value and Append, and so through Coerce. It
// is the reference the typed kernel is checked against.
func refConcat(dst, src *Batch) error {
	if len(dst.Cols) != len(src.Cols) {
		return fmt.Errorf("storage: concat arity mismatch %d vs %d", len(dst.Cols), len(src.Cols))
	}
	for j := range dst.Cols {
		for i := 0; i < src.Cols[j].Len(); i++ {
			if err := dst.Cols[j].Append(src.Cols[j].Value(i)); err != nil {
				return err
			}
		}
	}
	return nil
}

// refConcatBatches is the NewBatch + per-value Concat drain that
// ConcatBatches replaces.
func refConcatBatches(s Schema, bs []*Batch) (*Batch, error) {
	out := NewBatch(s)
	for _, b := range bs {
		if err := refConcat(out, b); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// refGatherPad is the per-value padding loop GatherPad ran before it
// gathered typed slices.
func refGatherPad(c Column, idx []int) Column {
	out := NewColumn(c.Type(), len(idx))
	for _, i := range idx {
		if i < 0 || c.IsNull(i) {
			out.AppendNull()
			continue
		}
		_ = out.Append(c.Value(i))
	}
	return out
}

var concatTypes = []Type{TypeInt64, TypeFloat64, TypeString, TypeBool}

// allTypesSchema has one column of each type.
var allTypesSchema = NewSchema(Col("i", TypeInt64), Col("f", TypeFloat64), Col("s", TypeString), Col("b", TypeBool))

// genValue derives a non-null value of type t from v.
func genValue(t Type, v int) Value {
	switch t {
	case TypeInt64:
		return Int64(int64(v) - 7)
	case TypeFloat64:
		return Float64(float64(v) / 4)
	case TypeString:
		return Str(fmt.Sprintf("s%d", v))
	default:
		return Bool(v%2 == 1)
	}
}

// genBatch builds an n-row batch with schema s. Row i of column j holds
// genValue(seed+i+j), or NULL when isNull(i). A NULL row keeps its
// non-zero raw value, as a row computed from a NULL operand does, so a
// kernel that forgets to store NULL rows as the zero value shows.
func genBatch(s Schema, n, seed int, isNull func(int) bool) *Batch {
	b := &Batch{Schema: s, Cols: make([]Column, s.Len())}
	for j, c := range s.Cols {
		col := NewColumn(c.Type, n)
		var nulls *Bitmap
		for i := 0; i < n; i++ {
			_ = col.Append(genValue(c.Type, seed+i+j))
			if isNull != nil && isNull(i) {
				if nulls == nil {
					nulls = NewBitmap(n)
				}
				nulls.Set(i)
			}
		}
		if nulls != nil {
			SetNulls(col, nulls)
		}
		b.Cols[j] = col
	}
	return b
}

func every(k int) func(int) bool { return func(i int) bool { return i%k == 0 } }

// sameColumn fails t unless got and want hold the same raw values, the
// same NULL rows, and agree on whether a null bitmap is materialized.
func sameColumn(t *testing.T, name string, got, want Column) {
	t.Helper()
	if got.Type() != want.Type() || got.Len() != want.Len() {
		t.Errorf("%s: got %v x %d rows, want %v x %d", name, got.Type(), got.Len(), want.Type(), want.Len())
		return
	}
	var eq bool
	switch w := want.(type) {
	case *Int64Column:
		eq = slices.Equal(got.(*Int64Column).vals, w.vals)
	case *Float64Column:
		eq = slices.Equal(got.(*Float64Column).vals, w.vals)
	case *StringColumn:
		eq = slices.Equal(got.(*StringColumn).vals, w.vals)
	case *BoolColumn:
		eq = slices.Equal(got.(*BoolColumn).vals, w.vals)
	}
	if !eq {
		t.Errorf("%s: raw values differ", name)
	}
	gn, wn := NullsOf(got), NullsOf(want)
	if (gn == nil) != (wn == nil) {
		t.Errorf("%s: null bitmap materialized = %v, want %v", name, gn != nil, wn != nil)
	}
	for i := 0; i < want.Len(); i++ {
		if got.IsNull(i) != want.IsNull(i) {
			t.Errorf("%s: row %d NULL = %v, want %v", name, i, got.IsNull(i), want.IsNull(i))
			return
		}
	}
}

func sameBatch(t *testing.T, got, want *Batch) {
	t.Helper()
	if len(got.Cols) != len(want.Cols) {
		t.Fatalf("got %d columns, want %d", len(got.Cols), len(want.Cols))
	}
	for j := range want.Cols {
		sameColumn(t, fmt.Sprintf("column %d", j), got.Cols[j], want.Cols[j])
	}
}

// checkConcat runs Concat and ConcatBatches on fresh copies of the same
// inputs (build makes them) against the per-value reference, and
// returns the ConcatBatches error.
func checkConcat(t *testing.T, s Schema, build func() (dst *Batch, srcs []*Batch)) error {
	t.Helper()
	dst, srcs := build()
	got, gerr := ConcatBatches(s, append([]*Batch{dst}, srcs...))
	dst, srcs = build()
	want, werr := refConcatBatches(s, append([]*Batch{dst}, srcs...))
	if (gerr != nil) != (werr != nil) {
		t.Fatalf("ConcatBatches error = %v, reference error = %v", gerr, werr)
	}
	if gerr == nil {
		sameBatch(t, got, want)
	}
	err := gerr

	gdst, gsrcs := build()
	wdst, wsrcs := build()
	for i := range gsrcs {
		gerr, werr = Concat(gdst, gsrcs[i]), refConcat(wdst, wsrcs[i])
		if (gerr != nil) != (werr != nil) {
			t.Fatalf("Concat error = %v, reference error = %v", gerr, werr)
		}
	}
	if gerr == nil {
		sameBatch(t, gdst, wdst)
	}
	return err
}

func TestConcatMatchesPerValueLoop(t *testing.T) {
	nullCases := []struct {
		name          string
		dstNulls, src func(int) bool
	}{
		{"neither", nil, nil},
		{"dst only", every(3), nil},
		{"src only", nil, every(5)},
		{"both", every(3), every(5)},
	}
	for _, typ := range concatTypes {
		s := NewSchema(Col("c", typ))
		for _, nc := range nullCases {
			t.Run(fmt.Sprintf("%v/%s", typ, nc.name), func(t *testing.T) {
				// 70-row inputs put the source bits at an offset that
				// straddles a bitmap word.
				checkConcat(t, s, func() (*Batch, []*Batch) {
					return genBatch(s, 70, 0, nc.dstNulls), []*Batch{genBatch(s, 70, 100, nc.src), genBatch(s, 3, 200, nc.src)}
				})
			})
		}
	}
	s := allTypesSchema
	t.Run("all types", func(t *testing.T) {
		checkConcat(t, s, func() (*Batch, []*Batch) {
			return genBatch(s, 64, 0, every(7)), []*Batch{genBatch(s, 1, 9, nil), genBatch(s, 130, 5, every(4))}
		})
	})
	t.Run("source bitmap without NULL rows", func(t *testing.T) {
		// The slice keeps a bitmap, but every NULL row is outside it.
		checkConcat(t, s, func() (*Batch, []*Batch) {
			src := genBatch(s, 130, 0, func(i int) bool { return i < 10 }).Slice(20, 130)
			return genBatch(s, 5, 1, nil), []*Batch{src}
		})
	})
	t.Run("empty batches", func(t *testing.T) {
		checkConcat(t, s, func() (*Batch, []*Batch) {
			return genBatch(s, 0, 0, nil), []*Batch{genBatch(s, 0, 0, nil), genBatch(s, 9, 3, every(2)), genBatch(s, 0, 0, nil)}
		})
	})
	t.Run("coerced INTEGER into DOUBLE", func(t *testing.T) {
		ints := NewSchema(Col("i", TypeInt64), Col("f", TypeInt64), Col("s", TypeString), Col("b", TypeBool))
		checkConcat(t, s, func() (*Batch, []*Batch) {
			return genBatch(s, 10, 0, every(3)), []*Batch{genBatch(ints, 70, 4, every(6)), genBatch(s, 2, 0, nil)}
		})
	})
	t.Run("coerced VARCHAR into INTEGER fails", func(t *testing.T) {
		one := NewSchema(Col("i", TypeInt64))
		strs := NewSchema(Col("i", TypeString))
		err := checkConcat(t, one, func() (*Batch, []*Batch) {
			return genBatch(one, 2, 0, nil), []*Batch{genBatch(strs, 2, 0, nil)}
		})
		if err == nil {
			t.Error("VARCHAR 's0' coerced into an INTEGER column without error")
		}
	})
}

func TestConcatBatchesZeroBatches(t *testing.T) {
	out, err := ConcatBatches(allTypesSchema, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := refConcatBatches(allTypesSchema, nil)
	sameBatch(t, out, want)
	if out.Len() != 0 || len(out.Cols) != allTypesSchema.Len() {
		t.Errorf("zero batches: %d rows x %d columns, want 0 x %d", out.Len(), len(out.Cols), allTypesSchema.Len())
	}
}

func TestConcatArityMismatch(t *testing.T) {
	one := NewSchema(Col("i", TypeInt64))
	if err := Concat(genBatch(allTypesSchema, 1, 0, nil), genBatch(one, 1, 0, nil)); err == nil {
		t.Error("Concat: arity mismatch not reported")
	}
	if _, err := ConcatBatches(allTypesSchema, []*Batch{genBatch(allTypesSchema, 1, 0, nil), genBatch(one, 1, 0, nil)}); err == nil {
		t.Error("ConcatBatches: arity mismatch not reported")
	}
}

// TestConcatBatchesAllocsIndependentOfRows pins the kernel's allocation
// count: the output batch, its column list, and per column the column
// and its values (plus the bitmap when a NULL is present), whatever the
// number of rows.
func TestConcatBatchesAllocsIndependentOfRows(t *testing.T) {
	s := allTypesSchema
	allocs := func(rows int, isNull func(int) bool) float64 {
		bs := make([]*Batch, 4)
		for i := range bs {
			bs[i] = genBatch(s, rows, i, isNull)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := ConcatBatches(s, bs); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, c := range []struct {
		name    string
		isNull  func(int) bool
		ceiling int
	}{
		{"no NULLs", nil, 2 + 2*s.Len()},
		{"NULLs", every(9), 2 + 4*s.Len()},
	} {
		small, large := allocs(10, c.isNull), allocs(5000, c.isNull)
		if small != large {
			t.Errorf("%s: %v allocs for 4x10 rows, %v for 4x5000", c.name, small, large)
		}
		if large > float64(c.ceiling) {
			t.Errorf("%s: %v allocs, want at most %d", c.name, large, c.ceiling)
		}
	}
}

func TestGatherPadMatchesPerValueLoop(t *testing.T) {
	idx := []int{3, -1, 0, 69, -1, 65, 3, 64}
	for _, typ := range concatTypes {
		s := NewSchema(Col("c", typ))
		for _, isNull := range []func(int) bool{nil, every(3)} {
			src := genBatch(s, 70, 0, isNull).Cols[0]
			name := fmt.Sprintf("%v, source NULLs %v", typ, isNull != nil)
			sameColumn(t, name, GatherPad(src, idx), refGatherPad(src, idx))
		}
	}
}

// FuzzConcatBatches checks Concat and ConcatBatches against the
// per-value reference on batches the input bytes describe: row counts,
// NULL patterns, slice offsets, and INTEGER sources for the DOUBLE
// column (the coercing fallback).
func FuzzConcatBatches(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 70, 0, 3, 0, 0, 1, 9, 0, 5, 1, 0, 130, 2, 2, 65, 3})
	f.Add([]byte{2, 0, 0, 0, 0, 0, 64, 1, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0])
			data = data[1:]
			return v
		}
		s := allTypesSchema
		ints := NewSchema(Col("i", TypeInt64), Col("f", TypeInt64), Col("s", TypeString), Col("b", TypeBool))
		type spec struct {
			rows, seed, nullMod, off int
			coerce                   bool
		}
		specs := make([]spec, next()%5)
		for i := range specs {
			specs[i] = spec{rows: next() % 140, seed: next(), nullMod: next() % 8, off: next() % 70, coerce: i > 0 && next()%4 == 0}
		}
		checkConcat(t, s, func() (*Batch, []*Batch) {
			bs := make([]*Batch, len(specs))
			for i, sp := range specs {
				bs[i] = fuzzBatch(s, ints, sp.rows, sp.seed, sp.nullMod, sp.off, sp.coerce)
			}
			if len(bs) == 0 {
				return genBatch(s, 0, 0, nil), nil
			}
			return bs[0], bs[1:]
		})
	})
}

// fuzzBatch builds rows rows by slicing them at off out of a larger
// batch, so the null bitmap may be present without a NULL in range.
func fuzzBatch(s, ints Schema, rows, seed, nullMod, off int, coerce bool) *Batch {
	var isNull func(int) bool
	if nullMod > 0 {
		isNull = func(i int) bool { return (i+seed)%(nullMod+1) == 0 }
	}
	if coerce {
		s = ints
	}
	return genBatch(s, off+rows, seed, isNull).Slice(off, off+rows)
}
