package storage

import (
	"cmp"
	"fmt"
	"slices"
)

// BatchSize is the default number of rows in a record batch produced by
// the vectorized executor.
const BatchSize = 1024

// Batch is a set of equal-length columns: the unit of data flow between
// executor operators.
type Batch struct {
	Schema Schema
	Cols   []Column
}

// NewBatch allocates an empty batch with columns matching the schema.
func NewBatch(s Schema) *Batch {
	b := &Batch{Schema: s, Cols: make([]Column, s.Len())}
	for i, c := range s.Cols {
		b.Cols[i] = NewColumn(c.Type, BatchSize)
	}
	return b
}

// Len returns the number of rows in the batch (0 for an empty batch).
func (b *Batch) Len() int {
	if b == nil || len(b.Cols) == 0 {
		return 0
	}
	return b.Cols[0].Len()
}

// Row materializes row i as a slice of values (mostly for tests, result
// rendering, and the tuple-at-a-time vertex workers).
func (b *Batch) Row(i int) []Value {
	out := make([]Value, len(b.Cols))
	for j, c := range b.Cols {
		out[j] = c.Value(i)
	}
	return out
}

// AppendRow appends a row of values, coercing to the schema types.
func (b *Batch) AppendRow(vals ...Value) error {
	if len(vals) != len(b.Cols) {
		return fmt.Errorf("storage: row has %d values, schema has %d columns", len(vals), len(b.Cols))
	}
	for j, v := range vals {
		if err := b.Cols[j].Append(v); err != nil {
			return err
		}
	}
	return nil
}

// Gather returns a new batch containing the rows at the given indexes.
func (b *Batch) Gather(idx []int) *Batch {
	out := &Batch{Schema: b.Schema, Cols: make([]Column, len(b.Cols))}
	for j, c := range b.Cols {
		out.Cols[j] = c.Gather(idx)
	}
	return out
}

// Slice returns rows [from, to) as a new batch.
func (b *Batch) Slice(from, to int) *Batch {
	out := &Batch{Schema: b.Schema, Cols: make([]Column, len(b.Cols))}
	for j, c := range b.Cols {
		out.Cols[j] = c.Slice(from, to)
	}
	return out
}

// SortKey describes one sort criterion for SortBatch.
type SortKey struct {
	Col  int
	Desc bool
}

// SortBatch returns a new batch with rows reordered by the sort keys
// (stable). NULLs sort first, matching Compare. Each key compares the
// column's typed values directly; ties on every key fall back to the
// input row index, which makes the sort stable.
func SortBatch(b *Batch, keys []SortKey) *Batch {
	n := b.Len()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	cmps := make([]func(x, y int) int, len(keys))
	for i, k := range keys {
		cmps[i] = columnComparator(b.Cols[k.Col], k.Desc)
	}
	slices.SortFunc(idx, func(x, y int) int {
		for _, c := range cmps {
			if r := c(x, y); r != 0 {
				return r
			}
		}
		return cmp.Compare(x, y)
	})
	return b.Gather(idx)
}

// columnComparator returns a three-way comparison of rows x and y of c
// that agrees with Compare on the boxed values: NULLs first, NaN below
// every other float, -0 equal to +0, false before true.
func columnComparator(c Column, desc bool) func(x, y int) int {
	var f func(x, y int) int
	switch col := c.(type) {
	case *Int64Column:
		f = orderedComparator(col.vals, col.nulls)
	case *Float64Column:
		f = orderedComparator(col.vals, col.nulls)
	case *StringColumn:
		f = orderedComparator(col.vals, col.nulls)
	case *BoolColumn:
		f = nullsFirst(col.nulls, func(x, y int) int {
			return cmp.Compare(boolRank(col.vals[x]), boolRank(col.vals[y]))
		})
	default:
		f = func(x, y int) int { return Compare(c.Value(x), c.Value(y)) }
	}
	if desc {
		return func(x, y int) int { return f(y, x) }
	}
	return f
}

func orderedComparator[T cmp.Ordered](vals []T, nulls *Bitmap) func(x, y int) int {
	return nullsFirst(nulls, func(x, y int) int { return cmp.Compare(vals[x], vals[y]) })
}

// nullsFirst wraps a comparison of non-NULL rows so that NULL rows sort
// before every other row. A column without NULL rows skips the check.
func nullsFirst(nulls *Bitmap, f func(x, y int) int) func(x, y int) int {
	if !nulls.Any() {
		return f
	}
	return func(x, y int) int {
		nx, ny := nulls.Get(x), nulls.Get(y)
		switch {
		case nx && ny:
			return 0
		case nx:
			return -1
		case ny:
			return 1
		}
		return f(x, y)
	}
}

func boolRank(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Concat appends the rows of src to dst (schemas must be compatible).
// Columns of matching type are appended as whole slices; a mismatched
// column type falls back to coercing each value.
func Concat(dst, src *Batch) error {
	if len(dst.Cols) != len(src.Cols) {
		return fmt.Errorf("storage: concat arity mismatch %d vs %d", len(dst.Cols), len(src.Cols))
	}
	for j := range dst.Cols {
		if err := appendColumn(dst.Cols[j], src.Cols[j]); err != nil {
			return err
		}
	}
	return nil
}

// ConcatBatches concatenates bs, in order, into one new batch with
// schema s. It sums the row counts first and allocates each output
// column once at its final length, so its allocation count depends on
// the number of columns and not on the number of rows. Inputs whose
// column types differ from s are coerced per value, as in Concat.
//
// The output never shares storage with the inputs. Callers collect the
// batches an operator returns from Next and concatenate them once at
// the end of the drain; that is sound because no operator reuses or
// mutates a batch after returning it (every Next hands out a freshly
// built batch, a copy, or an immutable materialized result).
func ConcatBatches(s Schema, bs []*Batch) (*Batch, error) {
	total := 0
	for _, b := range bs {
		if len(b.Cols) != s.Len() {
			return nil, fmt.Errorf("storage: concat arity mismatch %d vs %d", s.Len(), len(b.Cols))
		}
		total += b.Len()
	}
	out := &Batch{Schema: s, Cols: make([]Column, s.Len())}
	for j, c := range s.Cols {
		col := NewColumn(c.Type, total)
		for _, b := range bs {
			if err := appendColumn(col, b.Cols[j]); err != nil {
				return nil, err
			}
		}
		out.Cols[j] = col
	}
	return out, nil
}
