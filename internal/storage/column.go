package storage

import (
	"fmt"
	"math/bits"
)

// Column is a typed, null-aware vector of values. Operators in the
// executor work on whole columns (vectorized execution); the vertex
// workers read them value-at-a-time through Value(i).
type Column interface {
	// Type returns the element type of the column.
	Type() Type
	// Len returns the number of rows.
	Len() int
	// IsNull reports whether row i is NULL.
	IsNull(i int) bool
	// Value returns the value at row i.
	Value(i int) Value
	// Append appends a value, coercing it to the column type.
	Append(v Value) error
	// AppendNull appends a NULL row.
	AppendNull()
	// Slice returns a copy of rows [from, to).
	Slice(from, to int) Column
	// Gather returns a new column with the rows at the given indexes,
	// in order. It is the core primitive behind filters, joins and
	// hash partitioning.
	Gather(idx []int) Column
}

// GatherPad is Gather with padding: index -1 yields a NULL row. The
// hash join's vectorized left-join path uses it to pad unmatched rows.
// Like AppendNull, a padded or NULL row holds the type's zero value.
func GatherPad(c Column, idx []int) Column {
	hasPad := false
	for _, i := range idx {
		if i < 0 {
			hasPad = true
			break
		}
	}
	if !hasPad {
		return c.Gather(idx)
	}
	src := NullsOf(c)
	nulls := NewBitmap(len(idx))
	for j, i := range idx {
		if i < 0 || src.Get(i) {
			nulls.Set(j)
		}
	}
	switch col := c.(type) {
	case *Int64Column:
		return &Int64Column{vals: gatherPadVals(col.vals, idx, nulls), nulls: nulls}
	case *Float64Column:
		return &Float64Column{vals: gatherPadVals(col.vals, idx, nulls), nulls: nulls}
	case *StringColumn:
		return &StringColumn{vals: gatherPadVals(col.vals, idx, nulls), nulls: nulls}
	case *BoolColumn:
		return &BoolColumn{vals: gatherPadVals(col.vals, idx, nulls), nulls: nulls}
	default:
		panic(fmt.Sprintf("storage: unknown column %T", c))
	}
}

// gatherPadVals gathers vals at idx, leaving the rows set in nulls at
// the zero value.
func gatherPadVals[T any](vals []T, idx []int, nulls *Bitmap) []T {
	out := make([]T, len(idx))
	for j, i := range idx {
		if !nulls.Get(j) {
			out[j] = vals[i]
		}
	}
	return out
}

// appendColumn appends the rows of src to dst. When the column types
// match, the values are copied as one slice and the null bitmap is
// carried over (materialized only when src has a NULL row). Otherwise,
// such as INTEGER rows going into a DOUBLE column, each value is
// coerced through Append.
func appendColumn(dst, src Column) error {
	switch d := dst.(type) {
	case *Int64Column:
		if s, ok := src.(*Int64Column); ok {
			d.vals, d.nulls = appendTyped(d.vals, d.nulls, s.vals, s.nulls)
			return nil
		}
	case *Float64Column:
		if s, ok := src.(*Float64Column); ok {
			d.vals, d.nulls = appendTyped(d.vals, d.nulls, s.vals, s.nulls)
			return nil
		}
	case *StringColumn:
		if s, ok := src.(*StringColumn); ok {
			d.vals, d.nulls = appendTyped(d.vals, d.nulls, s.vals, s.nulls)
			return nil
		}
	case *BoolColumn:
		if s, ok := src.(*BoolColumn); ok {
			d.vals, d.nulls = appendTyped(d.vals, d.nulls, s.vals, s.nulls)
			return nil
		}
	}
	for i := 0; i < src.Len(); i++ {
		if err := dst.Append(src.Value(i)); err != nil {
			return err
		}
	}
	return nil
}

// appendTyped appends src (with null bitmap srcNulls) to vals (with
// null bitmap nulls). A NULL row of src lands as the zero value, as
// AppendNull stores it. A new bitmap is sized to cap(vals), so a
// column allocated at its final length allocates its bitmap once.
func appendTyped[T any](vals []T, nulls *Bitmap, src []T, srcNulls *Bitmap) ([]T, *Bitmap) {
	n := len(vals)
	vals = append(vals, src...)
	if nulls != nil {
		nulls.Resize(len(vals))
	}
	var zero T
	for w, word := range srcNulls.Words() {
		for ; word != 0; word &= word - 1 {
			i := w*64 + bits.TrailingZeros64(word)
			if i >= len(src) {
				return vals, nulls
			}
			if nulls == nil {
				nulls = &Bitmap{words: make([]uint64, 0, (cap(vals)+63)/64)}
				nulls.Resize(len(vals))
			}
			nulls.Set(n + i)
			vals[n+i] = zero
		}
	}
	return vals, nulls
}

// NullsOf exposes a column's null bitmap (nil when no row is NULL);
// used by the persistence layer.
func NullsOf(c Column) *Bitmap {
	switch col := c.(type) {
	case *Int64Column:
		return col.nulls
	case *Float64Column:
		return col.nulls
	case *StringColumn:
		return col.nulls
	case *BoolColumn:
		return col.nulls
	default:
		return nil
	}
}

// SetNulls installs a null bitmap on a column (persistence layer).
func SetNulls(c Column, b *Bitmap) {
	switch col := c.(type) {
	case *Int64Column:
		col.nulls = b
	case *Float64Column:
		col.nulls = b
	case *StringColumn:
		col.nulls = b
	case *BoolColumn:
		col.nulls = b
	}
}

// NewColumn allocates an empty column of type t with capacity hint n.
func NewColumn(t Type, n int) Column {
	switch t {
	case TypeInt64:
		return &Int64Column{vals: make([]int64, 0, n)}
	case TypeFloat64:
		return &Float64Column{vals: make([]float64, 0, n)}
	case TypeString:
		return &StringColumn{vals: make([]string, 0, n)}
	case TypeBool:
		return &BoolColumn{vals: make([]bool, 0, n)}
	default:
		panic(fmt.Sprintf("storage: unknown type %v", t))
	}
}

// Int64Column is a vector of INTEGER values.
type Int64Column struct {
	vals  []int64
	nulls *Bitmap
}

// NewInt64Column wraps the given values in a column (no copy).
func NewInt64Column(vals []int64) *Int64Column { return &Int64Column{vals: vals} }

// Int64s exposes the raw backing slice for vectorized operators.
func (c *Int64Column) Int64s() []int64 { return c.vals }

// Type implements Column.
func (c *Int64Column) Type() Type { return TypeInt64 }

// Len implements Column.
func (c *Int64Column) Len() int { return len(c.vals) }

// IsNull implements Column.
func (c *Int64Column) IsNull(i int) bool { return c.nulls.Get(i) }

// Value implements Column.
func (c *Int64Column) Value(i int) Value {
	if c.nulls.Get(i) {
		return Null(TypeInt64)
	}
	return Int64(c.vals[i])
}

// Append implements Column.
func (c *Int64Column) Append(v Value) error {
	cv, err := Coerce(v, TypeInt64)
	if err != nil {
		return err
	}
	if cv.Null {
		c.AppendNull()
		return nil
	}
	c.vals = append(c.vals, cv.I)
	if c.nulls != nil {
		c.nulls.Append(false)
	}
	return nil
}

// AppendInt64 appends a raw non-null value without coercion.
func (c *Int64Column) AppendInt64(v int64) {
	c.vals = append(c.vals, v)
	if c.nulls != nil {
		c.nulls.Append(false)
	}
}

// AppendNull implements Column.
func (c *Int64Column) AppendNull() {
	if c.nulls == nil {
		c.nulls = NewBitmap(len(c.vals))
	}
	c.vals = append(c.vals, 0)
	c.nulls.Resize(len(c.vals))
	c.nulls.Set(len(c.vals) - 1)
}

// Slice implements Column.
func (c *Int64Column) Slice(from, to int) Column {
	out := &Int64Column{vals: append([]int64(nil), c.vals[from:to]...)}
	if c.nulls != nil {
		out.nulls = c.nulls.Slice(from, to)
	}
	return out
}

// Gather implements Column.
func (c *Int64Column) Gather(idx []int) Column {
	out := &Int64Column{vals: make([]int64, len(idx))}
	for j, i := range idx {
		out.vals[j] = c.vals[i]
	}
	if c.nulls != nil && c.nulls.Any() {
		out.nulls = NewBitmap(len(idx))
		for j, i := range idx {
			if c.nulls.Get(i) {
				out.nulls.Set(j)
			}
		}
	}
	return out
}

// Float64Column is a vector of DOUBLE values.
type Float64Column struct {
	vals  []float64
	nulls *Bitmap
}

// NewFloat64Column wraps the given values in a column (no copy).
func NewFloat64Column(vals []float64) *Float64Column { return &Float64Column{vals: vals} }

// Float64s exposes the raw backing slice for vectorized operators.
func (c *Float64Column) Float64s() []float64 { return c.vals }

// Type implements Column.
func (c *Float64Column) Type() Type { return TypeFloat64 }

// Len implements Column.
func (c *Float64Column) Len() int { return len(c.vals) }

// IsNull implements Column.
func (c *Float64Column) IsNull(i int) bool { return c.nulls.Get(i) }

// Value implements Column.
func (c *Float64Column) Value(i int) Value {
	if c.nulls.Get(i) {
		return Null(TypeFloat64)
	}
	return Float64(c.vals[i])
}

// Append implements Column.
func (c *Float64Column) Append(v Value) error {
	cv, err := Coerce(v, TypeFloat64)
	if err != nil {
		return err
	}
	if cv.Null {
		c.AppendNull()
		return nil
	}
	c.vals = append(c.vals, cv.F)
	if c.nulls != nil {
		c.nulls.Append(false)
	}
	return nil
}

// AppendFloat64 appends a raw non-null value without coercion.
func (c *Float64Column) AppendFloat64(v float64) {
	c.vals = append(c.vals, v)
	if c.nulls != nil {
		c.nulls.Append(false)
	}
}

// AppendNull implements Column.
func (c *Float64Column) AppendNull() {
	if c.nulls == nil {
		c.nulls = NewBitmap(len(c.vals))
	}
	c.vals = append(c.vals, 0)
	c.nulls.Resize(len(c.vals))
	c.nulls.Set(len(c.vals) - 1)
}

// Slice implements Column.
func (c *Float64Column) Slice(from, to int) Column {
	out := &Float64Column{vals: append([]float64(nil), c.vals[from:to]...)}
	if c.nulls != nil {
		out.nulls = c.nulls.Slice(from, to)
	}
	return out
}

// Gather implements Column.
func (c *Float64Column) Gather(idx []int) Column {
	out := &Float64Column{vals: make([]float64, len(idx))}
	for j, i := range idx {
		out.vals[j] = c.vals[i]
	}
	if c.nulls != nil && c.nulls.Any() {
		out.nulls = NewBitmap(len(idx))
		for j, i := range idx {
			if c.nulls.Get(i) {
				out.nulls.Set(j)
			}
		}
	}
	return out
}

// StringColumn is a vector of VARCHAR values.
type StringColumn struct {
	vals  []string
	nulls *Bitmap
}

// NewStringColumn wraps the given values in a column (no copy).
func NewStringColumn(vals []string) *StringColumn { return &StringColumn{vals: vals} }

// Strings exposes the raw backing slice for vectorized operators.
func (c *StringColumn) Strings() []string { return c.vals }

// Type implements Column.
func (c *StringColumn) Type() Type { return TypeString }

// Len implements Column.
func (c *StringColumn) Len() int { return len(c.vals) }

// IsNull implements Column.
func (c *StringColumn) IsNull(i int) bool { return c.nulls.Get(i) }

// Value implements Column.
func (c *StringColumn) Value(i int) Value {
	if c.nulls.Get(i) {
		return Null(TypeString)
	}
	return Str(c.vals[i])
}

// Append implements Column.
func (c *StringColumn) Append(v Value) error {
	cv, err := Coerce(v, TypeString)
	if err != nil {
		return err
	}
	if cv.Null {
		c.AppendNull()
		return nil
	}
	c.vals = append(c.vals, cv.S)
	if c.nulls != nil {
		c.nulls.Append(false)
	}
	return nil
}

// AppendString appends a raw non-null value without coercion.
func (c *StringColumn) AppendString(v string) {
	c.vals = append(c.vals, v)
	if c.nulls != nil {
		c.nulls.Append(false)
	}
}

// AppendNull implements Column.
func (c *StringColumn) AppendNull() {
	if c.nulls == nil {
		c.nulls = NewBitmap(len(c.vals))
	}
	c.vals = append(c.vals, "")
	c.nulls.Resize(len(c.vals))
	c.nulls.Set(len(c.vals) - 1)
}

// Slice implements Column.
func (c *StringColumn) Slice(from, to int) Column {
	out := &StringColumn{vals: append([]string(nil), c.vals[from:to]...)}
	if c.nulls != nil {
		out.nulls = c.nulls.Slice(from, to)
	}
	return out
}

// Gather implements Column.
func (c *StringColumn) Gather(idx []int) Column {
	out := &StringColumn{vals: make([]string, len(idx))}
	for j, i := range idx {
		out.vals[j] = c.vals[i]
	}
	if c.nulls != nil && c.nulls.Any() {
		out.nulls = NewBitmap(len(idx))
		for j, i := range idx {
			if c.nulls.Get(i) {
				out.nulls.Set(j)
			}
		}
	}
	return out
}

// BoolColumn is a vector of BOOLEAN values.
type BoolColumn struct {
	vals  []bool
	nulls *Bitmap
}

// NewBoolColumn wraps the given values in a column (no copy).
func NewBoolColumn(vals []bool) *BoolColumn { return &BoolColumn{vals: vals} }

// Bools exposes the raw backing slice for vectorized operators.
func (c *BoolColumn) Bools() []bool { return c.vals }

// Type implements Column.
func (c *BoolColumn) Type() Type { return TypeBool }

// Len implements Column.
func (c *BoolColumn) Len() int { return len(c.vals) }

// IsNull implements Column.
func (c *BoolColumn) IsNull(i int) bool { return c.nulls.Get(i) }

// Value implements Column.
func (c *BoolColumn) Value(i int) Value {
	if c.nulls.Get(i) {
		return Null(TypeBool)
	}
	return Bool(c.vals[i])
}

// Append implements Column.
func (c *BoolColumn) Append(v Value) error {
	cv, err := Coerce(v, TypeBool)
	if err != nil {
		return err
	}
	if cv.Null {
		c.AppendNull()
		return nil
	}
	c.vals = append(c.vals, cv.I != 0)
	if c.nulls != nil {
		c.nulls.Append(false)
	}
	return nil
}

// AppendBool appends a raw non-null value without coercion.
func (c *BoolColumn) AppendBool(v bool) {
	c.vals = append(c.vals, v)
	if c.nulls != nil {
		c.nulls.Append(false)
	}
}

// AppendNull implements Column.
func (c *BoolColumn) AppendNull() {
	if c.nulls == nil {
		c.nulls = NewBitmap(len(c.vals))
	}
	c.vals = append(c.vals, false)
	c.nulls.Resize(len(c.vals))
	c.nulls.Set(len(c.vals) - 1)
}

// Slice implements Column.
func (c *BoolColumn) Slice(from, to int) Column {
	out := &BoolColumn{vals: append([]bool(nil), c.vals[from:to]...)}
	if c.nulls != nil {
		out.nulls = c.nulls.Slice(from, to)
	}
	return out
}

// Gather implements Column.
func (c *BoolColumn) Gather(idx []int) Column {
	out := &BoolColumn{vals: make([]bool, len(idx))}
	for j, i := range idx {
		out.vals[j] = c.vals[i]
	}
	if c.nulls != nil && c.nulls.Any() {
		out.nulls = NewBitmap(len(idx))
		for j, i := range idx {
			if c.nulls.Get(i) {
				out.nulls.Set(j)
			}
		}
	}
	return out
}
