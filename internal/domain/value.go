package domain

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Surrogate is the system-wide object identifier the model gives every
// object automatically ("any object has an attribute called surrogate
// which allows a system-wide identification", §3). Zero is never a valid
// surrogate.
type Surrogate uint64

// String renders the surrogate in the form used throughout logs and tests.
func (s Surrogate) String() string { return "@" + strconv.FormatUint(uint64(s), 10) }

// Value is a concrete attribute value. Values are immutable by convention:
// all mutating helpers return fresh values, so a Value may be shared
// between the store, transactions and inheritors without copying.
type Value interface {
	// Kind reports the value's domain constructor.
	Kind() Kind
	// String renders the value for diagnostics and the shell.
	String() string
	// Equal reports deep equality with another value.
	Equal(Value) bool
	// Copy returns a deep copy. Scalars return themselves.
	Copy() Value
}

// ---- scalar values ----

// Int is an integer value.
type Int int64

func (v Int) Kind() Kind     { return KindInteger }
func (v Int) String() string { return strconv.FormatInt(int64(v), 10) }
func (v Int) Copy() Value    { return v }
func (v Int) Equal(o Value) bool {
	switch w := o.(type) {
	case Int:
		return v == w
	case Rl:
		return float64(v) == float64(w)
	}
	return false
}

// Rl is a real (floating point) value.
type Rl float64

func (v Rl) Kind() Kind     { return KindReal }
func (v Rl) String() string { return strconv.FormatFloat(float64(v), 'g', -1, 64) }
func (v Rl) Copy() Value    { return v }
func (v Rl) Equal(o Value) bool {
	switch w := o.(type) {
	case Rl:
		return v == w
	case Int:
		return float64(v) == float64(w)
	}
	return false
}

// Str is a string value.
type Str string

func (v Str) Kind() Kind     { return KindString }
func (v Str) String() string { return strconv.Quote(string(v)) }
func (v Str) Copy() Value    { return v }
func (v Str) Equal(o Value) bool {
	w, ok := o.(Str)
	return ok && v == w
}

// Bool is a boolean value.
type Bool bool

func (v Bool) Kind() Kind     { return KindBoolean }
func (v Bool) String() string { return strconv.FormatBool(bool(v)) }
func (v Bool) Copy() Value    { return v }
func (v Bool) Equal(o Value) bool {
	w, ok := o.(Bool)
	return ok && v == w
}

// Sym is an enumeration symbol such as IN, OUT, AND, NOR.
type Sym string

func (v Sym) Kind() Kind     { return KindEnum }
func (v Sym) String() string { return string(v) }
func (v Sym) Copy() Value    { return v }
func (v Sym) Equal(o Value) bool {
	w, ok := o.(Sym)
	return ok && v == w
}

// Ref is a reference to an object by surrogate.
type Ref Surrogate

func (v Ref) Kind() Kind     { return KindSurrogate }
func (v Ref) String() string { return Surrogate(v).String() }
func (v Ref) Copy() Value    { return v }
func (v Ref) Equal(o Value) bool {
	w, ok := o.(Ref)
	return ok && v == w
}

// Null is the distinguished absent value. Unset attributes and inherited
// attributes of an unbound inheritor read as Null.
type nullValue struct{}

// NullValue is the single null value.
var NullValue Value = nullValue{}

func (nullValue) Kind() Kind     { return KindNull }
func (nullValue) String() string { return "null" }
func (nullValue) Copy() Value    { return NullValue }
func (nullValue) Equal(o Value) bool {
	_, ok := o.(nullValue)
	return ok
}

// IsNull reports whether v is nil or the null value.
func IsNull(v Value) bool {
	if v == nil {
		return true
	}
	_, ok := v.(nullValue)
	return ok
}

// ---- structured values ----

// Rec is a record value with ordered fields.
type Rec struct {
	names []string
	vals  []Value
}

// NewRec builds a record value; pairs must alternate field name, value.
func NewRec(pairs ...any) *Rec {
	if len(pairs)%2 != 0 {
		panic("domain: NewRec needs name/value pairs")
	}
	r := &Rec{}
	for i := 0; i < len(pairs); i += 2 {
		name, ok := pairs[i].(string)
		if !ok {
			panic("domain: NewRec field name must be a string")
		}
		val, ok := pairs[i+1].(Value)
		if !ok {
			panic(fmt.Sprintf("domain: NewRec field %q value must be a Value", name))
		}
		r.names = append(r.names, name)
		r.vals = append(r.vals, val)
	}
	return r
}

func (r *Rec) Kind() Kind { return KindRecord }

// Len reports the number of fields.
func (r *Rec) Len() int { return len(r.names) }

// FieldName returns the i-th field name.
func (r *Rec) FieldName(i int) string { return r.names[i] }

// FieldValue returns the i-th field value.
func (r *Rec) FieldValue(i int) Value { return r.vals[i] }

// Get returns the named field's value, or Null if absent.
func (r *Rec) Get(name string) Value {
	for i, n := range r.names {
		if n == name {
			return r.vals[i]
		}
	}
	return NullValue
}

func (r *Rec) String() string {
	var b strings.Builder
	b.WriteString("(")
	for i := range r.names {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s: %s", r.names[i], r.vals[i])
	}
	b.WriteString(")")
	return b.String()
}

func (r *Rec) Copy() Value {
	c := &Rec{names: append([]string(nil), r.names...), vals: make([]Value, len(r.vals))}
	for i, v := range r.vals {
		c.vals[i] = v.Copy()
	}
	return c
}

func (r *Rec) Equal(o Value) bool {
	w, ok := o.(*Rec)
	if !ok || len(r.names) != len(w.names) {
		return false
	}
	for i := range r.names {
		if r.names[i] != w.names[i] || !r.vals[i].Equal(w.vals[i]) {
			return false
		}
	}
	return true
}

// List is an ordered sequence of values.
type List struct {
	elems []Value
}

// NewList builds a list value.
func NewList(elems ...Value) *List { return &List{elems: append([]Value(nil), elems...)} }

func (l *List) Kind() Kind     { return KindList }
func (l *List) Len() int       { return len(l.elems) }
func (l *List) At(i int) Value { return l.elems[i] }

// Elems returns the backing slice; callers must not mutate it.
func (l *List) Elems() []Value { return l.elems }

func (l *List) String() string {
	var b strings.Builder
	b.WriteString("[")
	for i, v := range l.elems {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteString("]")
	return b.String()
}

func (l *List) Copy() Value {
	c := &List{elems: make([]Value, len(l.elems))}
	for i, v := range l.elems {
		c.elems[i] = v.Copy()
	}
	return c
}

func (l *List) Equal(o Value) bool {
	w, ok := o.(*List)
	if !ok || len(l.elems) != len(w.elems) {
		return false
	}
	for i := range l.elems {
		if !l.elems[i].Equal(w.elems[i]) {
			return false
		}
	}
	return true
}

// Set is an unordered collection of distinct values. Membership is decided
// by Equal; sets in CAD schemas are small (pins, bores), so the linear
// representation is deliberate.
type Set struct {
	elems []Value
}

// NewSet builds a set value, collapsing duplicates.
func NewSet(elems ...Value) *Set {
	s := &Set{}
	for _, v := range elems {
		s.add(v)
	}
	return s
}

func (s *Set) add(v Value) {
	for _, e := range s.elems {
		if e.Equal(v) {
			return
		}
	}
	s.elems = append(s.elems, v)
}

func (s *Set) Kind() Kind { return KindSet }
func (s *Set) Len() int   { return len(s.elems) }

// Elems returns the members in insertion order; callers must not mutate it.
func (s *Set) Elems() []Value { return s.elems }

// Contains reports membership by deep equality.
func (s *Set) Contains(v Value) bool {
	for _, e := range s.elems {
		if e.Equal(v) {
			return true
		}
	}
	return false
}

func (s *Set) String() string {
	parts := make([]string, len(s.elems))
	for i, v := range s.elems {
		parts[i] = v.String()
	}
	// Canonical rendering, so log output is stable across insertion orders.
	sort.Strings(parts)
	return "{" + strings.Join(parts, ", ") + "}"
}

func (s *Set) Copy() Value {
	c := &Set{elems: make([]Value, len(s.elems))}
	for i, v := range s.elems {
		c.elems[i] = v.Copy()
	}
	return c
}

func (s *Set) Equal(o Value) bool {
	w, ok := o.(*Set)
	if !ok || len(s.elems) != len(w.elems) {
		return false
	}
	for _, v := range s.elems {
		if !w.Contains(v) {
			return false
		}
	}
	return true
}

// Matrix is a dense rows×cols matrix, e.g. "Function: matrix-of boolean"
// describing a gate's truth table.
type Matrix struct {
	rows, cols int
	cells      []Value
}

// NewMatrix builds a matrix from row-major cells; len(cells) must equal
// rows*cols.
func NewMatrix(rows, cols int, cells ...Value) *Matrix {
	if rows < 0 || cols < 0 || len(cells) != rows*cols {
		panic(fmt.Sprintf("domain: matrix %dx%d needs %d cells, got %d", rows, cols, rows*cols, len(cells)))
	}
	return &Matrix{rows: rows, cols: cols, cells: append([]Value(nil), cells...)}
}

func (m *Matrix) Kind() Kind { return KindMatrix }

// Rows reports the row count.
func (m *Matrix) Rows() int { return m.rows }

// Cols reports the column count.
func (m *Matrix) Cols() int { return m.cols }

// At returns the cell at (row, col).
func (m *Matrix) At(r, c int) Value { return m.cells[r*m.cols+c] }

func (m *Matrix) String() string {
	var b strings.Builder
	b.WriteString("[")
	for r := 0; r < m.rows; r++ {
		if r > 0 {
			b.WriteString("; ")
		}
		for c := 0; c < m.cols; c++ {
			if c > 0 {
				b.WriteString(" ")
			}
			b.WriteString(m.At(r, c).String())
		}
	}
	b.WriteString("]")
	return b.String()
}

func (m *Matrix) Copy() Value {
	c := &Matrix{rows: m.rows, cols: m.cols, cells: make([]Value, len(m.cells))}
	for i, v := range m.cells {
		c.cells[i] = v.Copy()
	}
	return c
}

func (m *Matrix) Equal(o Value) bool {
	w, ok := o.(*Matrix)
	if !ok || m.rows != w.rows || m.cols != w.cols {
		return false
	}
	for i := range m.cells {
		if !m.cells[i].Equal(w.cells[i]) {
			return false
		}
	}
	return true
}
