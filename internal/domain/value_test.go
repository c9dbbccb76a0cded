package domain

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestScalarValues(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		str  string
	}{
		{Int(42), KindInteger, "42"},
		{Int(-7), KindInteger, "-7"},
		{Rl(2.5), KindReal, "2.5"},
		{Str("hagen"), KindString, `"hagen"`},
		{Bool(true), KindBoolean, "true"},
		{Sym("NAND"), KindEnum, "NAND"},
		{Ref(9), KindSurrogate, "@9"},
		{NullValue, KindNull, "null"},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%s: kind = %v, want %v", c.str, c.v.Kind(), c.kind)
		}
		if c.v.String() != c.str {
			t.Errorf("String = %q, want %q", c.v.String(), c.str)
		}
		if !c.v.Equal(c.v.Copy()) {
			t.Errorf("%s: value must equal its copy", c.str)
		}
	}
}

func TestNumericCrossEquality(t *testing.T) {
	if !Int(3).Equal(Rl(3)) || !Rl(3).Equal(Int(3)) {
		t.Error("3 (int) and 3.0 (real) should be equal")
	}
	if Int(3).Equal(Rl(3.5)) {
		t.Error("3 != 3.5")
	}
	if Int(1).Equal(Str("1")) {
		t.Error("int and string are never equal")
	}
	if Sym("A").Equal(Str("A")) {
		t.Error("symbol and string are never equal")
	}
}

func TestIsNull(t *testing.T) {
	if !IsNull(nil) || !IsNull(NullValue) {
		t.Error("nil and NullValue are null")
	}
	if IsNull(Int(0)) || IsNull(Str("")) {
		t.Error("zero values are not null")
	}
}

func TestRecValue(t *testing.T) {
	p := NewRec("X", Int(1), "Y", Int(2))
	if p.Len() != 2 || !p.Get("X").Equal(Int(1)) || !p.Get("Y").Equal(Int(2)) {
		t.Fatalf("record malformed: %s", p)
	}
	if !IsNull(p.Get("Z")) {
		t.Error("absent field should read null")
	}
	if p.String() != "(X: 1, Y: 2)" {
		t.Errorf("record String = %q", p.String())
	}
	if p.FieldName(0) != "X" || !p.FieldValue(1).Equal(Int(2)) {
		t.Error("positional accessors wrong")
	}
}

func TestRecPanics(t *testing.T) {
	mustPanic(t, "odd pairs", func() { NewRec("X") })
	mustPanic(t, "non-string name", func() { NewRec(1, Int(1)) })
	mustPanic(t, "non-value", func() { NewRec("X", 17) })
}

func TestListValue(t *testing.T) {
	l := NewList(Int(1), Int(2))
	l2 := NewList(Int(1), Int(2), Int(3))
	if l.Len() != 2 || l2.Len() != 3 {
		t.Fatalf("lengths: %s %s", l, l2)
	}
	if !l2.At(2).Equal(Int(3)) {
		t.Error("last element missing")
	}
	if l.Equal(l2) {
		t.Error("lists of different length are unequal")
	}
	if !l.Equal(NewList(Int(1), Int(2))) {
		t.Error("structurally equal lists should be equal")
	}
	if l.Equal(NewList(Int(2), Int(1))) {
		t.Error("list order is significant")
	}
	if l.String() != "[1, 2]" {
		t.Errorf("list String = %q", l.String())
	}
}

func TestSetValue(t *testing.T) {
	s := NewSet(Int(1), Int(2), Int(1))
	if s.Len() != 2 {
		t.Fatalf("duplicates must collapse: %s", s)
	}
	if !s.Contains(Int(2)) || s.Contains(Int(3)) {
		t.Error("membership wrong")
	}
	if !NewSet(Int(1), Int(2)).Equal(NewSet(Int(2), Int(1))) {
		t.Error("set equality must ignore order")
	}
	if NewSet(Int(1)).Equal(NewSet(Int(2))) {
		t.Error("different sets must be unequal")
	}
	if got := NewSet(Int(2), Int(1)).String(); got != "{1, 2}" {
		t.Errorf("set String should be canonical, got %q", got)
	}
}

func TestMatrixValue(t *testing.T) {
	m := NewMatrix(2, 2, Bool(false), Bool(true), Bool(true), Bool(false))
	if m.Rows() != 2 || m.Cols() != 2 {
		t.Fatal("shape wrong")
	}
	if !m.At(0, 1).Equal(Bool(true)) || !m.At(1, 0).Equal(Bool(true)) {
		t.Error("cell addressing wrong")
	}
	if !m.Equal(m.Copy()) {
		t.Error("matrix must equal its copy")
	}
	if m.Equal(NewMatrix(1, 4, Bool(false), Bool(true), Bool(true), Bool(false))) {
		t.Error("matrices of different shape must be unequal")
	}
	if m.String() != "[false true; true false]" {
		t.Errorf("matrix String = %q", m.String())
	}
	mustPanic(t, "bad cell count", func() { NewMatrix(2, 2, Bool(true)) })
}

func TestDeepCopyIsolation(t *testing.T) {
	inner := NewRec("A", Int(1))
	l := NewList(inner)
	c := l.Copy().(*List)
	// Mutating a copy's record via With produces new values, so the only
	// way to observe sharing is pointer identity.
	if c.At(0) == l.At(0) {
		t.Error("Copy must deep-copy structured elements")
	}
	if !c.Equal(l) {
		t.Error("copy must be equal")
	}
}

// genValue builds a random value of bounded depth for property tests.
func genValue(r *rand.Rand, depth int) Value {
	if depth <= 0 {
		switch r.Intn(5) {
		case 0:
			return Int(r.Int63n(1000) - 500)
		case 1:
			return Rl(r.Float64() * 100)
		case 2:
			return Str(string(rune('a' + r.Intn(26))))
		case 3:
			return Bool(r.Intn(2) == 0)
		default:
			return Sym([]string{"IN", "OUT", "AND", "OR"}[r.Intn(4)])
		}
	}
	switch r.Intn(8) {
	case 0:
		n := r.Intn(4)
		elems := make([]Value, n)
		for i := range elems {
			elems[i] = genValue(r, depth-1)
		}
		return NewList(elems...)
	case 1:
		n := r.Intn(4)
		elems := make([]Value, n)
		for i := range elems {
			elems[i] = genValue(r, depth-1)
		}
		return NewSet(elems...)
	case 2:
		return NewRec("X", genValue(r, depth-1), "Y", genValue(r, depth-1))
	case 3:
		return NewMatrix(1, 2, genValue(r, depth-1), genValue(r, depth-1))
	default:
		return genValue(r, 0)
	}
}

type anyValue struct{ V Value }

func (anyValue) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(anyValue{V: genValue(r, 3)})
}

// Property: Copy is always Equal to the original.
func TestQuickCopyEqual(t *testing.T) {
	f := func(a anyValue) bool { return a.V.Equal(a.V.Copy()) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Equal is symmetric.
func TestQuickEqualSymmetric(t *testing.T) {
	f := func(a, b anyValue) bool { return a.V.Equal(b.V) == b.V.Equal(a.V) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: sets never contain duplicates, regardless of construction order.
func TestQuickSetNoDuplicates(t *testing.T) {
	f := func(a, b, c anyValue) bool {
		s := NewSet(a.V, b.V, c.V, a.V, c.V)
		elems := s.Elems()
		for i := range elems {
			for j := i + 1; j < len(elems); j++ {
				if elems[i].Equal(elems[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
