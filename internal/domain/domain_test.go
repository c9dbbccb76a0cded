package domain

import (
	"strings"
	"testing"
)

func TestBuiltinDomains(t *testing.T) {
	cases := []struct {
		dom  *Domain
		kind Kind
		str  string
	}{
		{Integer(), KindInteger, "integer"},
		{Real(), KindReal, "real"},
		{String_(), KindString, "string"},
		{Boolean(), KindBoolean, "boolean"},
	}
	for _, c := range cases {
		if c.dom.Kind() != c.kind {
			t.Errorf("kind of %s = %v, want %v", c.str, c.dom.Kind(), c.kind)
		}
		if c.dom.String() != c.str {
			t.Errorf("String() = %q, want %q", c.dom.String(), c.str)
		}
	}
}

func TestEnumDomain(t *testing.T) {
	io := Enum("I/O", "IN", "OUT")
	if io.Name() != "I/O" {
		t.Errorf("name = %q", io.Name())
	}
	if got := io.SymbolIndex("OUT"); got != 1 {
		t.Errorf("SymbolIndex(OUT) = %d, want 1", got)
	}
	if got := io.SymbolIndex("INOUT"); got != -1 {
		t.Errorf("SymbolIndex(INOUT) = %d, want -1", got)
	}
	if len(io.symbols) != 2 {
		t.Errorf("symbols = %v", io.symbols)
	}
}

func TestEnumDomainPanics(t *testing.T) {
	mustPanic(t, "empty enum", func() { Enum("E") })
	mustPanic(t, "duplicate symbol", func() { Enum("E", "A", "A") })
}

func TestRecordDomain(t *testing.T) {
	point := Record("Point", Field{"X", Integer()}, Field{"Y", Integer()})
	if point.FieldDomain("X") != Integer() {
		t.Error("field X should be integer")
	}
	if point.FieldDomain("Z") != nil {
		t.Error("field Z should be absent")
	}
	if len(point.Fields()) != 2 {
		t.Errorf("fields = %v", point.Fields())
	}
}

func TestRecordDomainPanics(t *testing.T) {
	mustPanic(t, "nil field domain", func() { Record("R", Field{"X", nil}) })
	mustPanic(t, "duplicate field", func() {
		Record("R", Field{"X", Integer()}, Field{"X", Real()})
	})
}

func TestConstructorDomains(t *testing.T) {
	l := ListOf(Integer())
	if l.Kind() != KindList || l.Elem() != Integer() {
		t.Errorf("list-of integer malformed: %s", l)
	}
	s := SetOf(Record("Pin", Field{"PinId", Integer()}))
	if s.Kind() != KindSet || s.Elem().Kind() != KindRecord {
		t.Errorf("set-of record malformed: %s", s)
	}
	m := MatrixOf(Boolean())
	if m.String() != "matrix-of boolean" {
		t.Errorf("matrix String = %q", m.String())
	}
}

func TestObjectRefDomain(t *testing.T) {
	anyRef := ObjectRef("")
	if anyRef.ObjectType() != "" || anyRef.String() != "object" {
		t.Errorf("any-object domain malformed: %s", anyRef)
	}
	pin := ObjectRef("PinType")
	if pin.ObjectType() != "PinType" {
		t.Errorf("ObjectType = %q", pin.ObjectType())
	}
	if pin.String() != "object-of-type PinType" {
		t.Errorf("String = %q", pin.String())
	}
}

func TestDomainSame(t *testing.T) {
	p1 := Record("Point", Field{"X", Integer()}, Field{"Y", Integer()})
	p2 := Record("Punkt", Field{"X", Integer()}, Field{"Y", Integer()})
	if !Same(p1, p2) {
		t.Error("structurally equal records with different names should be Same")
	}
	p3 := Record("Point", Field{"X", Integer()}, Field{"Y", Real()})
	if Same(p1, p3) {
		t.Error("records with different field domains should not be Same")
	}
	if !Same(ListOf(Integer()), ListOf(Integer())) {
		t.Error("equal list domains should be Same")
	}
	if Same(ListOf(Integer()), SetOf(Integer())) {
		t.Error("list and set should differ")
	}
	if Same(nil, Integer()) || !Same(nil, nil) {
		t.Error("nil handling wrong")
	}
	if Same(ObjectRef("A"), ObjectRef("B")) {
		t.Error("object refs of different types should differ")
	}
	if !Same(Enum("a", "X", "Y"), Enum("b", "X", "Y")) {
		t.Error("equal enums should be Same")
	}
	if Same(Enum("a", "X", "Y"), Enum("a", "Y", "X")) {
		t.Error("enum symbol order is significant")
	}
}

func TestNamedDomain(t *testing.T) {
	d := ListOf(Integer()).Named("Trace")
	if d.Name() != "Trace" || d.String() != "Trace" {
		t.Errorf("named domain: name=%q str=%q", d.Name(), d.String())
	}
	if !Same(d, ListOf(Integer())) {
		t.Error("naming must not change structure")
	}
}

func TestDomainStringRendering(t *testing.T) {
	point := Record("", Field{"X", Integer()}, Field{"Y", Integer()})
	want := "record (X: integer; Y: integer)"
	if point.String() != want {
		t.Errorf("record String = %q, want %q", point.String(), want)
	}
	e := Enum("", "IN", "OUT")
	if e.String() != "(IN, OUT)" {
		t.Errorf("enum String = %q", e.String())
	}
	var nilDom *Domain
	if nilDom.String() != "<nil>" {
		t.Errorf("nil String = %q", nilDom.String())
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func TestSurrogateString(t *testing.T) {
	if got := Surrogate(42).String(); got != "@42" {
		t.Errorf("surrogate string = %q", got)
	}
}

func TestKindString(t *testing.T) {
	for k := KindInvalid; k <= KindNull; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has empty string", k)
		}
	}
	if !strings.Contains(Kind(200).String(), "invalid") {
		t.Error("unknown kind should render as invalid")
	}
}
