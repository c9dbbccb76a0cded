package object

import (
	"errors"
	"testing"

	"cadcam/internal/ddl"
	"cadcam/internal/domain"
	"cadcam/internal/paperschema"
	"cadcam/internal/schema"
)

func gateStore(t *testing.T) *Store {
	t.Helper()
	s, err := NewStore(paperschema.MustGates())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func steelStore(t *testing.T) *Store {
	t.Helper()
	s, err := NewStore(paperschema.MustSteel())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mustSur adapts the (Surrogate, error) return shape for call chaining:
// mustSur(t)(s.NewObject(...)).
func mustSur(t *testing.T) func(domain.Surrogate, error) domain.Surrogate {
	return func(sur domain.Surrogate, err error) domain.Surrogate {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return sur
	}
}

func set(t *testing.T, s *Store, sur domain.Surrogate, name string, v domain.Value) {
	t.Helper()
	if err := s.SetAttr(sur, name, v); err != nil {
		t.Fatalf("SetAttr(%s, %s): %v", sur, name, err)
	}
}

func get(t *testing.T, s *Store, sur domain.Surrogate, name string) domain.Value {
	t.Helper()
	v, err := s.GetAttr(sur, name)
	if err != nil {
		t.Fatalf("GetAttr(%s, %s): %v", sur, name, err)
	}
	return v
}

// addPin creates a PinType subobject with the given direction and id.
func addPin(t *testing.T, s *Store, owner domain.Surrogate, inOut string, id int64) domain.Surrogate {
	t.Helper()
	pin := mustSur(t)(s.NewSubobject(owner, "Pins"))
	set(t, s, pin, "InOut", domain.Sym(inOut))
	set(t, s, pin, "PinId", domain.Int(id))
	return pin
}

func TestNewStoreRequiresValidatedCatalog(t *testing.T) {
	if _, err := NewStore(schema.NewCatalog()); err == nil {
		t.Fatal("unvalidated catalog accepted")
	}
}

func TestObjectLifecycle(t *testing.T) {
	s := gateStore(t)
	if err := s.DefineClass("Interfaces", paperschema.TypeGateInterface); err != nil {
		t.Fatal(err)
	}
	sur := mustSur(t)(s.NewObject(paperschema.TypeGateInterface, "Interfaces"))
	if !s.Exists(sur) {
		t.Fatal("object should exist")
	}
	if tn, _ := s.TypeOf(sur); tn != paperschema.TypeGateInterface {
		t.Errorf("TypeOf = %q", tn)
	}
	members, err := s.Class("Interfaces")
	if err != nil || len(members) != 1 || members[0] != sur {
		t.Errorf("class members = %v, %v", members, err)
	}
	// Unset attribute reads null.
	if v := get(t, s, sur, "Length"); !domain.IsNull(v) {
		t.Errorf("unset attr = %s", v)
	}
	set(t, s, sur, "Length", domain.Int(4))
	if v := get(t, s, sur, "Length"); !v.Equal(domain.Int(4)) {
		t.Errorf("Length = %s", v)
	}
	// Setting null clears.
	set(t, s, sur, "Length", domain.NullValue)
	if v := get(t, s, sur, "Length"); !domain.IsNull(v) {
		t.Errorf("cleared attr = %s", v)
	}
	// Surrogate pseudo-attribute.
	if v := get(t, s, sur, "Surrogate"); !v.Equal(domain.Ref(sur)) {
		t.Errorf("Surrogate = %s", v)
	}
	if err := s.Delete(sur); err != nil {
		t.Fatal(err)
	}
	if s.Exists(sur) {
		t.Error("object should be gone")
	}
	members, _ = s.Class("Interfaces")
	if len(members) != 0 {
		t.Error("class should forget deleted member")
	}
}

func TestTypeAndClassErrors(t *testing.T) {
	s := gateStore(t)
	if _, err := s.NewObject("Ghost", ""); !errors.Is(err, ErrNoSuchType) {
		t.Errorf("unknown type: %v", err)
	}
	if _, err := s.NewObject(paperschema.TypePin, "Ghost"); !errors.Is(err, ErrNoSuchClass) {
		t.Errorf("unknown class: %v", err)
	}
	if err := s.DefineClass("", ""); err == nil {
		t.Error("empty class name accepted")
	}
	if err := s.DefineClass("C", "Ghost"); !errors.Is(err, ErrNoSuchType) {
		t.Errorf("unknown elem type: %v", err)
	}
	if err := s.DefineClass("C", paperschema.TypePin); err != nil {
		t.Fatal(err)
	}
	if err := s.DefineClass("C", ""); err == nil {
		t.Error("duplicate class accepted")
	}
	if _, err := s.NewObject(paperschema.TypeGateInterface, "C"); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("class elem type mismatch: %v", err)
	}
	if _, err := s.Class("Ghost"); !errors.Is(err, ErrNoSuchClass) {
		t.Errorf("class lookup: %v", err)
	}
	if _, err := s.GetAttr(999, "X"); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("get on missing object: %v", err)
	}
	if err := s.SetAttr(999, "X", domain.Int(1)); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("set on missing object: %v", err)
	}
	if err := s.Delete(999); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("delete missing: %v", err)
	}
	if _, err := s.NewSubobject(999, "Pins"); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("subobject of missing: %v", err)
	}
}

func TestAttributeValidation(t *testing.T) {
	s := gateStore(t)
	g := mustSur(t)(s.NewObject(paperschema.TypeElementaryGate, ""))
	if err := s.SetAttr(g, "Length", domain.Str("four")); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("wrong domain: %v", err)
	}
	if err := s.SetAttr(g, "Nonexistent", domain.Int(1)); !errors.Is(err, ErrNoSuchAttribute) {
		t.Errorf("unknown attr: %v", err)
	}
	if err := s.SetAttr(g, "Function", domain.Sym("XNOR")); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("undeclared enum symbol: %v", err)
	}
	set(t, s, g, "Function", domain.Sym("NAND"))
	set(t, s, g, "GatePosition", domain.NewRec("X", domain.Int(1), "Y", domain.Int(2)))
}

func TestSimpleGateConstraints(t *testing.T) {
	// E1 prelude: the paper's SimpleGate with record-set pins.
	s := gateStore(t)
	g := mustSur(t)(s.NewObject(paperschema.TypeSimpleGate, ""))
	set(t, s, g, "Function", domain.Sym("AND"))
	set(t, s, g, "Pins", domain.NewSet(
		domain.NewRec("PinId", domain.Int(1), "InOut", domain.Sym("IN")),
		domain.NewRec("PinId", domain.Int(2), "InOut", domain.Sym("IN")),
		domain.NewRec("PinId", domain.Int(3), "InOut", domain.Sym("OUT")),
	))
	if v, err := s.CheckConstraints(g); err != nil || len(v) != 0 {
		t.Fatalf("valid gate: violations=%v err=%v", v, err)
	}
	// Remove an IN pin: the 2-IN constraint fails.
	set(t, s, g, "Pins", domain.NewSet(
		domain.NewRec("PinId", domain.Int(1), "InOut", domain.Sym("IN")),
		domain.NewRec("PinId", domain.Int(3), "InOut", domain.Sym("OUT")),
	))
	v, _ := s.CheckConstraints(g)
	if len(v) != 1 {
		t.Fatalf("violations = %v", v)
	}
	if v[0].Object != g || v[0].Reason != "" {
		t.Errorf("violation = %+v", v[0])
	}
}

// TestConstraintReasonText pins the Reason of a constraint that cannot
// be evaluated on a stored object: the evaluator's error text, verbatim.
func TestConstraintReasonText(t *testing.T) {
	cat, err := ddl.Parse(`
obj-type Box =
   attributes:
      Length: integer;
   constraints:
      count (Missing) = 0;
end Box;`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStore(cat)
	if err != nil {
		t.Fatal(err)
	}
	box := mustSur(t)(s.NewObject("Box", ""))
	v, err := s.CheckConstraints(box)
	if err != nil || len(v) != 1 {
		t.Fatalf("violations = %v, err = %v", v, err)
	}
	const want = `expr: cannot evaluate Missing: unknown collection "Missing"`
	if v[0].Object != box || v[0].Type != "Box" || v[0].Src != "count (Missing) = 0" || v[0].Reason != want {
		t.Errorf("violation = %+v, want Reason %q", v[0], want)
	}
}

func TestSubobjectsAndConstraints(t *testing.T) {
	s := gateStore(t)
	g := mustSur(t)(s.NewObject(paperschema.TypeElementaryGate, ""))
	addPin(t, s, g, "IN", 1)
	addPin(t, s, g, "IN", 2)
	out := addPin(t, s, g, "OUT", 3)
	if v, err := s.CheckConstraints(g); err != nil || len(v) != 0 {
		t.Fatalf("violations=%v err=%v", v, err)
	}
	members, err := s.Members(g, "Pins")
	if err != nil || len(members) != 3 {
		t.Fatalf("members = %v, %v", members, err)
	}
	po, _ := s.Get(out)
	if po.Parent() != g || po.ParentSubclass() != "Pins" {
		t.Errorf("parent linkage: %v %q", po.Parent(), po.ParentSubclass())
	}
	// Unknown subclass.
	if _, err := s.NewSubobject(g, "Ghost"); !errors.Is(err, ErrNoSuchClass) {
		t.Errorf("unknown subclass: %v", err)
	}
	if _, err := s.Members(g, "Ghost"); !errors.Is(err, ErrNoSuchClass) {
		t.Errorf("members of unknown subclass: %v", err)
	}
	// Deleting a pin breaks the constraint and cascades out of the class.
	if err := s.Delete(out); err != nil {
		t.Fatal(err)
	}
	members, _ = s.Members(g, "Pins")
	if len(members) != 2 {
		t.Errorf("members after delete = %v", members)
	}
	v, _ := s.CheckConstraints(g)
	if len(v) != 1 {
		t.Errorf("OUT-pin constraint should now fail: %v", v)
	}
}

func TestCascadeDelete(t *testing.T) {
	s := gateStore(t)
	g := mustSur(t)(s.NewObject(paperschema.TypeElementaryGate, ""))
	p1 := addPin(t, s, g, "IN", 1)
	p2 := addPin(t, s, g, "IN", 2)
	p3 := addPin(t, s, g, "OUT", 3)
	before := s.Len()
	if before != 4 {
		t.Fatalf("Len = %d", before)
	}
	if err := s.Delete(g); err != nil {
		t.Fatal(err)
	}
	for _, sur := range []domain.Surrogate{g, p1, p2, p3} {
		if s.Exists(sur) {
			t.Errorf("%s should be cascade-deleted", sur)
		}
	}
	if s.Len() != 0 {
		t.Errorf("Len after cascade = %d", s.Len())
	}
}
