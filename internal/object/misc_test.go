package object

import (
	"errors"
	"testing"

	"cadcam/internal/domain"
	"cadcam/internal/paperschema"
	"cadcam/internal/schema"
)

// refCatalog declares a type with object-reference attributes, which the
// paper's schemas don't need but the model supports ("<name>: object").
func refCatalog(t *testing.T) *schema.Catalog {
	t.Helper()
	c := schema.NewCatalog()
	if err := c.AddObjectType(&schema.ObjectType{
		Name:       "Pin",
		Attributes: []schema.Attribute{{Name: "Id", Domain: domain.Integer()}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddObjectType(&schema.ObjectType{
		Name: "Probe",
		Attributes: []schema.Attribute{
			{Name: "Target", Domain: domain.ObjectRef("Pin")},
			{Name: "Any", Domain: domain.ObjectRef("")},
			{Name: "Targets", Domain: domain.SetOf(domain.ObjectRef("Pin"))},
			{Name: "Trace", Domain: domain.ListOf(domain.ObjectRef("Pin"))},
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestReferenceAttributes(t *testing.T) {
	s, err := NewStore(refCatalog(t))
	if err != nil {
		t.Fatal(err)
	}
	pin := mustSur(t)(s.NewObject("Pin", ""))
	probe := mustSur(t)(s.NewObject("Probe", ""))

	// Valid references of all shapes.
	set(t, s, probe, "Target", domain.Ref(pin))
	set(t, s, probe, "Any", domain.Ref(probe))
	set(t, s, probe, "Targets", domain.NewSet(domain.Ref(pin)))
	set(t, s, probe, "Trace", domain.NewList(domain.Ref(pin), domain.Ref(pin)))

	// Dangling reference.
	if err := s.SetAttr(probe, "Target", domain.Ref(9999)); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("dangling ref: %v", err)
	}
	// Wrong referent type.
	if err := s.SetAttr(probe, "Target", domain.Ref(probe)); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("wrong type ref: %v", err)
	}
	// Wrong type inside a set.
	if err := s.SetAttr(probe, "Targets", domain.NewSet(domain.Ref(probe))); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("wrong type in set: %v", err)
	}
	// Dangling inside a list.
	if err := s.SetAttr(probe, "Trace", domain.NewList(domain.Ref(12345))); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("dangling in list: %v", err)
	}
}

func TestRelationshipAttrAccess(t *testing.T) {
	s := gateStore(t)
	rootI := mustSur(t)(s.NewObject(paperschema.TypeGateInterfaceI, ""))
	p1 := addPin(t, s, rootI, "IN", 1)
	p2 := addPin(t, s, rootI, "OUT", 2)
	w := mustSur(t)(s.Relate(paperschema.TypeWire, Participants{
		"Pin1": domain.Ref(p1), "Pin2": domain.Ref(p2),
	}))

	// Declared rel attribute: unset reads null, set/clear round-trips.
	if v, err := s.GetAttr(w, "Corners"); err != nil || !domain.IsNull(v) {
		t.Errorf("unset rel attr: %v, %v", v, err)
	}
	corners := domain.NewList(domain.NewRec("X", domain.Int(0), "Y", domain.Int(0)))
	set(t, s, w, "Corners", corners)
	if v, _ := s.GetAttr(w, "Corners"); !v.Equal(corners) {
		t.Error("rel attr set lost")
	}
	set(t, s, w, "Corners", domain.NullValue)
	if v, _ := s.GetAttr(w, "Corners"); !domain.IsNull(v) {
		t.Error("rel attr clear lost")
	}
	// Participants read through GetAttr too.
	if v, _ := s.GetAttr(w, "Pin1"); !v.Equal(domain.Ref(p1)) {
		t.Error("participant via GetAttr")
	}
	// Assigning a participant role or unknown name is refused.
	if err := s.SetAttr(w, "Pin1", domain.Ref(p2)); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("participant write: %v", err)
	}
	if err := s.SetAttr(w, "Ghost", domain.Int(1)); !errors.Is(err, ErrNoSuchAttribute) {
		t.Errorf("unknown rel attr write: %v", err)
	}
	if _, err := s.GetAttr(w, "Ghost"); !errors.Is(err, ErrNoSuchAttribute) {
		t.Errorf("unknown rel attr read: %v", err)
	}
	// Wrong domain for a rel attribute.
	if err := s.SetAttr(w, "Corners", domain.Int(1)); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("rel attr domain: %v", err)
	}
	// Surrogate pseudo-attribute on relationships.
	if v, _ := s.GetAttr(w, "Surrogate"); !v.Equal(domain.Ref(w)) {
		t.Error("rel Surrogate pseudo-attribute")
	}
}

func TestRelationshipIndexes(t *testing.T) {
	s := gateStore(t)
	rootI := mustSur(t)(s.NewObject(paperschema.TypeGateInterfaceI, ""))
	p1 := addPin(t, s, rootI, "IN", 1)
	p2 := addPin(t, s, rootI, "OUT", 2)
	w := mustSur(t)(s.Relate(paperschema.TypeWire, Participants{
		"Pin1": domain.Ref(p1), "Pin2": domain.Ref(p2),
	}))
	rels := s.RelationshipsOf(p1)
	if len(rels) != 1 || rels[0] != w {
		t.Errorf("RelationshipsOf = %v", rels)
	}
	parts := s.ParticipantsOf(w)
	if len(parts) != 2 || parts[0] != p1 || parts[1] != p2 {
		t.Errorf("ParticipantsOf = %v", parts)
	}
	// Non-relationship and missing objects yield nil.
	if s.ParticipantsOf(p1) != nil {
		t.Error("ParticipantsOf on object should be nil")
	}
	if s.RelationshipsOf(9999) != nil && len(s.RelationshipsOf(9999)) != 0 {
		t.Error("RelationshipsOf on missing should be empty")
	}
}

func TestAccessorsAndCounters(t *testing.T) {
	s := gateStore(t)
	if s.Catalog() == nil {
		t.Error("Catalog accessor")
	}
	rootI := mustSur(t)(s.NewObject(paperschema.TypeGateInterfaceI, ""))
	o, err := s.Get(rootI)
	if err != nil {
		t.Fatal(err)
	}
	if o.TypeName() != paperschema.TypeGateInterfaceI || o.IsRelationship() {
		t.Error("object accessors")
	}
	if _, err := s.Get(9999); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("Get missing: %v", err)
	}
	before := s.Seq()
	pin := addPin(t, s, rootI, "IN", 1)
	if s.Seq() <= before {
		t.Error("Seq should advance")
	}
	ms, err := s.ModSeq(pin)
	if err != nil || ms == 0 {
		t.Errorf("ModSeq = %d, %v", ms, err)
	}
	if _, err := s.ModSeq(9999); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("ModSeq missing: %v", err)
	}
	if err := s.DefineClass("A", ""); err != nil {
		t.Fatal(err)
	}
	if err := s.DefineClass("B", ""); err != nil {
		t.Fatal(err)
	}
	names := s.ClassNames()
	if len(names) != 2 || names[0] != "A" || names[1] != "B" {
		t.Errorf("ClassNames = %v", names)
	}
	// Class accessor methods.
	cls, _ := s.Get(rootI)
	_ = cls
}

func TestViolationString(t *testing.T) {
	v := ConstraintViolation{Object: 3, Type: "SimpleGate", Src: "count(Pins) = 1"}
	msg := v.String()
	if msg == "" || v.Reason != "" {
		t.Errorf("String = %q", msg)
	}
	v.Reason = "boom"
	if got := v.String(); got == msg {
		t.Error("reason should extend the message")
	}
}

func TestImportValidationErrors(t *testing.T) {
	s := gateStore(t)
	rootI := mustSur(t)(s.NewObject(paperschema.TypeGateInterfaceI, ""))
	addPin(t, s, rootI, "IN", 1)
	iface := mustSur(t)(s.NewObject(paperschema.TypeGateInterface, ""))
	if _, err := s.Bind(paperschema.RelAllOfGateInterfaceI, iface, rootI); err != nil {
		t.Fatal(err)
	}
	st := s.Export()

	fresh := func() *Store {
		t.Helper()
		s2, err := NewStore(paperschema.MustGates())
		if err != nil {
			t.Fatal(err)
		}
		return s2
	}
	// Valid round trip, then import into non-empty store.
	s2 := fresh()
	if err := s2.Import(st); err != nil {
		t.Fatal(err)
	}
	if err := s2.Import(st); err == nil {
		t.Error("import into non-empty store accepted")
	}
	if bad := s2.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("imported store inconsistent: %v", bad)
	}

	corrupt := func(mutate func(*StoreState)) error {
		c := *st
		c.Objects = append([]ObjectRecord(nil), st.Objects...)
		c.Bindings = append([]BindingRecord(nil), st.Bindings...)
		c.Classes = append([]ClassRecord(nil), st.Classes...)
		mutate(&c)
		return fresh().Import(&c)
	}
	if err := corrupt(func(c *StoreState) { c.Objects[0].TypeName = "Ghost" }); err == nil {
		t.Error("unknown type accepted")
	}
	if err := corrupt(func(c *StoreState) { c.Objects = append(c.Objects, c.Objects[0]) }); err == nil {
		t.Error("duplicate surrogate accepted")
	}
	if err := corrupt(func(c *StoreState) { c.Objects[1].Parent = 7777 }); err == nil {
		t.Error("missing parent accepted")
	}
	if err := corrupt(func(c *StoreState) { c.Bindings[0].RelType = "Ghost" }); err == nil {
		t.Error("unknown binding rel accepted")
	}
	if err := corrupt(func(c *StoreState) { c.Bindings[0].Transmitter = 7777 }); err == nil {
		t.Error("missing transmitter accepted")
	}
	if err := corrupt(func(c *StoreState) { c.Bindings[0].Inheritor = 7777 }); err == nil {
		t.Error("missing inheritor accepted")
	}
	if err := corrupt(func(c *StoreState) { c.Bindings = append(c.Bindings, c.Bindings[0]) }); err == nil {
		t.Error("duplicate binding accepted")
	}
	if err := corrupt(func(c *StoreState) { c.Objects[0].OwnerClass = "Ghost" }); err == nil {
		t.Error("unknown class accepted")
	}
}

// TestImportRejectsSurrogatesOutsideState: the object tables are sized by
// surrogate, so a record at 0 or past the state's NextSur is damage that
// must fail the import before anything is built — without sizing a table
// for it.
func TestImportRejectsSurrogatesOutsideState(t *testing.T) {
	for _, st := range []*StoreState{
		{
			Classes: []ClassRecord{{Name: "C"}},
			Objects: []ObjectRecord{{Sur: 1 << 62, TypeName: paperschema.TypeGateInterfaceI}},
			NextSur: 1,
		},
		{Objects: []ObjectRecord{{Sur: 0, TypeName: paperschema.TypeGateInterfaceI}}, NextSur: 1},
		{
			Objects: []ObjectRecord{
				{Sur: 1, TypeName: paperschema.TypeGateInterfaceI},
				{Sur: 2, TypeName: paperschema.TypeGateInterface},
			},
			Bindings: []BindingRecord{{Sur: 3, RelType: paperschema.RelAllOfGateInterfaceI, Transmitter: 1, Inheritor: 2}},
			NextSur:  2,
		},
	} {
		s := gateStore(t)
		if err := s.Import(st); err == nil {
			t.Errorf("import of %+v accepted", st)
		}
		if n, names := s.Len(), s.ClassNames(); n != 0 || len(names) != 0 {
			t.Errorf("failed import left %d objects and classes %v", n, names)
		}
	}
}

func TestWithExclusive(t *testing.T) {
	s := gateStore(t)
	mustSur(t)(s.NewObject(paperschema.TypePin, ""))
	var got int
	err := s.WithExclusive(func(st *StoreState) error {
		got = len(st.Objects)
		return nil
	})
	if err != nil || got != 1 {
		t.Errorf("WithExclusive: %d, %v", got, err)
	}
	wantErr := errors.New("boom")
	if err := s.WithExclusive(func(*StoreState) error { return wantErr }); !errors.Is(err, wantErr) {
		t.Errorf("error propagation: %v", err)
	}
}

func TestWriteGuard(t *testing.T) {
	s := gateStore(t)
	pin := mustSur(t)(s.NewObject(paperschema.TypePin, ""))
	guardErr := errors.New("sealed")
	s.SetWriteGuard(func(sur domain.Surrogate) error {
		if sur == pin {
			return guardErr
		}
		return nil
	})
	if err := s.SetAttr(pin, "PinId", domain.Int(1)); !errors.Is(err, guardErr) {
		t.Errorf("guarded write: %v", err)
	}
	if err := s.Delete(pin); !errors.Is(err, guardErr) {
		t.Errorf("guarded delete: %v", err)
	}
	other := mustSur(t)(s.NewObject(paperschema.TypePin, ""))
	if err := s.SetAttr(other, "PinId", domain.Int(1)); err != nil {
		t.Errorf("unguarded write: %v", err)
	}
	s.SetWriteGuard(nil)
	if err := s.SetAttr(pin, "PinId", domain.Int(2)); err != nil {
		t.Errorf("guard removal: %v", err)
	}
}
