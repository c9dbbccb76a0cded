package wal

import (
	"reflect"
	"testing"

	"cadcam/internal/domain"
	"cadcam/internal/object"
	"cadcam/internal/oplog"
	"cadcam/internal/paperschema"
	"cadcam/internal/version"
)

func fresh(t *testing.T) (*object.Store, *version.Manager) {
	t.Helper()
	s, err := object.NewStore(paperschema.MustGates())
	if err != nil {
		t.Fatal(err)
	}
	return s, version.NewManager(s)
}

func TestOpEncodeDecode(t *testing.T) {
	ops := []*oplog.Op{
		{Kind: oplog.KindDefineClass, Name: "Interfaces", Name2: paperschema.TypeGateInterface},
		{Kind: oplog.KindNewObject, Name: paperschema.TypePin, Name2: ""},
		{Kind: oplog.KindSetAttr, Sur: 7, Name: "Length", Value: domain.Int(4)},
		{Kind: oplog.KindSetAttr, Sur: 7, Name: "Length", Value: domain.NullValue},
		{Kind: oplog.KindRelate, Name: paperschema.TypeWire, Parts: map[string]domain.Value{
			"Pin1": domain.Ref(1), "Pin2": domain.Ref(2),
		}},
		{Kind: oplog.KindBind, Sur: 3, Sur2: 4, Name: paperschema.RelAllOfGateInterface},
		{Kind: oplog.KindAddVersion, Sur: 5, Name: "NAND", Name2: "alt", Surs: []domain.Surrogate{1, 2}},
		{Kind: oplog.KindDeletePolicy, Num: 1},
	}
	for _, op := range ops {
		b := op.Encode()
		got, err := oplog.Decode(b)
		if err != nil {
			t.Fatalf("decode %+v: %v", op, err)
		}
		if got.Kind != op.Kind || got.Sur != op.Sur || got.Sur2 != op.Sur2 ||
			got.Name != op.Name || got.Name2 != op.Name2 || got.Num != op.Num {
			t.Errorf("round trip mismatch: %+v vs %+v", got, op)
		}
		if op.Value != nil && !got.Value.Equal(op.Value) {
			t.Errorf("value mismatch: %s vs %s", got.Value, op.Value)
		}
		if len(got.Parts) != len(op.Parts) || len(got.Surs) != len(op.Surs) {
			t.Errorf("composite mismatch: %+v vs %+v", got, op)
		}
	}
	if _, err := oplog.Decode([]byte{}); err == nil {
		t.Error("empty op should fail to decode")
	}
}

func TestApplyJournalReproducesState(t *testing.T) {
	// Execute a scripted sequence against one store while journaling the
	// ops, then replay the journal on a fresh store: surrogates, values
	// and bindings must coincide.
	journal := []*oplog.Op{
		{Kind: oplog.KindDefineClass, Name: "Roots", Name2: paperschema.TypeGateInterfaceI},
		{Kind: oplog.KindNewObject, Name: paperschema.TypeGateInterfaceI, Name2: "Roots"}, // @1
		{Kind: oplog.KindNewSubobject, Sur: 1, Name: "Pins"},                              // @2
		{Kind: oplog.KindSetAttr, Sur: 2, Name: "InOut", Value: domain.Sym("IN")},
		{Kind: oplog.KindNewObject, Name: paperschema.TypeGateInterface},                  // @3
		{Kind: oplog.KindBind, Sur: 3, Sur2: 1, Name: paperschema.RelAllOfGateInterfaceI}, // @4 (binding obj)
		{Kind: oplog.KindSetAttr, Sur: 3, Name: "Length", Value: domain.Int(6)},
		{Kind: oplog.KindNewObject, Name: paperschema.TypeGateImplementation},            // @5
		{Kind: oplog.KindBind, Sur: 5, Sur2: 3, Name: paperschema.RelAllOfGateInterface}, // @6
		{Kind: oplog.KindSetAttr, Sur: 5, Name: "TimeBehavior", Value: domain.Int(11)},
		{Kind: oplog.KindDefineDesign, Name: "NAND", Sur: 3},
		{Kind: oplog.KindAddVersion, Name: "NAND", Sur: 5},
		{Kind: oplog.KindSetStatus, Sur: 5, Name: string(version.StatusReleased)},
		{Kind: oplog.KindSetDefault, Name: "NAND", Sur: 5},
		{Kind: oplog.KindAcknowledge, Sur: 5, Name: paperschema.RelAllOfGateInterface},
	}
	apply := func(t *testing.T) (*object.Store, *version.Manager) {
		s, vm := fresh(t)
		for i, op := range journal {
			// Encode/decode in the loop so replay exercises the codec.
			dec, err := oplog.Decode(op.Encode())
			if err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			if err := Apply(dec, s, vm, false); err != nil {
				t.Fatalf("op %d (%d): %v", i, op.Kind, err)
			}
		}
		return s, vm
	}
	s1, vm1 := apply(t)
	s2, vm2 := apply(t)

	if s1.Len() != s2.Len() {
		t.Fatalf("object counts differ: %d vs %d", s1.Len(), s2.Len())
	}
	// Inherited read works identically.
	v1, err1 := s1.GetAttr(5, "Length")
	v2, err2 := s2.GetAttr(5, "Length")
	if err1 != nil || err2 != nil || !v1.Equal(v2) || !v1.Equal(domain.Int(6)) {
		t.Errorf("inherited reads: %v/%v %v/%v", v1, err1, v2, err2)
	}
	// Version state coincides.
	d1, _ := vm1.Default("NAND")
	d2, _ := vm2.Default("NAND")
	if d1 != d2 || d1 != 5 {
		t.Errorf("defaults: %v vs %v", d1, d2)
	}
	if !vm1.Frozen(5) == vm2.Frozen(5) && vm1.Frozen(5) {
		t.Error("frozen state differs")
	}
}

func TestApplyUnknownOp(t *testing.T) {
	s, vm := fresh(t)
	if err := Apply(&oplog.Op{Kind: oplog.Kind(99)}, s, vm, false); err == nil {
		t.Error("unknown op should fail")
	}
}

// TestReplayNApplyError: a call whose ops fail to apply rewinds the
// decoder and reports how many ops are already in the store, 0 only when
// the first op failed.
func TestReplayNApplyError(t *testing.T) {
	pin := &oplog.Op{Kind: oplog.KindNewObject, Name: paperschema.TypePin}
	stray := &oplog.Op{Kind: oplog.KindDelete, Sur: 1 << 30}
	for _, tc := range []struct {
		ops  []*oplog.Op
		done int
	}{
		{[]*oplog.Op{stray, pin}, 0},
		{[]*oplog.Op{pin, {Kind: oplog.KindSetAttr, Sur: 1, Name: "PinId", Value: domain.Int(1)}, stray}, 2},
	} {
		s, vm := fresh(t)
		var names oplog.Decoder
		done, err := ReplayN(new(oplog.Encoder).EncodeBatch(tc.ops), &names, s, vm, 1)
		if err == nil || done != tc.done {
			t.Fatalf("ReplayN = %d, %v; want %d and an apply error", done, err, tc.done)
		}
		if !reflect.DeepEqual(names, oplog.Decoder{}) {
			t.Fatalf("decoder advanced by a failed call: %+v", names)
		}
		if got := s.Seq(); (got == 0) != (tc.done == 0) {
			t.Fatalf("store Seq %d after %d applied ops", got, tc.done)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	// Build a rich state, snapshot it, restore into fresh store+manager,
	// compare exports.
	s, vm := fresh(t)
	must := func(sur domain.Surrogate, err error) domain.Surrogate {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return sur
	}
	if err := s.DefineClass("Roots", paperschema.TypeGateInterfaceI); err != nil {
		t.Fatal(err)
	}
	rootI := must(s.NewObject(paperschema.TypeGateInterfaceI, "Roots"))
	pin := must(s.NewSubobject(rootI, "Pins"))
	if err := s.SetAttr(pin, "InOut", domain.Sym("IN")); err != nil {
		t.Fatal(err)
	}
	if err := s.SetAttr(pin, "PinLocation", domain.NewRec("X", domain.Int(1), "Y", domain.Int(2))); err != nil {
		t.Fatal(err)
	}
	iface := must(s.NewObject(paperschema.TypeGateInterface, ""))
	if _, err := s.Bind(paperschema.RelAllOfGateInterfaceI, iface, rootI); err != nil {
		t.Fatal(err)
	}
	if err := s.SetAttr(iface, "Length", domain.Int(4)); err != nil {
		t.Fatal(err)
	}
	impl := must(s.NewObject(paperschema.TypeGateImplementation, ""))
	if _, err := s.Bind(paperschema.RelAllOfGateInterface, impl, iface); err != nil {
		t.Fatal(err)
	}
	pin2 := must(s.NewSubobject(rootI, "Pins"))
	w := must(s.Relate(paperschema.TypeWire, object.Participants{
		"Pin1": domain.Ref(pin), "Pin2": domain.Ref(pin2),
	}))
	if err := s.SetAttr(w, "Corners", domain.NewList(domain.NewRec("X", domain.Int(0), "Y", domain.Int(0)))); err != nil {
		t.Fatal(err)
	}
	if _, err := vm.DefineDesign("NAND", iface); err != nil {
		t.Fatal(err)
	}
	if _, err := vm.AddVersion("NAND", impl, nil, "main"); err != nil {
		t.Fatal(err)
	}
	if err := vm.SetDefault("NAND", impl); err != nil {
		t.Fatal(err)
	}
	if err := vm.SetStatus(impl, version.StatusStable); err != nil {
		t.Fatal(err)
	}
	// One permeable update so binding counters are non-zero.
	if err := s.SetAttr(iface, "Width", domain.Int(2)); err != nil {
		t.Fatal(err)
	}

	blob := EncodeSnapshot(s.Export(), vm.Export())
	s2, vm2 := fresh(t)
	if err := importSnapshot(blob, s2, vm2); err != nil {
		t.Fatalf("decode snapshot: %v", err)
	}
	// Deep compare via re-export.
	blob2 := EncodeSnapshot(s2.Export(), vm2.Export())
	if len(blob) != len(blob2) {
		t.Fatalf("re-exported snapshot differs in size: %d vs %d", len(blob), len(blob2))
	}
	for i := range blob {
		if blob[i] != blob2[i] {
			t.Fatalf("re-exported snapshot differs at byte %d", i)
		}
	}
	// Behaviour carries over: inherited read, class, binding bookkeeping,
	// version default.
	if v, err := s2.GetAttr(impl, "Length"); err != nil || !v.Equal(domain.Int(4)) {
		t.Errorf("restored inherited read: %v, %v", v, err)
	}
	members, err := s2.Class("Roots")
	if err != nil || len(members) != 1 || members[0] != rootI {
		t.Errorf("restored class: %v, %v", members, err)
	}
	b, ok := s2.BindingOf(impl, paperschema.RelAllOfGateInterface)
	if !ok || !b.NeedsAdaptation() {
		t.Error("restored binding should still need adaptation")
	}
	if d, err := vm2.Default("NAND"); err != nil || d != impl {
		t.Errorf("restored default: %v, %v", d, err)
	}
	// Post-restore mutations keep working and surrogate allocation
	// continues without collision.
	fresh1, err := s2.NewObject(paperschema.TypePin, "")
	if err != nil {
		t.Fatal(err)
	}
	if s.Exists(fresh1) {
		t.Errorf("surrogate %v collides with pre-snapshot allocation", fresh1)
	}
}

// importSnapshot decodes a snapshot blob into an empty store and version
// manager.
func importSnapshot(b []byte, s *object.Store, vm *version.Manager) error {
	st, vs, err := DecodeSnapshotState(b)
	if err != nil {
		return err
	}
	if err := s.Import(st); err != nil {
		return err
	}
	return vm.Import(vs)
}

func TestSnapshotDecodeErrors(t *testing.T) {
	s, vm := fresh(t)
	if err := importSnapshot([]byte{1, 2, 3}, s, vm); err == nil {
		t.Error("garbage snapshot accepted")
	}
	blob := EncodeSnapshot(s.Export(), vm.Export())
	blob[0] ^= 0xFF
	s2, vm2 := fresh(t)
	if err := importSnapshot(blob, s2, vm2); err == nil {
		t.Error("bad magic accepted")
	}
}
