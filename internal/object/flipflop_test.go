package object

import (
	"errors"
	"testing"

	"cadcam/internal/domain"
	"cadcam/internal/paperschema"
)

// buildInterface creates a GateInterface with nIn inputs and nOut outputs.
// Faithful to §4.2, the pins live on a GateInterface_I hierarchy root and
// the returned GateInterface inherits them through AllOf_GateInterface_I.
func buildInterface(t *testing.T, s *Store, length, width int64, nIn, nOut int) domain.Surrogate {
	t.Helper()
	root := mustSur(t)(s.NewObject(paperschema.TypeGateInterfaceI, ""))
	id := int64(1)
	for i := 0; i < nIn; i++ {
		addPin(t, s, root, "IN", id)
		id++
	}
	for i := 0; i < nOut; i++ {
		addPin(t, s, root, "OUT", id)
		id++
	}
	iface := mustSur(t)(s.NewObject(paperschema.TypeGateInterface, ""))
	if _, err := s.Bind(paperschema.RelAllOfGateInterfaceI, iface, root); err != nil {
		t.Fatal(err)
	}
	set(t, s, iface, "Length", domain.Int(length))
	set(t, s, iface, "Width", domain.Int(width))
	return iface
}

// pinOwner resolves the hierarchy root that owns an interface's pins.
func pinOwner(t *testing.T, s *Store, iface domain.Surrogate) domain.Surrogate {
	t.Helper()
	root := s.TransmitterOf(iface, paperschema.RelAllOfGateInterfaceI)
	if root == 0 {
		t.Fatal("interface has no hierarchy root")
	}
	return root
}

// buildFlipFlop reproduces Figure 1: a flip-flop implementation whose two
// NAND subgates are components (inheritors of a NAND interface), cross-
// coupled by wires that also connect to the flip-flop's external pins.
func buildFlipFlop(t *testing.T, s *Store) (ff, ffIface, nandIface domain.Surrogate, subs []domain.Surrogate) {
	t.Helper()
	// Interface of the NAND component: 2 in, 1 out.
	nandIface = buildInterface(t, s, 4, 2, 2, 1)
	// Interface of the flip-flop itself: 2 in (S,R), 2 out (Q, notQ).
	ffIface = buildInterface(t, s, 10, 6, 2, 2)

	ff = mustSur(t)(s.NewObject(paperschema.TypeGateImplementation, ""))
	if _, err := s.Bind(paperschema.RelAllOfGateInterface, ff, ffIface); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		sg := mustSur(t)(s.NewSubobject(ff, "SubGates"))
		if _, err := s.Bind(paperschema.RelAllOfGateInterface, sg, nandIface); err != nil {
			t.Fatal(err)
		}
		set(t, s, sg, "GateLocation", domain.NewRec("X", domain.Int(int64(i*5)), "Y", domain.Int(0)))
		subs = append(subs, sg)
	}
	return ff, ffIface, nandIface, subs
}

func pinsOf(t *testing.T, s *Store, owner domain.Surrogate) []domain.Surrogate {
	t.Helper()
	pins, err := s.Members(owner, "Pins")
	if err != nil {
		t.Fatal(err)
	}
	return pins
}

func TestFlipFlopConstruction(t *testing.T) {
	// Experiment E1 (Figure 1).
	s := gateStore(t)
	ff, ffIface, nandIface, subs := buildFlipFlop(t, s)

	// The flip-flop sees its interface data by value inheritance.
	if v := get(t, s, ff, "Length"); !v.Equal(domain.Int(10)) {
		t.Errorf("ff.Length = %s", v)
	}
	ffPins := pinsOf(t, s, ff)
	if len(ffPins) != 4 {
		t.Fatalf("ff pins = %d, want 4 (inherited from its interface)", len(ffPins))
	}
	// Both subgates see the NAND interface pins; the *same* pins, since
	// inheritance grants a view, not a copy.
	sg0Pins := pinsOf(t, s, subs[0])
	sg1Pins := pinsOf(t, s, subs[1])
	if len(sg0Pins) != 3 || len(sg1Pins) != 3 {
		t.Fatalf("subgate pins = %d/%d, want 3/3", len(sg0Pins), len(sg1Pins))
	}
	if sg0Pins[0] != sg1Pins[0] {
		t.Error("components sharing a transmitter must see the same pin objects")
	}
	ifacePins := pinsOf(t, s, nandIface)
	if sg0Pins[0] != ifacePins[0] {
		t.Error("component pins must be the interface's own pins")
	}

	// Wire the gates: external S -> gate0 in, cross-couple outputs.
	wire := func(a, b domain.Surrogate) domain.Surrogate {
		t.Helper()
		w, err := s.RelateIn(ff, "Wires", Participants{
			"Pin1": domain.Ref(a),
			"Pin2": domain.Ref(b),
		})
		if err != nil {
			t.Fatalf("RelateIn: %v", err)
		}
		return w
	}
	w1 := wire(ffPins[0], sg0Pins[0]) // S -> NAND.in1
	wire(ffPins[1], sg1Pins[0])       // R -> NAND.in1 (shared interface pin)
	wire(sg0Pins[2], ffPins[2])       // Q out
	wire(sg1Pins[2], ffPins[3])       // notQ out

	wires, err := s.Members(ff, "Wires")
	if err != nil || len(wires) != 4 {
		t.Fatalf("wires = %v err=%v", wires, err)
	}
	// Wire participants are readable.
	if v, err := s.Participant(w1, "Pin1"); err != nil || !v.Equal(domain.Ref(ffPins[0])) {
		t.Errorf("wire Pin1 = %v, %v", v, err)
	}
	// Wires carry geometry.
	point := func(x, y int64) domain.Value {
		return domain.NewRec("X", domain.Int(x), "Y", domain.Int(y))
	}
	set(t, s, w1, "Corners", domain.NewList(point(0, 0), point(3, 0)))

	// A wire to a pin of an unrelated gate violates the where clause.
	stray := buildInterface(t, s, 2, 2, 2, 1)
	strayPins := pinsOf(t, s, stray)
	if _, err := s.RelateIn(ff, "Wires", Participants{
		"Pin1": domain.Ref(ffPins[0]),
		"Pin2": domain.Ref(strayPins[0]),
	}); !errors.Is(err, ErrConstraint) {
		t.Errorf("stray wire should violate the where restriction, got %v", err)
	} else if want := "object: constraint violated: (Pin1 in Pins or Pin1 in SubGates.Pins) and (Pin2 in Pins or Pin2 in SubGates.Pins)"; err.Error() != want {
		t.Errorf("where violation reads %q, want %q", err, want)
	}
	// The failed wire must not linger.
	wires, _ = s.Members(ff, "Wires")
	if len(wires) != 4 {
		t.Errorf("failed wire leaked into the subclass: %v", wires)
	}

	// Constraints hold for the whole flip-flop.
	if v := s.CheckAll(); len(v) != 0 {
		t.Errorf("violations: %v", v)
	}

	// Function matrix (truth table) on the implementation.
	set(t, s, ff, "Function", domain.NewMatrix(2, 2,
		domain.Bool(false), domain.Bool(true),
		domain.Bool(true), domain.Bool(false)))

	// Deleting the flip-flop cascades subgates and wires but leaves the
	// interfaces (independent design objects) alone.
	if err := s.Delete(ff); err != nil {
		t.Fatal(err)
	}
	if !s.Exists(ffIface) || !s.Exists(nandIface) {
		t.Error("interfaces must survive the composite's deletion")
	}
	for _, sg := range subs {
		if s.Exists(sg) {
			t.Error("subgates must die with the composite")
		}
	}
	// The interfaces lost their inheritors; no dangling bindings remain.
	if bs := s.BindingsOfTransmitter(nandIface); len(bs) != 0 {
		t.Errorf("dangling bindings: %v", bs)
	}
}

func TestWiresAcrossNestingLevels(t *testing.T) {
	// Figure 1's point: relationships may link subobjects of different
	// nesting levels (gate pins to subgate pins).
	s := gateStore(t)
	ff, _, _, subs := buildFlipFlop(t, s)
	ffPins := pinsOf(t, s, ff)
	sgPins := pinsOf(t, s, subs[0])
	// gate pin (level 1, via interface) to subgate pin (level 2, via
	// component interface).
	if _, err := s.RelateIn(ff, "Wires", Participants{
		"Pin1": domain.Ref(ffPins[0]),
		"Pin2": domain.Ref(sgPins[1]),
	}); err != nil {
		t.Fatalf("cross-level wire: %v", err)
	}
}

func TestRelateValidation(t *testing.T) {
	s := gateStore(t)
	ff, _, _, _ := buildFlipFlop(t, s)
	ffPins := pinsOf(t, s, ff)
	// Missing role.
	if _, err := s.RelateIn(ff, "Wires", Participants{"Pin1": domain.Ref(ffPins[0])}); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("missing role: %v", err)
	}
	// Unknown role.
	if _, err := s.RelateIn(ff, "Wires", Participants{
		"Pin1": domain.Ref(ffPins[0]), "Pin2": domain.Ref(ffPins[1]), "Pin3": domain.Ref(ffPins[2]),
	}); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("unknown role: %v", err)
	}
	// Wrong participant type.
	if _, err := s.RelateIn(ff, "Wires", Participants{
		"Pin1": domain.Ref(ffPins[0]), "Pin2": domain.Ref(ff),
	}); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("wrong type: %v", err)
	}
	// Dangling participant.
	if _, err := s.RelateIn(ff, "Wires", Participants{
		"Pin1": domain.Ref(ffPins[0]), "Pin2": domain.Ref(9999),
	}); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("dangling: %v", err)
	}
	// Non-ref value.
	if _, err := s.RelateIn(ff, "Wires", Participants{
		"Pin1": domain.Ref(ffPins[0]), "Pin2": domain.Int(3),
	}); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("non-ref: %v", err)
	}
	// Unknown subrel and unknown rel type.
	if _, err := s.RelateIn(ff, "Ghost", nil); !errors.Is(err, ErrNoSuchClass) {
		t.Errorf("unknown subrel: %v", err)
	}
	if _, err := s.Relate("Ghost", nil); !errors.Is(err, ErrNoSuchType) {
		t.Errorf("unknown rel type: %v", err)
	}
}

func TestDeletingParticipantDeletesWire(t *testing.T) {
	s := gateStore(t)
	ff, _, nandIface, _ := buildFlipFlop(t, s)
	ffPins := pinsOf(t, s, ff)
	ifacePins := pinsOf(t, s, nandIface)
	w, err := s.RelateIn(ff, "Wires", Participants{
		"Pin1": domain.Ref(ffPins[0]),
		"Pin2": domain.Ref(ifacePins[0]),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Deleting the pin kills the wire that references it.
	if err := s.Delete(ifacePins[0]); err != nil {
		t.Fatal(err)
	}
	if s.Exists(w) {
		t.Error("wire should be deleted with its participant")
	}
	members, _ := s.Members(ff, "Wires")
	if len(members) != 0 {
		t.Errorf("wires = %v", members)
	}
}
