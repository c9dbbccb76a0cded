package inherit

import (
	"testing"

	"cadcam/internal/domain"
	"cadcam/internal/object"
	"cadcam/internal/paperschema"
)

// rig builds the full chip-design arrangement:
//
//	rootI (GateInterface_I, owns 3 pins)
//	  └─ iface (GateInterface)         via AllOf_GateInterface_I
//	       └─ impl (GateImplementation) via AllOf_GateInterface
//	            ├─ sub0, sub1 (SubGates) each bound to compIface
//	            └─ user (TimedComposite) via SomeOf_Gate
//	compI/compIface: the component gate's own two-level interface.
type rig struct {
	s                  *object.Store
	rootI, iface, impl domain.Surrogate
	compI, compIface   domain.Surrogate
	sub0, sub1, user   domain.Surrogate
}

func buildRig(t *testing.T) *rig {
	t.Helper()
	s, err := object.NewStore(paperschema.MustGates())
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{s: s}
	must := func(sur domain.Surrogate, err error) domain.Surrogate {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return sur
	}
	bind := func(rel string, inh, trans domain.Surrogate) {
		t.Helper()
		if _, err := s.Bind(rel, inh, trans); err != nil {
			t.Fatal(err)
		}
	}
	set := func(sur domain.Surrogate, name string, v domain.Value) {
		t.Helper()
		if err := s.SetAttr(sur, name, v); err != nil {
			t.Fatal(err)
		}
	}

	r.rootI = must(s.NewObject(paperschema.TypeGateInterfaceI, ""))
	for i := 0; i < 3; i++ {
		pin := must(s.NewSubobject(r.rootI, "Pins"))
		dir := "IN"
		if i == 2 {
			dir = "OUT"
		}
		set(pin, "InOut", domain.Sym(dir))
		set(pin, "PinId", domain.Int(int64(i+1)))
	}
	r.iface = must(s.NewObject(paperschema.TypeGateInterface, ""))
	bind(paperschema.RelAllOfGateInterfaceI, r.iface, r.rootI)
	set(r.iface, "Length", domain.Int(4))
	set(r.iface, "Width", domain.Int(2))

	r.compI = must(s.NewObject(paperschema.TypeGateInterfaceI, ""))
	r.compIface = must(s.NewObject(paperschema.TypeGateInterface, ""))
	bind(paperschema.RelAllOfGateInterfaceI, r.compIface, r.compI)
	set(r.compIface, "Length", domain.Int(2))

	r.impl = must(s.NewObject(paperschema.TypeGateImplementation, ""))
	bind(paperschema.RelAllOfGateInterface, r.impl, r.iface)
	set(r.impl, "TimeBehavior", domain.Int(10))

	r.sub0 = must(s.NewSubobject(r.impl, "SubGates"))
	bind(paperschema.RelAllOfGateInterface, r.sub0, r.compIface)
	r.sub1 = must(s.NewSubobject(r.impl, "SubGates"))
	bind(paperschema.RelAllOfGateInterface, r.sub1, r.compIface)

	r.user = must(s.NewObject(paperschema.TypeTimedComposite, ""))
	bind(paperschema.RelSomeOfGate, r.user, r.impl)
	return r
}

func contains(list []domain.Surrogate, sur domain.Surrogate) bool {
	for _, x := range list {
		if x == sur {
			return true
		}
	}
	return false
}

func TestAncestors(t *testing.T) {
	r := buildRig(t)
	anc := Ancestors(r.s.View, r.user)
	// user -> impl -> iface -> rootI (and nothing else: the component
	// interfaces are reached via subobjects, not via user's bindings).
	want := []domain.Surrogate{r.impl, r.iface, r.rootI}
	if len(anc) != len(want) {
		t.Fatalf("ancestors = %v, want %v", anc, want)
	}
	for i := range want {
		if anc[i] != want[i] {
			t.Errorf("ancestors[%d] = %v, want %v", i, anc[i], want[i])
		}
	}
	if got := Ancestors(r.s.View, r.rootI); len(got) != 0 {
		t.Errorf("hierarchy root should have no ancestors: %v", got)
	}
}

func TestDescendants(t *testing.T) {
	r := buildRig(t)
	desc := Descendants(r.s.View, r.rootI)
	// rootI transmits to iface, iface to impl, impl to user.
	for _, want := range []domain.Surrogate{r.iface, r.impl, r.user} {
		if !contains(desc, want) {
			t.Errorf("descendants should include %v: %v", want, desc)
		}
	}
	if contains(desc, r.sub0) {
		t.Error("sub0 inherits from compIface, not rootI")
	}
	cdesc := Descendants(r.s.View, r.compI)
	for _, want := range []domain.Surrogate{r.compIface, r.sub0, r.sub1} {
		if !contains(cdesc, want) {
			t.Errorf("component descendants should include %v: %v", want, cdesc)
		}
	}
}

func TestPendingAdaptationsAndAcknowledgeAll(t *testing.T) {
	r := buildRig(t)
	if p := PendingAdaptations(r.s.View); len(p) != 0 {
		t.Fatalf("fresh rig should be clean: %v", p)
	}
	// One interface update flags the impl binding and, via the chain, the
	// user binding (Length is permeable through SomeOf_Gate too).
	if err := r.s.SetAttr(r.iface, "Length", domain.Int(5)); err != nil {
		t.Fatal(err)
	}
	p := PendingAdaptations(r.s.View)
	if len(p) != 2 {
		t.Fatalf("pending = %+v, want 2", p)
	}
	inheritors := map[domain.Surrogate]bool{}
	for _, a := range p {
		inheritors[a.Inheritor] = true
		if a.Updates < 1 {
			t.Errorf("updates = %d", a.Updates)
		}
	}
	if !inheritors[r.impl] || !inheritors[r.user] {
		t.Errorf("flagged inheritors: %v", inheritors)
	}
	n, err := AcknowledgeAll(r.s)
	if err != nil || n != 2 {
		t.Fatalf("AcknowledgeAll = %d, %v", n, err)
	}
	if p := PendingAdaptations(r.s.View); len(p) != 0 {
		t.Errorf("still pending after acknowledge: %v", p)
	}
}

func TestVisibleComponents(t *testing.T) {
	// Experiment E4 (Figure 3/4): the component closure of the composite.
	r := buildRig(t)
	portions, err := VisibleComponents(r.s.View, r.impl)
	if err != nil {
		t.Fatal(err)
	}
	// impl sees: iface (via AllOf_GateInterface), rootI (via
	// AllOf_GateInterface_I through iface), compIface twice collapsed to
	// distinct bindings (sub0, sub1) -> compIface + compI.
	byObject := map[domain.Surrogate][]Portion{}
	for _, p := range portions {
		byObject[p.Object] = append(byObject[p.Object], p)
	}
	for _, want := range []domain.Surrogate{r.iface, r.rootI, r.compIface, r.compI} {
		if len(byObject[want]) == 0 {
			t.Errorf("closure should include %v: %+v", want, portions)
		}
	}
	// compIface is visible through two bindings (one per subgate).
	if got := len(byObject[r.compIface]); got != 2 {
		t.Errorf("compIface portions = %d, want 2", got)
	}
	// Portions carry the permeability list.
	for _, p := range byObject[r.iface] {
		if len(p.Members) != 3 { // Length, Width, Pins
			t.Errorf("iface portion members = %v", p.Members)
		}
	}
	if _, err := VisibleComponents(r.s.View, 9999); err == nil {
		t.Error("missing object should error")
	}
}

func TestExpand(t *testing.T) {
	r := buildRig(t)
	exp, err := Expand(r.s.View, r.user)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Object != r.user || exp.Type != paperschema.TypeTimedComposite {
		t.Errorf("root = %+v", exp)
	}
	// user -> impl -> {iface -> rootI(+3 pins), sub0 -> compIface -> compI,
	// sub1 -> ...}; pins are subobjects.
	if exp.Size() < 10 {
		t.Errorf("expansion size = %d, want >= 10", exp.Size())
	}
	leaves := exp.Leaves()
	// The pins of rootI and the component hierarchy roots are leaves.
	foundCompI := false
	for _, l := range leaves {
		if l == r.compI {
			foundCompI = true
		}
	}
	if !foundCompI {
		t.Errorf("compI should be a leaf: %v", leaves)
	}
	// Rel labels distinguish binding edges from subobject edges.
	if exp.Children[0].Rel != paperschema.RelSomeOfGate {
		t.Errorf("first child rel = %q", exp.Children[0].Rel)
	}
	if _, err := Expand(r.s.View, 9999); err == nil {
		t.Error("missing object should error")
	}
}

func TestImportCopyVsView(t *testing.T) {
	// Experiment E7 (§2): the copy is stale after a component update and
	// nobody tells the importer; the view is always current.
	r := buildRig(t)
	ci, err := ImportCopy(r.s, paperschema.RelAllOfGateInterface, r.iface)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Bytes <= 0 {
		t.Error("copy should account bytes")
	}
	if !ci.Attrs["Length"].Equal(domain.Int(4)) {
		t.Errorf("copied Length = %s", ci.Attrs["Length"])
	}
	// Pins are flattened into the copy.
	if _, ok := ci.Attrs["Pins[0].InOut"]; !ok {
		t.Errorf("copy should flatten pins: %v", ci.Attrs)
	}
	stale, err := ci.Stale(r.s)
	if err != nil || stale {
		t.Fatalf("fresh copy stale=%v err=%v", stale, err)
	}
	// Component update: the copy is now stale, the view is current.
	if err := r.s.SetAttr(r.iface, "Length", domain.Int(9)); err != nil {
		t.Fatal(err)
	}
	stale, err = ci.Stale(r.s)
	if err != nil || !stale {
		t.Fatalf("copy should be stale: %v err=%v", stale, err)
	}
	if !ci.Attrs["Length"].Equal(domain.Int(4)) {
		t.Error("the copy itself must keep the old value")
	}
	viewV, err := r.s.GetAttr(r.impl, "Length")
	if err != nil || !viewV.Equal(domain.Int(9)) {
		t.Errorf("view = %s, %v", viewV, err)
	}
	// Pin-level updates are caught by the staleness check too.
	pins, _ := r.s.Members(r.rootI, "Pins")
	if err := r.s.SetAttr(pins[0], "PinId", domain.Int(99)); err != nil {
		t.Fatal(err)
	}
	ci2, _ := ImportCopy(r.s, paperschema.RelAllOfGateInterface, r.iface)
	if err := r.s.SetAttr(pins[0], "PinId", domain.Int(77)); err != nil {
		t.Fatal(err)
	}
	stale, _ = ci2.Stale(r.s)
	if !stale {
		t.Error("pin update should stale the copy")
	}
}

func TestImportCopyErrors(t *testing.T) {
	r := buildRig(t)
	if _, err := ImportCopy(r.s, "Ghost", r.iface); err == nil {
		t.Error("unknown rel should error")
	}
	if _, err := ImportCopy(r.s, paperschema.RelAllOfGateInterface, r.impl); err == nil {
		t.Error("wrong transmitter type should error")
	}
	if _, err := ImportCopy(r.s, paperschema.RelAllOfGateInterface, 9999); err == nil {
		t.Error("missing transmitter should error")
	}
}

func TestPermeabilityTailoring(t *testing.T) {
	// Experiment E5: SomeOf_Gate exports TimeBehavior, AllOf_GateInterface
	// does not exist past the implementation; Function stays private.
	r := buildRig(t)
	v, err := r.s.GetAttr(r.user, "TimeBehavior")
	if err != nil || !v.Equal(domain.Int(10)) {
		t.Errorf("TimeBehavior through SomeOf_Gate = %s, %v", v, err)
	}
	if _, err := r.s.GetAttr(r.user, "Function"); err == nil {
		t.Error("Function must not be visible through SomeOf_Gate")
	}
	// The interface data still flows: Length via impl via iface.
	if v, _ := r.s.GetAttr(r.user, "Length"); !v.Equal(domain.Int(4)) {
		t.Errorf("Length through the chain = %s", v)
	}
	// Pins flow three levels: rootI -> iface -> impl -> user.
	pins, err := r.s.Members(r.user, "Pins")
	if err != nil || len(pins) != 3 {
		t.Errorf("user pins = %v, %v", pins, err)
	}
}

// AcknowledgeAll clears every pending adaptation and reports how many
// bindings it acknowledged.
func AcknowledgeAll(s *object.Store) (int, error) {
	pending := PendingAdaptations(s.View)
	for _, a := range pending {
		if err := s.Acknowledge(a.Rel, a.Inheritor); err != nil {
			return 0, err
		}
	}
	return len(pending), nil
}
