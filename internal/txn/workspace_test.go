package txn

import (
	"errors"
	"sort"
	"testing"

	"cadcam/internal/domain"
	"cadcam/internal/paperschema"
)

// checkedOut lists a workspace's checked-out objects, sorted.
func checkedOut(w *Workspace) []domain.Surrogate {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]domain.Surrogate, 0, len(w.entries))
	for sur := range w.entries {
		out = append(out, sur)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestWorkspaceCheckoutCheckin(t *testing.T) {
	m := gateManager(t)
	sur, _ := m.store.NewObject(paperschema.TypeGateInterfaceI, "")
	pin, _ := m.store.NewSubobject(sur, "Pins")
	if err := m.store.SetAttr(pin, "PinId", intVal(1)); err != nil {
		t.Fatal(err)
	}

	ws := m.NewWorkspace("designer")
	if err := ws.Checkout(pin); err != nil {
		t.Fatal(err)
	}
	if got := checkedOut(ws); len(got) != 1 || got[0] != pin {
		t.Errorf("checked out = %v", got)
	}
	if err := ws.Checkout(pin); err == nil {
		t.Error("double checkout accepted")
	}
	if err := ws.Checkout(9999); err == nil {
		t.Error("checkout of missing object accepted")
	}

	// Local edits are visible through the workspace only.
	if err := ws.Set(pin, "PinId", intVal(42)); err != nil {
		t.Fatal(err)
	}
	if v, _ := ws.Get(pin, "PinId"); !v.Equal(intVal(42)) {
		t.Errorf("workspace read = %s", v)
	}
	if v, _ := m.store.GetAttr(pin, "PinId"); !v.Equal(intVal(1)) {
		t.Errorf("database must be untouched before checkin, got %s", v)
	}
	// Unedited attributes read through to the database.
	if v, _ := ws.Get(pin, "InOut"); !domain.IsNull(v) {
		t.Errorf("read-through = %s", v)
	}
	if err := ws.Set(9999, "X", intVal(1)); err == nil {
		t.Error("edit of non-checked-out object accepted")
	}

	if err := ws.Checkin(); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.store.GetAttr(pin, "PinId"); !v.Equal(intVal(42)) {
		t.Errorf("checkin must publish edits, got %s", v)
	}
	if len(checkedOut(ws)) != 0 {
		t.Error("workspace should be empty after checkin")
	}
}

func TestWorkspaceCheckinConflict(t *testing.T) {
	m := gateManager(t)
	sur, _ := m.store.NewObject(paperschema.TypePin, "")
	ws := m.NewWorkspace("a")
	if err := ws.Checkout(sur); err != nil {
		t.Fatal(err)
	}
	if err := ws.Set(sur, "PinId", intVal(1)); err != nil {
		t.Fatal(err)
	}
	// A concurrent change lands in the database.
	if err := m.store.SetAttr(sur, "PinId", intVal(7)); err != nil {
		t.Fatal(err)
	}
	err := ws.Checkin()
	if !errors.Is(err, ErrCheckinConflict) {
		t.Fatalf("checkin should conflict, got %v", err)
	}
	// Nothing was written; the workspace still holds the edits.
	if v, _ := m.store.GetAttr(sur, "PinId"); !v.Equal(intVal(7)) {
		t.Errorf("conflicting checkin must not write, got %s", v)
	}
	if len(checkedOut(ws)) != 1 {
		t.Error("workspace should keep state after conflict")
	}
	ws.Revert()
	if len(checkedOut(ws)) != 0 {
		t.Error("revert should clear the workspace")
	}
}

func TestWorkspaceParallelDesigners(t *testing.T) {
	// Two designers check out disjoint objects: both checkins succeed.
	m := gateManager(t)
	a, _ := m.store.NewObject(paperschema.TypePin, "")
	b, _ := m.store.NewObject(paperschema.TypePin, "")
	wa, wb := m.NewWorkspace("a"), m.NewWorkspace("b")
	if err := wa.Checkout(a); err != nil {
		t.Fatal(err)
	}
	if err := wb.Checkout(b); err != nil {
		t.Fatal(err)
	}
	if err := wa.Set(a, "PinId", intVal(1)); err != nil {
		t.Fatal(err)
	}
	if err := wb.Set(b, "PinId", intVal(2)); err != nil {
		t.Fatal(err)
	}
	if err := wa.Checkin(); err != nil {
		t.Fatal(err)
	}
	if err := wb.Checkin(); err != nil {
		t.Fatal(err)
	}
	va, _ := m.store.GetAttr(a, "PinId")
	vb, _ := m.store.GetAttr(b, "PinId")
	if !va.Equal(intVal(1)) || !vb.Equal(intVal(2)) {
		t.Errorf("published values = %s, %s", va, vb)
	}
}

func TestPotentialConflicts(t *testing.T) {
	// §6: relationships identify potential conflicts between transactions.
	m := gateManager(t)
	_, iface, impl, user := buildComposite(t, m)

	// impl and iface are related by a binding: write sets {impl} and
	// {iface} potentially conflict.
	pcs := PotentialConflicts(m.store, []domain.Surrogate{impl}, []domain.Surrogate{iface})
	if len(pcs) != 1 || pcs[0].A != impl || pcs[0].B != iface {
		t.Errorf("conflicts = %+v", pcs)
	}
	// user relates to impl through SomeOf_Gate.
	pcs = PotentialConflicts(m.store, []domain.Surrogate{user}, []domain.Surrogate{impl})
	if len(pcs) != 1 {
		t.Errorf("user/impl conflicts = %+v", pcs)
	}
	// Same object in both sets is a direct conflict.
	pcs = PotentialConflicts(m.store, []domain.Surrogate{impl}, []domain.Surrogate{impl})
	if len(pcs) == 0 {
		t.Error("shared object should conflict")
	}
	// Unrelated objects don't conflict.
	lone, _ := m.store.NewObject(paperschema.TypePin, "")
	pcs = PotentialConflicts(m.store, []domain.Surrogate{lone}, []domain.Surrogate{iface})
	if len(pcs) != 0 {
		t.Errorf("unrelated conflicts = %+v", pcs)
	}
}

func TestRelatedObjects(t *testing.T) {
	m := gateManager(t)
	s := m.store
	rootI, _ := s.NewObject(paperschema.TypeGateInterfaceI, "")
	p1, _ := s.NewSubobject(rootI, "Pins")
	p2, _ := s.NewSubobject(rootI, "Pins")
	w, err := s.Relate(paperschema.TypeWire, map[string]domain.Value{
		"Pin1": domain.Ref(p1), "Pin2": domain.Ref(p2),
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = w
	rel := RelatedObjects(s, p1)
	// p1 relates to p2 (co-participant) and rootI (parent).
	want := map[domain.Surrogate]bool{p2: true, rootI: true}
	if len(rel) != 2 {
		t.Fatalf("related = %v", rel)
	}
	for _, r := range rel {
		if !want[r] {
			t.Errorf("unexpected relation %v", r)
		}
	}
}
