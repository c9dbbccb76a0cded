package txn

import (
	"errors"
	"slices"
	"testing"
	"time"

	"cadcam/internal/domain"
	"cadcam/internal/inherit"
	"cadcam/internal/object"
	"cadcam/internal/paperschema"
)

func intVal(n int64) domain.Value  { return domain.Int(n) }
func symVal(s string) domain.Value { return domain.Sym(s) }

// buildComposite creates interface -> implementation (+ a user through
// SomeOf_Gate) directly on the store, outside any transaction.
func buildComposite(t *testing.T, m *Manager) (rootI, iface, impl, user domain.Surrogate) {
	t.Helper()
	s := m.store
	must := func(sur domain.Surrogate, err error) domain.Surrogate {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return sur
	}
	rootI = must(s.NewObject(paperschema.TypeGateInterfaceI, ""))
	pin := must(s.NewSubobject(rootI, "Pins"))
	if err := s.SetAttr(pin, "InOut", symVal("IN")); err != nil {
		t.Fatal(err)
	}
	iface = must(s.NewObject(paperschema.TypeGateInterface, ""))
	if _, err := s.Bind(paperschema.RelAllOfGateInterfaceI, iface, rootI); err != nil {
		t.Fatal(err)
	}
	if err := s.SetAttr(iface, "Length", intVal(4)); err != nil {
		t.Fatal(err)
	}
	impl = must(s.NewObject(paperschema.TypeGateImplementation, ""))
	if _, err := s.Bind(paperschema.RelAllOfGateInterface, impl, iface); err != nil {
		t.Fatal(err)
	}
	if err := s.SetAttr(impl, "TimeBehavior", intVal(7)); err != nil {
		t.Fatal(err)
	}
	user = must(s.NewObject(paperschema.TypeTimedComposite, ""))
	if _, err := s.Bind(paperschema.RelSomeOfGate, user, impl); err != nil {
		t.Fatal(err)
	}
	return rootI, iface, impl, user
}

func TestCommitAndAbortSemantics(t *testing.T) {
	m := gateManager(t)
	tx := m.Begin("")
	sur, err := tx.NewObject(paperschema.TypePin, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.SetAttr(sur, "PinId", intVal(5)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if !m.store.Exists(sur) {
		t.Fatal("committed object missing")
	}
	if tx.State() != StateCommitted {
		t.Error("state should be committed")
	}
	// Operations on a finished txn fail.
	if err := tx.SetAttr(sur, "PinId", intVal(6)); !errors.Is(err, ErrTxnDone) {
		t.Errorf("op after commit: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Errorf("double commit: %v", err)
	}

	// Abort rolls back attribute writes and creations, in reverse order.
	tx2 := m.Begin("")
	sur2, err := tx2.NewObject(paperschema.TypePin, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := tx2.SetAttr(sur, "PinId", intVal(99)); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	if m.store.Exists(sur2) {
		t.Error("aborted creation must disappear")
	}
	if v, _ := m.store.GetAttr(sur, "PinId"); !v.Equal(intVal(5)) {
		t.Errorf("aborted write must restore before-image, got %s", v)
	}
	if tx2.State() != StateAborted {
		t.Error("state should be aborted")
	}
}

func TestDeferredDelete(t *testing.T) {
	m := gateManager(t)
	sur, _ := m.store.NewObject(paperschema.TypePin, "")
	tx := m.Begin("")
	if err := tx.Delete(sur); err != nil {
		t.Fatal(err)
	}
	if !m.store.Exists(sur) {
		t.Fatal("delete must be deferred to commit")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if m.store.Exists(sur) {
		t.Error("object should be deleted at commit")
	}
	// Abort discards the pending delete.
	sur2, _ := m.store.NewObject(paperschema.TypePin, "")
	tx2 := m.Begin("")
	if err := tx2.Delete(sur2); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	if !m.store.Exists(sur2) {
		t.Error("aborted delete must leave the object")
	}
	// A deferred delete that fails (transmitter with inheritors under
	// Restrict) aborts the commit.
	_, iface, _, _ := buildComposite(t, m)
	tx3 := m.Begin("")
	if err := tx3.Delete(iface); err != nil {
		t.Fatal(err)
	}
	if err := tx3.Commit(); err == nil {
		t.Fatal("commit with restricted delete should fail")
	}
	if tx3.State() != StateAborted {
		t.Error("failed commit should abort")
	}
	if !m.store.Exists(iface) {
		t.Error("restricted delete must not happen")
	}
}

func TestTxnBindAndRelate(t *testing.T) {
	m := gateManager(t)
	s := m.store
	rootI, _ := s.NewObject(paperschema.TypeGateInterfaceI, "")
	p1, _ := s.NewSubobject(rootI, "Pins")
	p2, _ := s.NewSubobject(rootI, "Pins")

	iface, _ := s.NewObject(paperschema.TypeGateInterface, "")
	tx := m.Begin("")
	if _, err := tx.Bind(paperschema.RelAllOfGateInterfaceI, iface, rootI); err != nil {
		t.Fatal(err)
	}
	// Bound within the txn: visible through it.
	pins, err := tx.Members(iface, "Pins")
	if err != nil || len(pins) != 2 {
		t.Fatalf("pins in txn = %v, %v", pins, err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	// Abort unbinds.
	if tr := s.TransmitterOf(iface, paperschema.RelAllOfGateInterfaceI); tr != 0 {
		t.Error("aborted bind must be undone")
	}

	// Relate under txn with undo.
	tx2 := m.Begin("")
	w, err := tx2.Relate(paperschema.TypeWire, object.Participants{
		"Pin1": domain.Ref(p1), "Pin2": domain.Ref(p2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	if s.Exists(w) {
		t.Error("aborted relate must be undone")
	}

	// NewSubobject under txn.
	tx3 := m.Begin("")
	p3, err := tx3.NewSubobject(rootI, "Pins")
	if err != nil {
		t.Fatal(err)
	}
	if err := tx3.Abort(); err != nil {
		t.Fatal(err)
	}
	if s.Exists(p3) {
		t.Error("aborted subobject must be undone")
	}
}

func TestLockInheritance(t *testing.T) {
	// Experiment E9 (§6): accessing inherited data of a composite
	// read-locks the visible portion of the component, so a writer of
	// that portion blocks; a writer of an invisible portion does not.
	m := gateManager(t)
	_, iface, impl, _ := buildComposite(t, m)

	reader := m.Begin("")
	// Length resolves impl -> iface: both portions S-locked.
	if _, err := reader.GetAttr(impl, "Length"); err != nil {
		t.Fatal(err)
	}
	held := reader.HeldLocks()
	if held[impl] != S || held[iface] != S {
		t.Fatalf("lock inheritance: held = %v", held)
	}

	// Writer of the visible portion (iface.Length) blocks.
	writer := m.Begin("")
	blocked := make(chan error, 1)
	go func() { blocked <- writer.SetAttr(iface, "Length", intVal(9)) }()
	select {
	case err := <-blocked:
		t.Fatalf("visible-portion writer should block, got %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	// Writer of an *invisible* portion of the implementation proceeds:
	// Function is not permeable through SomeOf_Gate or the interface rel.
	writer2 := m.Begin("")
	free := make(chan error, 1)
	go func() {
		free <- writer2.SetAttr(impl, "Function", domain.NewMatrix(1, 1, domain.Bool(true)))
	}()
	select {
	case err := <-free:
		if err != nil {
			t.Fatalf("invisible-portion writer: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("invisible-portion writer blocked")
	}
	if err := writer2.Commit(); err != nil {
		t.Fatal(err)
	}

	// Release the reader; the blocked writer proceeds.
	if err := reader.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-blocked; err != nil {
		t.Fatalf("writer after release: %v", err)
	}
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestLockInheritanceThroughChain(t *testing.T) {
	// Reading user.Length locks user, impl, iface (three-hop chain).
	m := gateManager(t)
	_, iface, impl, user := buildComposite(t, m)
	reader := m.Begin("")
	if _, err := reader.GetAttr(user, "Length"); err != nil {
		t.Fatal(err)
	}
	held := reader.HeldLocks()
	for _, sur := range []domain.Surrogate{user, impl, iface} {
		if held[sur] != S {
			t.Errorf("chain member %s not S-locked: %v", sur, held)
		}
	}
	// Members lock the chain too: user.Pins walks to rootI.
	if _, err := reader.Members(user, "Pins"); err != nil {
		t.Fatal(err)
	}
	if err := reader.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestAccessControl(t *testing.T) {
	m := gateManager(t)
	sur, _ := m.store.NewObject(paperschema.TypePin, "")
	m.Access().Grant("eve", sur, RightRead)

	// eve cannot write the pin; alice can.
	eve := m.Begin("eve")
	if err := eve.SetAttr(sur, "PinId", intVal(1)); !errors.Is(err, ErrLockAccess) {
		t.Errorf("read-only write: %v", err)
	}
	if err := eve.Abort(); err != nil {
		t.Fatal(err)
	}
	alice := m.Begin("alice")
	if err := alice.SetAttr(sur, "PinId", intVal(1)); err != nil {
		t.Fatal(err)
	}
	if err := alice.Commit(); err != nil {
		t.Fatal(err)
	}

	// Global per-object default (empty user).
	other, _ := m.store.NewObject(paperschema.TypePin, "")
	m.Access().Grant("", other, RightRead)
	if m.Access().MayUpdate("bob", other) {
		t.Error("global per-object right should cap bob")
	}
	if got := m.Access().RightOf("eve", sur); got != RightRead {
		t.Errorf("RightOf = %v", got)
	}
	// CapMode behaviour.
	if got := m.Access().CapMode("eve", sur, X); got != S {
		t.Errorf("CapMode(X) = %v", got)
	}
	if got := m.Access().CapMode("eve", sur, IX); got != IS {
		t.Errorf("CapMode(IX) = %v", got)
	}
	if got := m.Access().CapMode("eve", sur, S); got != S {
		t.Errorf("CapMode(S) = %v", got)
	}
	if got := m.Access().CapMode("alice", sur, X); got != X {
		t.Errorf("CapMode for updater = %v", got)
	}
}

func TestLockExpansion(t *testing.T) {
	// Experiment E10 (§6): expansion locking with access-control capping.
	m := gateManager(t)
	rootI, iface, impl, user := buildComposite(t, m)
	// The interface hierarchy is a shared "standard cell": normal users
	// may only read it.
	m.Access().Grant("designer", iface, RightRead)
	m.Access().Grant("designer", rootI, RightRead)

	tx := m.Begin("designer")
	el, err := tx.LockExpansion(user, X)
	if err != nil {
		t.Fatal(err)
	}
	if el.Root != user {
		t.Errorf("root = %v", el.Root)
	}
	held := tx.HeldLocks()
	// Own subtree exclusively locked.
	if held[user] != X {
		t.Errorf("user lock = %v", held[user])
	}
	// impl is updatable by the designer: X (capped only by rights).
	if held[impl] != X {
		t.Errorf("impl lock = %v", held[impl])
	}
	// The standard cells come out read-locked although X was requested.
	if held[iface] != S || held[rootI] != S {
		t.Errorf("standard cells: iface=%v rootI=%v", held[iface], held[rootI])
	}
	// The report reflects the caps.
	modes := map[domain.Surrogate]Mode{}
	for _, p := range el.Portions {
		modes[p.Object] = p.Mode
	}
	if modes[iface] != S || modes[impl] != X {
		t.Errorf("portion modes = %v", modes)
	}

	// A concurrent writer of the read-locked portion blocks; after the
	// expansion holder commits, it proceeds.
	w := m.Begin("")
	blocked := make(chan error, 1)
	go func() { blocked <- w.SetAttr(iface, "Length", intVal(10)) }()
	select {
	case err := <-blocked:
		t.Fatalf("writer should block on expansion portion, got %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-blocked; err != nil {
		t.Fatalf("writer after expansion release: %v", err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestLockExpansionErrors(t *testing.T) {
	m := gateManager(t)
	tx := m.Begin("")
	if _, err := tx.LockExpansion(9999, S); err == nil {
		t.Error("expansion of missing object should fail")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.LockExpansion(1, S); !errors.Is(err, ErrTxnDone) {
		t.Errorf("expansion on finished txn: %v", err)
	}
}

// TestExpansionConcurrentInsert runs a writer between LockExpansion's walk
// and its locks: it adds a subobject to the composite and binds it to a
// component interface. Both must come out locked and reported — the
// subobject in the full mode, the new component's portion capped.
func TestExpansionConcurrentInsert(t *testing.T) {
	m := gateManager(t)
	_, _, impl, _ := buildComposite(t, m)
	comp, err := m.store.NewObject(paperschema.TypeGateInterface, "")
	if err != nil {
		t.Fatal(err)
	}
	m.Access().Grant("designer", comp, RightRead)
	var sub domain.Surrogate
	m.step = func(point string) {
		if point != "expansion/walked" || sub != 0 {
			return
		}
		if sub, err = m.store.NewSubobject(impl, "SubGates"); err != nil {
			t.Error(err)
			return
		}
		if _, err := m.store.Bind(paperschema.RelAllOfGateInterface, sub, comp); err != nil {
			t.Error(err)
		}
	}
	tx := m.Begin("designer")
	el, err := tx.LockExpansion(impl, X)
	if err != nil {
		t.Fatal(err)
	}
	if sub == 0 {
		t.Fatal("the step hook never ran")
	}
	held := tx.HeldLocks()
	if held[sub] != X {
		t.Errorf("subobject %v added mid-expansion holds %v, want X", sub, held[sub])
	}
	if !slices.Contains(el.Own, sub) {
		t.Errorf("Own = %v lacks the subobject %v", el.Own, sub)
	}
	if held[comp] != S {
		t.Errorf("component %v bound mid-expansion holds %v, want S", comp, held[comp])
	}
	want, err := inherit.VisibleComponents(m.store.View, impl)
	if err != nil {
		t.Fatal(err)
	}
	if len(el.Portions) != len(want) {
		t.Fatalf("Portions = %v, want one per %v", el.Portions, want)
	}
	for i, p := range want {
		if got := el.Portions[i]; got.Object != p.Object || got.Rel != p.Rel {
			t.Errorf("Portions[%d] = %v/%s, want %v/%s", i, got.Object, got.Rel, p.Object, p.Rel)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestHeldLocksStrongestMode(t *testing.T) {
	m := gateManager(t)
	sur, _ := m.store.NewObject(paperschema.TypePin, "")
	tx := m.Begin("")
	if _, err := tx.GetAttr(sur, "PinId"); err != nil {
		t.Fatal(err)
	}
	if err := tx.SetAttr(sur, "PinId", intVal(1)); err != nil {
		t.Fatal(err)
	}
	if got := tx.HeldLocks()[sur]; got != X {
		t.Errorf("strongest mode = %v", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}
