package cadcam

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"cadcam/internal/fault"
	"cadcam/internal/object"
	"cadcam/internal/paperschema"
	"cadcam/internal/version"
)

func memDB(t *testing.T) *Database {
	t.Helper()
	db, err := OpenMemory(paperschema.MustGates())
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func diskDB(t *testing.T, dir string) *Database {
	t.Helper()
	db, err := Open(paperschema.MustGates(), Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// buildGateScene creates the standard rig through the public API and
// returns the surrogates.
func buildGateScene(t *testing.T, db *Database) (rootI, iface, impl Surrogate) {
	t.Helper()
	must := func(sur Surrogate, err error) Surrogate {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return sur
	}
	if err := db.DefineClass("Roots", paperschema.TypeGateInterfaceI); err != nil {
		t.Fatal(err)
	}
	rootI = must(db.NewObject(paperschema.TypeGateInterfaceI, "Roots"))
	for i := 0; i < 3; i++ {
		pin := must(db.NewSubobject(rootI, "Pins"))
		dir := "IN"
		if i == 2 {
			dir = "OUT"
		}
		if err := db.SetAttr(pin, "InOut", Sym(dir)); err != nil {
			t.Fatal(err)
		}
	}
	iface = must(db.NewObject(paperschema.TypeGateInterface, ""))
	if _, err := db.Bind(paperschema.RelAllOfGateInterfaceI, iface, rootI); err != nil {
		t.Fatal(err)
	}
	if err := db.SetAttr(iface, "Length", Int(4)); err != nil {
		t.Fatal(err)
	}
	impl = must(db.NewObject(paperschema.TypeGateImplementation, ""))
	if _, err := db.Bind(paperschema.RelAllOfGateInterface, impl, iface); err != nil {
		t.Fatal(err)
	}
	if err := db.SetAttr(impl, "TimeBehavior", Int(7)); err != nil {
		t.Fatal(err)
	}
	return rootI, iface, impl
}

func TestInMemoryBasics(t *testing.T) {
	db := memDB(t)
	defer db.Close()
	_, iface, impl := buildGateScene(t, db)

	// Inherited read through the facade.
	v, err := db.GetAttr(impl, "Length")
	if err != nil || !v.Equal(Int(4)) {
		t.Errorf("GetAttr = %v, %v", v, err)
	}
	pins, err := db.Members(impl, "Pins")
	if err != nil || len(pins) != 3 {
		t.Errorf("Members = %v, %v", pins, err)
	}
	// Query API.
	q, err := db.Eval(impl, "count(Pins) = 3 and Length = 4")
	if err != nil || !q.Equal(Bool(true)) {
		t.Errorf("Eval = %v, %v", q, err)
	}
	qc, err := db.EvalClass("count(Roots) = 1")
	if err != nil || !qc.Equal(Bool(true)) {
		t.Errorf("EvalClass = %v, %v", qc, err)
	}
	if _, err := db.Eval(impl, "count("); err == nil {
		t.Error("bad query should fail")
	}
	if _, err := db.EvalClass("count("); err == nil {
		t.Error("bad class query should fail")
	}
	// Inheritance utilities.
	if anc := db.Ancestors(impl); len(anc) != 2 || anc[0] != iface {
		t.Errorf("Ancestors = %v", anc)
	}
	if desc := db.Descendants(iface); len(desc) != 1 || desc[0] != impl {
		t.Errorf("Descendants = %v", desc)
	}
	exp, err := db.Expand(impl)
	if err != nil || exp.Size() < 3 {
		t.Errorf("Expand = %v, %v", exp, err)
	}
	if _, err := db.VisibleComponents(impl); err != nil {
		t.Errorf("VisibleComponents: %v", err)
	}
	// Adaptation flow.
	if err := db.SetAttr(iface, "Width", Int(2)); err != nil {
		t.Fatal(err)
	}
	if p := db.PendingAdaptations(); len(p) != 1 {
		t.Errorf("pending = %v", p)
	}
	if err := db.Acknowledge(paperschema.RelAllOfGateInterface, impl); err != nil {
		t.Fatal(err)
	}
	if p := db.PendingAdaptations(); len(p) != 0 {
		t.Errorf("pending after ack = %v", p)
	}
	// Binding accessors.
	if b, ok := db.BindingOf(impl, paperschema.RelAllOfGateInterface); !ok || b.Transmitter != iface {
		t.Error("BindingOf failed")
	}
	if tr := db.TransmitterOf(impl, paperschema.RelAllOfGateInterface); tr != iface {
		t.Error("TransmitterOf failed")
	}
	// Constraint checks.
	if v := db.CheckAll(); len(v) != 0 {
		t.Errorf("violations: %v", v)
	}
	if _, err := db.CheckConstraints(impl); err != nil {
		t.Errorf("CheckConstraints: %v", err)
	}
	// Unbind and delete.
	if err := db.Unbind(paperschema.RelAllOfGateInterface, impl); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(impl); err != nil {
		t.Fatal(err)
	}
	if db.Exists(impl) {
		t.Error("deleted object lingers")
	}
	if tn, _ := db.TypeOf(iface); tn != paperschema.TypeGateInterface {
		t.Errorf("TypeOf = %q", tn)
	}
	if err := db.Err(); err != nil {
		t.Errorf("journal error on in-memory db: %v", err)
	}
}

func TestDurabilityAcrossReopen(t *testing.T) {
	// Experiment E12: everything survives close/reopen via the journal.
	dir := t.TempDir()
	db := diskDB(t, dir)
	rootI, iface, impl := buildGateScene(t, db)
	if err := db.DefineDesign("NAND", iface); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddVersion("NAND", impl, nil, ""); err != nil {
		t.Fatal(err)
	}
	if err := db.SetDefault("NAND", impl); err != nil {
		t.Fatal(err)
	}
	if err := db.SetStatus(impl, StatusReleased); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := diskDB(t, dir)
	defer db2.Close()
	// Same surrogates, same values, same bindings.
	if v, err := db2.GetAttr(impl, "Length"); err != nil || !v.Equal(Int(4)) {
		t.Errorf("recovered inherited read = %v, %v", v, err)
	}
	pins, _ := db2.Members(rootI, "Pins")
	if len(pins) != 3 {
		t.Errorf("recovered pins = %v", pins)
	}
	members, _ := db2.Class("Roots")
	if len(members) != 1 || members[0] != rootI {
		t.Errorf("recovered class = %v", members)
	}
	// Version state survived.
	got, err := db2.Resolve(GenericRef{Design: "NAND", Policy: SelectDefault}, nil)
	if err != nil || got != impl {
		t.Errorf("recovered default = %v, %v", got, err)
	}
	if info, ok := db2.Versions().InfoOf(impl); !ok || info.Status != StatusReleased {
		t.Error("recovered status wrong")
	}
	// New work continues with non-colliding surrogates.
	fresh, err := db2.NewObject(paperschema.TypePin, "")
	if err != nil {
		t.Fatal(err)
	}
	if fresh <= impl {
		t.Errorf("surrogate reuse: %v <= %v", fresh, impl)
	}
}

func TestCheckpointAndRecovery(t *testing.T) {
	dir := t.TempDir()
	db := diskDB(t, dir)
	rootI, iface, impl := buildGateScene(t, db)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint ops land in the new epoch's journal.
	if err := db.SetAttr(iface, "Width", Int(9)); err != nil {
		t.Fatal(err)
	}
	shards := db.Store().Shards() // a closed handle holds an empty store
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Exactly one manifest, one segment per shard (first checkpoint
	// encodes everything) and one wal file remain; no legacy snapshots.
	entries, _ := os.ReadDir(dir)
	var snaps, wals, mfs, segs int
	for _, e := range entries {
		switch filepath.Ext(e.Name()) {
		case ".snap":
			snaps++
		case ".log":
			wals++
		case ".mf":
			mfs++
		case ".seg":
			segs++
		}
	}
	if snaps != 0 || wals != 1 || mfs != 1 || segs != shards {
		t.Errorf("files after checkpoint: %d snaps, %d wals, %d manifests, %d segments",
			snaps, wals, mfs, segs)
	}

	db2 := diskDB(t, dir)
	defer db2.Close()
	if v, _ := db2.GetAttr(impl, "Width"); !v.Equal(Int(9)) {
		t.Errorf("post-checkpoint op lost: %v", v)
	}
	if v, _ := db2.GetAttr(impl, "Length"); !v.Equal(Int(4)) {
		t.Errorf("snapshot state lost: %v", v)
	}
	pins, _ := db2.Members(rootI, "Pins")
	if len(pins) != 3 {
		t.Error("snapshot pins lost")
	}
}

func TestCrashSimulationTornJournal(t *testing.T) {
	dir := t.TempDir()
	db := diskDB(t, dir)
	_, iface, _ := buildGateScene(t, db)
	if err := db.SetAttr(iface, "Width", Int(5)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the journal tail (simulated crash mid-append).
	walPath := filepath.Join(dir, "wal-00000000.log")
	info, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	db2 := diskDB(t, dir)
	defer db2.Close()
	// The torn op (the Width write) is gone; everything before survives.
	if v, _ := db2.GetAttr(iface, "Width"); !v.Equal(NullValue) {
		t.Errorf("torn write should be lost, got %v", v)
	}
	if v, _ := db2.GetAttr(iface, "Length"); !v.Equal(Int(4)) {
		t.Errorf("earlier writes must survive, got %v", v)
	}
}

func TestTxnCompensationInJournal(t *testing.T) {
	// An aborted transaction's compensation ops are journaled, so
	// recovery reproduces the post-abort state.
	dir := t.TempDir()
	db := diskDB(t, dir)
	_, iface, _ := buildGateScene(t, db)
	tx := db.Begin("")
	if err := tx.SetAttr(iface, "Length", Int(99)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := diskDB(t, dir)
	defer db2.Close()
	if v, _ := db2.GetAttr(iface, "Length"); !v.Equal(Int(4)) {
		t.Errorf("aborted write leaked into recovery: %v", v)
	}
}

func TestFrozenVersionWriteProtection(t *testing.T) {
	db := memDB(t)
	defer db.Close()
	_, iface, impl := buildGateScene(t, db)
	if err := db.DefineDesign("NAND", iface); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddVersion("NAND", impl, nil, ""); err != nil {
		t.Fatal(err)
	}
	if err := db.SetStatus(impl, StatusFrozen); err != nil {
		t.Fatal(err)
	}
	if err := db.SetAttr(impl, "TimeBehavior", Int(1)); !errors.Is(err, ErrFrozenVersion) {
		t.Errorf("frozen write: %v", err)
	}
	if err := db.Delete(impl); !errors.Is(err, ErrFrozenVersion) {
		t.Errorf("frozen delete: %v", err)
	}
	if err := db.Unbind(paperschema.RelAllOfGateInterface, impl); !errors.Is(err, ErrFrozenVersion) {
		t.Errorf("frozen unbind: %v", err)
	}
	// Transactions hit the same guard.
	tx := db.Begin("")
	if err := tx.SetAttr(impl, "TimeBehavior", Int(2)); !errors.Is(err, ErrFrozenVersion) {
		t.Errorf("frozen write in txn: %v", err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	// Other objects stay writable.
	if err := db.SetAttr(iface, "Width", Int(3)); err != nil {
		t.Errorf("unfrozen write: %v", err)
	}
}

func TestVersionOpsDurable(t *testing.T) {
	dir := t.TempDir()
	db := diskDB(t, dir)
	_, iface, impl := buildGateScene(t, db)
	if err := db.DefineDesign("NAND", iface); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddVersion("NAND", impl, nil, "lowpower"); err != nil {
		t.Fatal(err)
	}
	// Deleting the version object after registration: recovery must
	// tolerate the journal order (lenient version replay).
	if err := db.Delete(impl); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := diskDB(t, dir)
	defer db2.Close()
	if db2.Exists(impl) {
		t.Error("deleted version object recovered")
	}
}

func TestAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(paperschema.MustGates(), Options{Dir: dir, CheckpointEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if _, err := db.NewObject(paperschema.TypePin, ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// At least one auto-checkpoint happened: a manifest exists.
	entries, _ := os.ReadDir(dir)
	found := false
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".mf" {
			found = true
		}
	}
	if !found {
		t.Error("no checkpoint manifest after auto-checkpoint threshold")
	}
	db2 := diskDB(t, dir)
	defer db2.Close()
	if got := db2.Store().Len(); got != 25 {
		t.Errorf("recovered %d objects, want 25", got)
	}
}

// TestCorruptSnapshotFallsBack: a damaged newest manifest falls back to
// an older checkpoint when that one still loads completely, and the
// journal chain above it replays to the full state. The older checkpoint
// survives here because the newer checkpoint's garbage collection was
// skipped (the db/segment-gc failpoint). Without an older checkpoint,
// Open refuses instead (TestOpenUnreadableCheckpoint).
func TestCorruptSnapshotFallsBack(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	db := diskDB(t, dir)
	_, iface, impl := buildGateScene(t, db)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.SetAttr(iface, "Width", Int(7)); err != nil {
		t.Fatal(err)
	}
	if err := fault.Arm("db/segment-gc=error(gc skipped)@1"); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err == nil {
		t.Fatal("checkpoint with the GC failpoint armed reported no error")
	}
	fault.Reset()
	if err := db.SetAttr(iface, "Width", Int(8)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, ManifestFilename(2))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	db2 := diskDB(t, dir)
	defer db2.Close()
	if v, _ := db2.GetAttr(impl, "Width"); !v.Equal(Int(8)) {
		t.Errorf("Width after fallback = %v, want 8", v)
	}
	if got := db2.Stats().Recovery.ReplayOps; got != 2 {
		t.Errorf("fallback replayed %d ops, want 2 (the writes after checkpoint 1)", got)
	}
}

func TestOpenRejectsInvalidCatalog(t *testing.T) {
	cat := paperschema.MustGates()
	if _, err := Open(cat, Options{}); err != nil {
		t.Fatalf("valid catalog rejected: %v", err)
	}
}

func TestDeletePolicyOption(t *testing.T) {
	db, err := Open(paperschema.MustGates(), Options{DeletePolicy: object.DeleteUnbind})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	_, iface, impl := buildGateScene(t, db)
	if err := db.Delete(iface); err != nil {
		t.Fatalf("unbind policy should allow transmitter delete: %v", err)
	}
	if v, _ := db.GetAttr(impl, "Length"); !v.Equal(NullValue) {
		t.Error("detached inheritor should read null")
	}
}

func TestWorkspaceThroughFacade(t *testing.T) {
	db := memDB(t)
	defer db.Close()
	_, iface, _ := buildGateScene(t, db)
	ws := db.NewWorkspace("designer")
	if err := ws.Checkout(iface); err != nil {
		t.Fatal(err)
	}
	if err := ws.Set(iface, "Length", Int(11)); err != nil {
		t.Fatal(err)
	}
	if err := ws.Checkin(); err != nil {
		t.Fatal(err)
	}
	if v, _ := db.GetAttr(iface, "Length"); !v.Equal(Int(11)) {
		t.Errorf("workspace checkin lost: %v", v)
	}
}

func TestGenericReferenceThroughFacade(t *testing.T) {
	db := memDB(t)
	defer db.Close()
	_, iface, impl := buildGateScene(t, db)
	if err := db.DefineDesign("NAND", iface); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddVersion("NAND", impl, nil, ""); err != nil {
		t.Fatal(err)
	}
	if err := db.SetDefault("NAND", impl); err != nil {
		t.Fatal(err)
	}
	user, err := db.NewObject(paperschema.TypeTimedComposite, "")
	if err != nil {
		t.Fatal(err)
	}
	chosen, _, err := db.BindResolved(paperschema.RelSomeOfGate, user,
		GenericRef{Design: "NAND", Policy: SelectDefault}, nil)
	if err != nil || chosen != impl {
		t.Fatalf("BindResolved = %v, %v", chosen, err)
	}
	if v, _ := db.GetAttr(user, "TimeBehavior"); !v.Equal(Int(7)) {
		t.Errorf("resolved component read = %v", v)
	}
	// Environment-based selection via the facade.
	env := version.NewEnvironment("sim")
	env.Choose("NAND", impl)
	got, err := db.Resolve(GenericRef{Design: "NAND", Policy: SelectEnvironment}, env)
	if err != nil || got != impl {
		t.Errorf("Resolve(env) = %v, %v", got, err)
	}
}

func TestValueConstructors(t *testing.T) {
	if !Int(3).Equal(Real(3)) {
		t.Error("Int/Real equality")
	}
	r := NewRec("X", Int(1))
	if !r.(interface{ Get(string) Value }).Get("X").Equal(Int(1)) {
		t.Error("NewRec")
	}
	if NewList(Int(1)).Kind().String() != "list-of" {
		t.Error("NewList kind")
	}
	if NewSet(Int(1), Int(1)).(interface{ Len() int }).Len() != 1 {
		t.Error("NewSet dedupe")
	}
	m := NewMatrix(1, 1, Bool(true))
	if m.Kind().String() != "matrix-of" {
		t.Error("NewMatrix kind")
	}
	if RefOf(5) != Ref(5) {
		t.Error("RefOf")
	}
	if Str("a").Equal(Sym("a")) {
		t.Error("Str vs Sym must differ")
	}
}
