package cadcam

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"time"

	"cadcam/internal/object"
	"cadcam/internal/oplog"
	"cadcam/internal/paperschema"
	"cadcam/internal/version"
	"cadcam/internal/wal"
)

// TestSnapshotExportMatchesTruncatedReplay is the MVCC determinism
// oracle: a snapshot pinned at sequence S in the middle of a concurrent
// (failure-free) workload must export byte-for-byte the state that a
// serial replay of the journal truncated at S produces.
func TestSnapshotExportMatchesTruncatedReplay(t *testing.T) {
	dir := t.TempDir()
	db := diskDB(t, dir)
	_, iface, impl := buildGateScene(t, db)

	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 150; i++ {
			_ = db.SetAttr(iface, "Length", Int(int64(i)))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 150; i++ {
			_ = db.SetAttr(impl, "TimeBehavior", Int(int64(i)))
			if i%10 == 0 {
				_ = db.Acknowledge(paperschema.RelAllOfGateInterface, impl)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			sur, err := db.NewObject(paperschema.TypeGateInterface, "")
			if err != nil {
				t.Errorf("NewObject: %v", err)
				return
			}
			_ = db.SetAttr(sur, "Width", Int(int64(i)))
		}
	}()

	time.Sleep(5 * time.Millisecond)
	sn := db.Store().Snapshot()
	S := sn.Seq()
	pinned := sn.Export()
	sn.Release()
	wg.Wait()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Truncate the journal at S: keep exactly the sequenced ops at or
	// below the pin (cross-shard appends may be out of order in the log;
	// the per-op sequence is the truncation criterion, not file order).
	// The whole journal decodes first: a kept op's names and Seq delta
	// refer to records that may be dropped.
	sc, err := ScanJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Store != nil {
		t.Fatal("unexpected checkpoint in fresh directory")
	}
	var kept []*oplog.Op
	var names oplog.Decoder
	for _, rec := range sc.Records {
		op, err := names.Decode(rec)
		if err != nil {
			t.Fatal(err)
		}
		if op != nil && op.Seq > 0 && op.Seq <= S {
			kept = append(kept, op)
		}
	}

	fresh, err := object.NewStore(paperschema.MustGates())
	if err != nil {
		t.Fatal(err)
	}
	vm := version.NewManager(fresh)
	if err := wal.Replay(kept, fresh, vm); err != nil {
		t.Fatal(err)
	}
	replayed := fresh.Export()

	a := wal.EncodeSnapshot(pinned, vm.Export())
	b := wal.EncodeSnapshot(replayed, vm.Export())
	if !bytes.Equal(a, b) {
		t.Fatalf("snapshot export at seq %d differs from truncated serial replay:\nsnapshot: %+v\nreplayed: %+v", S, pinned, replayed)
	}
}

// TestSnapshotViewPinnedTraversals pins a SnapshotView and checks the
// high-level traversals stay at the pin while the live database moves.
func TestSnapshotViewPinnedTraversals(t *testing.T) {
	db := memDB(t)
	rootI, iface, impl := buildGateScene(t, db)

	// One permeable update leaves impl with a pending adaptation.
	if err := db.SetAttr(iface, "Length", Int(5)); err != nil {
		t.Fatal(err)
	}
	wantPortions, err := db.VisibleComponents(impl)
	if err != nil {
		t.Fatal(err)
	}
	wantExp, err := db.Expand(impl)
	if err != nil {
		t.Fatal(err)
	}
	wantAnc := db.Ancestors(impl)
	wantPending := db.PendingAdaptations()
	if len(wantPending) == 0 {
		t.Fatal("expected a pending adaptation before the pin")
	}

	v := db.SnapshotView()
	defer v.Release()

	// Move the live database: acknowledge, unbind, mutate, create.
	if err := db.Acknowledge(paperschema.RelAllOfGateInterface, impl); err != nil {
		t.Fatal(err)
	}
	if err := db.Unbind(paperschema.RelAllOfGateInterface, impl); err != nil {
		t.Fatal(err)
	}
	if err := db.SetAttr(iface, "Length", Int(9)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.NewObject(paperschema.TypeGateInterface, ""); err != nil {
		t.Fatal(err)
	}

	if got, err := v.VisibleComponents(impl); err != nil || !reflect.DeepEqual(got, wantPortions) {
		t.Errorf("pinned VisibleComponents = %+v, %v; want %+v", got, err, wantPortions)
	}
	if got, err := v.Expand(impl); err != nil || !reflect.DeepEqual(got, wantExp) {
		t.Errorf("pinned Expand differs: %+v, %v", got, err)
	}
	if got := v.Ancestors(impl); !reflect.DeepEqual(got, wantAnc) {
		t.Errorf("pinned Ancestors = %v, want %v", got, wantAnc)
	}
	if got := v.PendingAdaptations(); !reflect.DeepEqual(got, wantPending) {
		t.Errorf("pinned PendingAdaptations = %+v, want %+v", got, wantPending)
	}
	if got := db.PendingAdaptations(); len(got) != 0 {
		t.Errorf("live PendingAdaptations = %+v, want none", got)
	}
	if got, _ := v.GetAttr(impl, "Length"); !got.Equal(Int(5)) {
		t.Errorf("pinned inherited Length = %s, want 5", got)
	}
	if got, _ := v.Members(rootI, "Pins"); len(got) != 3 {
		t.Errorf("pinned Pins = %v, want 3", got)
	}
	if v.Seq() == 0 {
		t.Error("pinned Seq = 0")
	}
}

// TestCheckpointLockHoldStat checks satellite telemetry: a checkpoint
// records how long it held the store-exclusive lock, and the hold covers
// only the journal rotation (the export happens on the MVCC snapshot).
func TestCheckpointLockHoldStat(t *testing.T) {
	dir := t.TempDir()
	db := diskDB(t, dir)
	defer db.Close()
	buildGateScene(t, db)

	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats().Checkpoint
	if st.LockHoldNs <= 0 {
		t.Fatalf("LockHoldNs = %d, want > 0", st.LockHoldNs)
	}
	if st.MaxLockHoldNs < st.LockHoldNs {
		t.Fatalf("MaxLockHoldNs = %d < LockHoldNs = %d", st.MaxLockHoldNs, st.LockHoldNs)
	}
	if st.Checkpoints != 1 {
		t.Fatalf("Checkpoints = %d, want 1", st.Checkpoints)
	}
}

// TestCheckpointUnderWritersRecovers checkpoints in the middle of a
// concurrent write storm (exercising the snapshot-pinned export path)
// and verifies the recovered state is byte-identical to the live state.
func TestCheckpointUnderWritersRecovers(t *testing.T) {
	dir := t.TempDir()
	db := diskDB(t, dir)
	_, iface, impl := buildGateScene(t, db)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = db.SetAttr(iface, "Length", Int(int64(i)))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = db.SetAttr(impl, "TimeBehavior", Int(int64(i)))
		}
	}()
	for i := 0; i < 3; i++ {
		time.Sleep(2 * time.Millisecond)
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()

	before := db.Store().Export()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := diskDB(t, dir)
	defer db2.Close()
	after := db2.Store().Export()

	vs := version.NewManager(db2.Store()).Export()
	if !bytes.Equal(wal.EncodeSnapshot(before, vs), wal.EncodeSnapshot(after, vs)) {
		t.Fatal("recovered state differs from pre-close state")
	}
	if bad := db2.Store().CheckInvariants(); len(bad) != 0 {
		t.Fatalf("invariants after recovery: %v", bad)
	}
}
