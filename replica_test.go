package cadcam

import (
	"errors"
	"testing"
	"time"

	"cadcam/internal/fault"
	"cadcam/internal/paperschema"
)

// TestAttachFollower: a replica attached through the facade tracks the
// primary and serves reads with the view API, including inheritance
// resolution.
func TestAttachFollower(t *testing.T) {
	dir := t.TempDir()
	db := diskDB(t, dir)
	defer db.Close()
	_, iface, impl := buildGateScene(t, db)

	f, err := db.AttachFollower(FollowerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.WaitCaughtUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// A fresh follower of an uncheckpointed journal streams the chain
	// instead of resyncing around it.
	if st := f.Stats(); st.Applied == 0 || st.Resyncs != 0 {
		t.Fatalf("fresh follower applied %d records with %d resyncs, want > 0 and 0", st.Applied, st.Resyncs)
	}

	view, err := f.SnapshotView()
	if err != nil {
		t.Fatal(err)
	}
	defer view.Release()
	if v, err := view.GetAttr(iface, "Length"); err != nil || !v.Equal(Int(4)) {
		t.Fatalf("replica GetAttr(Length) = %v, %v", v, err)
	}
	// Inherited read through the implementation's binding.
	if v, err := view.GetAttr(impl, "Length"); err != nil || !v.Equal(Int(4)) {
		t.Fatalf("replica inherited GetAttr = %v, %v", v, err)
	}

	// A write after the pin is invisible to the pinned view but visible
	// to a fresh bounded-staleness view.
	if err := db.SetAttr(iface, "Length", Int(9)); err != nil {
		t.Fatal(err)
	}
	if err := f.WaitCaughtUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if v, _ := view.GetAttr(iface, "Length"); !v.Equal(Int(4)) {
		t.Fatalf("pinned view moved: Length = %v", v)
	}
	fresh, err := f.SnapshotViewWithin(0)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Release()
	if v, _ := fresh.GetAttr(iface, "Length"); !v.Equal(Int(9)) {
		t.Fatalf("fresh view stale: Length = %v", v)
	}
	if f.Lag() != 0 {
		t.Fatalf("lag after catch-up: %d", f.Lag())
	}

	// Stats surface the shipper on the primary side.
	if st := db.Stats(); st.Repl == nil || st.Repl.BatchesShipped == 0 {
		t.Fatalf("Stats().Repl = %+v", st.Repl)
	}
}

// TestShipperRequiresDisk: an in-memory database has no journal chain
// to ship.
func TestShipperRequiresDisk(t *testing.T) {
	db := memDB(t)
	defer db.Close()
	if _, err := db.Shipper(); err == nil {
		t.Fatal("in-memory Shipper() succeeded")
	}
	if _, err := db.AttachFollower(FollowerOptions{}); err == nil {
		t.Fatal("in-memory AttachFollower() succeeded")
	}
}

// TestOpenFollowerCrossProcessShape: a follower opened against the
// directory alone (no Database handle) converges too — the shape a
// separate reader process uses.
func TestOpenFollowerCrossProcessShape(t *testing.T) {
	dir := t.TempDir()
	db := diskDB(t, dir)
	defer db.Close()
	_, iface, _ := buildGateScene(t, db)

	f, err := OpenFollower(paperschema.MustGates(), dir, FollowerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.WaitCaughtUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	view, err := f.SnapshotView()
	if err != nil {
		t.Fatal(err)
	}
	defer view.Release()
	if v, err := view.GetAttr(iface, "Length"); err != nil || !v.Equal(Int(4)) {
		t.Fatalf("cross-process replica read = %v, %v", v, err)
	}
}

// TestHealthProbe: the single health probe surfaces each sticky error
// class — checkpoint, WAL, replication — and recovers when they clear.
func TestHealthProbe(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	db := diskDB(t, dir)
	defer db.Close()
	_, iface, _ := buildGateScene(t, db)

	if h := db.Health(); !h.OK {
		t.Fatalf("healthy database reports %+v", h)
	}
	if st := db.Stats(); !st.Health.OK {
		t.Fatalf("Stats().Health = %+v", st.Health)
	}

	// Checkpoint failure: sticky, degraded, clears on the next success.
	if err := fault.Arm("db/manifest-swap=error(injected swap failure)@1"); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err == nil {
		t.Fatal("checkpoint should have failed")
	}
	h := db.Health()
	if h.OK || h.CheckpointErr == "" {
		t.Fatalf("failed checkpoint not surfaced: %+v", h)
	}
	if st := db.Stats(); st.Health.CheckpointErr == "" {
		t.Fatalf("Stats().Health missed checkpoint error: %+v", st.Health)
	}
	fault.Reset()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if h := db.Health(); !h.OK || h.CheckpointErr != "" {
		t.Fatalf("checkpoint error did not clear: %+v", h)
	}

	// Replication shipping failure: degraded, reported via ReplErr.
	if err := fault.Arm("repl/conn-drop=error(injected conn drop)@1"); err != nil {
		t.Fatal(err)
	}
	f, err := db.AttachFollower(FollowerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.WaitCaughtUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if h := db.Health(); h.OK == true || h.ReplErr == "" {
		t.Fatalf("shipping failure not surfaced: %+v", h)
	}
	fault.Reset()

	// WAL pipeline failure: fatal.
	boom := errors.New("disk on fire")
	db.committer.Fail(boom)
	h = db.Health()
	if h.OK || h.WALErr == "" {
		t.Fatalf("WAL poison not surfaced: %+v", h)
	}
	_ = iface
}
