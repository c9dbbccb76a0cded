package repl_test

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	cadcam "cadcam"
	"cadcam/internal/fault"
	"cadcam/internal/paperschema"
	"cadcam/internal/repl"
	"cadcam/internal/wal"
)

// primary opens a disk database for the replication tests.
func primary(t *testing.T, dir string) *cadcam.Database {
	t.Helper()
	db, err := cadcam.Open(paperschema.MustGates(), cadcam.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// writePins commits n pin objects with attributes and returns the last
// surrogate.
func writePins(t *testing.T, db *cadcam.Database, n int) cadcam.Surrogate {
	t.Helper()
	var last cadcam.Surrogate
	for i := 0; i < n; i++ {
		sur, err := db.NewObject(paperschema.TypePin, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := db.SetAttr(sur, "PinId", cadcam.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
		last = sur
	}
	return last
}

// exportEqual byte-compares the primary's live state against the
// follower's replica — the in-process divergence oracle.
func exportEqual(t *testing.T, db *cadcam.Database, f *repl.Follower) {
	t.Helper()
	st, vs, applied := f.Export()
	want := wal.EncodeSnapshot(db.Store().Export(), db.Versions().Export())
	got := wal.EncodeSnapshot(st, vs)
	if !bytes.Equal(got, want) {
		t.Fatalf("replica diverged from primary at applied seq %d (%d vs %d bytes)",
			applied, len(got), len(want))
	}
}

// follow attaches a follower to a shipper over the in-process pipe.
func follow(t *testing.T, s *repl.Shipper, cfg repl.FollowerConfig) *repl.Follower {
	t.Helper()
	cfg.Catalog = paperschema.MustGates()
	if cfg.Dial == nil {
		cfg.Dial = s.Dialer()
	}
	f, err := repl.NewFollower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestReplicateLiveDatabase: a follower attached to a live primary
// catches up, tracks further writes, and never diverges.
func TestReplicateLiveDatabase(t *testing.T) {
	dir := t.TempDir()
	db := primary(t, dir)
	defer db.Close()
	writePins(t, db, 40)

	s := repl.NewShipper(dir, repl.ShipperConfig{})
	f := follow(t, s, repl.FollowerConfig{})
	if err := f.WaitCaughtUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	exportEqual(t, db, f)

	// The replica serves reads at its applied sequence.
	view, err := f.View()
	if err != nil {
		t.Fatal(err)
	}
	defer view.Release()
	if got := f.Stats(); got.Applied == 0 || got.Lag != 0 {
		t.Fatalf("stats after catch-up: %+v", got)
	}

	// More writes while the session stays up: the incremental tail.
	writePins(t, db, 40)
	if err := f.WaitCaughtUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	exportEqual(t, db, f)
	if got := s.Stats(); got.BatchesShipped == 0 || got.RecordsShipped == 0 {
		t.Fatalf("shipper stats: %+v", got)
	}
}

// TestReplicateOverStream: the same convergence through the
// process-style byte-stream transport.
func TestReplicateOverStream(t *testing.T) {
	dir := t.TempDir()
	db := primary(t, dir)
	defer db.Close()
	writePins(t, db, 25)

	s := repl.NewShipper(dir, repl.ShipperConfig{})
	dial := func() (repl.Conn, error) {
		client, server := net.Pipe()
		go s.Serve(repl.StreamConn(server))
		return repl.StreamConn(client), nil
	}
	f := follow(t, s, repl.FollowerConfig{Dial: dial})
	if err := f.WaitCaughtUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	exportEqual(t, db, f)
}

// TestBoundedStaleness: a lagging replica refuses reads beyond the
// staleness bound with an explicit, typed error — never silently stale.
func TestBoundedStaleness(t *testing.T) {
	dir := t.TempDir()
	db := primary(t, dir)
	defer db.Close()
	writePins(t, db, 20) // 40 records, written before the follower attaches

	s := repl.NewShipper(dir, repl.ShipperConfig{})
	f := follow(t, s, repl.FollowerConfig{PauseAfter: 2})
	// Wait for the pause to take hold.
	deadline := time.Now().Add(5 * time.Second)
	for f.Applied() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("follower never reached pause point: %+v", f.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	st := f.Stats()
	if st.Sealed <= st.Applied {
		t.Fatalf("paused follower should observe a sealed horizon ahead: %+v", st)
	}
	if _, err := f.ViewWithin(0); !errors.Is(err, repl.ErrMaxLag) {
		t.Fatalf("ViewWithin(0) = %v, want ErrMaxLag", err)
	}
	var lagErr *repl.LagError
	if _, err := f.ViewWithin(1); !errors.As(err, &lagErr) {
		t.Fatalf("ViewWithin(1) = %v, want *LagError", err)
	} else if lagErr.Lag == 0 || lagErr.MaxLag != 1 {
		t.Fatalf("lag error fields: %+v", lagErr)
	}
	if view, err := f.ViewWithin(st.Sealed); err != nil {
		t.Fatalf("generous bound rejected: %v", err)
	} else {
		view.Release()
	}
	if view, err := f.View(); err != nil {
		t.Fatalf("unbounded view rejected: %v", err)
	} else {
		view.Release()
	}
}

// TestResyncAfterCheckpointGC: a follower whose position predates a
// checkpoint's journal GC resynchronizes from the manifest and still
// converges byte-identically.
func TestResyncAfterCheckpointGC(t *testing.T) {
	dir := t.TempDir()
	db := primary(t, dir)
	defer db.Close()
	writePins(t, db, 30)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	writePins(t, db, 10)

	s := repl.NewShipper(dir, repl.ShipperConfig{})
	f := follow(t, s, repl.FollowerConfig{})
	if err := f.WaitCaughtUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	exportEqual(t, db, f)
	if got := f.Stats(); got.Resyncs == 0 {
		t.Fatalf("fresh follower behind a GC'd journal must resync: %+v", got)
	}
	if got := s.Stats(); got.Snapshots == 0 {
		t.Fatalf("shipper never shipped a checkpoint: %+v", got)
	}
}

// TestResyncUnreadableCheckpoint: a primary whose only checkpoint has a
// damaged segment fails the resync session with ErrCheckpointUnreadable
// instead of sending a reset, which would empty the follower.
func TestResyncUnreadableCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db := primary(t, dir)
	writePins(t, db, 30)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, wal.SegmentFilename(1, 0))
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xFF
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}

	s := repl.NewShipper(dir, repl.ShipperConfig{})
	client, server := repl.Pipe()
	done := make(chan error, 1)
	go func() { done <- s.Serve(server) }()
	hello := repl.Frame{Kind: repl.KindHello, Flags: repl.FlagResync}
	if err := client.Send(hello.Encode()); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, wal.ErrCheckpointUnreadable) {
			t.Fatalf("Serve = %v, want ErrCheckpointUnreadable", err)
		}
	case <-time.After(5 * time.Second):
		client.Close()
		<-done
		t.Fatal("shipper kept serving a directory with an unreadable checkpoint")
	}
	if b, err := client.Recv(); err == nil {
		fr, _ := repl.DecodeFrame(b)
		t.Fatalf("shipper sent a frame (%+v) for an unreadable checkpoint", fr)
	}
	if st := s.Stats(); st.Snapshots != 0 {
		t.Fatalf("shipper counted %d snapshots", st.Snapshots)
	}
}

// TestTornSendRetries: a torn transport write is caught by the frame
// CRC; the follower reconnects and resumes from its applied position.
func TestTornSendRetries(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	db := primary(t, dir)
	defer db.Close()
	writePins(t, db, 15)

	if err := fault.Arm("repl/send-torn=error(injected torn send)@4"); err != nil {
		t.Fatal(err)
	}
	s := repl.NewShipper(dir, repl.ShipperConfig{})
	f := follow(t, s, repl.FollowerConfig{Backoff: repl.BackoffConfig{Base: time.Millisecond, Cap: 5 * time.Millisecond}})
	if err := f.WaitCaughtUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	exportEqual(t, db, f)
	st := f.Stats()
	if st.CorruptFrames == 0 {
		t.Fatalf("torn frame never detected: %+v", st)
	}
	if st.Connects < 2 {
		t.Fatalf("follower never reconnected: %+v", st)
	}
	if fault.Hits("repl/send-torn") == 0 {
		t.Fatal("failpoint never fired")
	}
}

// TestPartialBatchGapResyncs: records silently dropped from a batch
// (sequence advanced, payload short) are caught by the seq-gap check
// and healed by a resync — the replica converges anyway.
func TestPartialBatchGapResyncs(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	db := primary(t, dir)
	defer db.Close()
	writePins(t, db, 12)

	if err := fault.Arm("repl/send-partial=error(injected partial batch)@3"); err != nil {
		t.Fatal(err)
	}
	s := repl.NewShipper(dir, repl.ShipperConfig{})
	f := follow(t, s, repl.FollowerConfig{Backoff: repl.BackoffConfig{Base: time.Millisecond, Cap: 5 * time.Millisecond}})
	if err := f.WaitCaughtUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	exportEqual(t, db, f)
	st := f.Stats()
	if st.Gaps == 0 {
		t.Fatalf("dropped records never detected as a gap: %+v", st)
	}
	if st.Resyncs == 0 {
		t.Fatalf("gap did not trigger a resync: %+v", st)
	}
}

// TestConnDropReconnects: a dropped connection is retried under backoff
// and the session resumes where it left off.
func TestConnDropReconnects(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	db := primary(t, dir)
	defer db.Close()
	writePins(t, db, 15)

	if err := fault.Arm("repl/conn-drop=error(injected conn drop)@5"); err != nil {
		t.Fatal(err)
	}
	s := repl.NewShipper(dir, repl.ShipperConfig{})
	f := follow(t, s, repl.FollowerConfig{Backoff: repl.BackoffConfig{Base: time.Millisecond, Cap: 5 * time.Millisecond}})
	if err := f.WaitCaughtUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	exportEqual(t, db, f)
	st := f.Stats()
	if st.Connects < 2 || st.Retries == 0 {
		t.Fatalf("connection drop not retried: %+v", st)
	}
}

// TestApplierFaultResyncs: a follower that fails mid-batch (half the
// records applied) flags itself broken — reads error rather than serve
// a torn state — then resyncs and converges.
func TestApplierFaultResyncs(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	db := primary(t, dir)
	defer db.Close()
	writePins(t, db, 10)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	writePins(t, db, 10)

	if err := fault.Arm("repl/applier-crash=error(injected applier fault)@6"); err != nil {
		t.Fatal(err)
	}
	s := repl.NewShipper(dir, repl.ShipperConfig{})
	f := follow(t, s, repl.FollowerConfig{Backoff: repl.BackoffConfig{Base: time.Millisecond, Cap: 5 * time.Millisecond}})
	if err := f.WaitCaughtUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	exportEqual(t, db, f)
	if got := f.Stats(); got.Resyncs == 0 {
		t.Fatalf("applier fault did not force a resync: %+v", got)
	}
	if f.Err() != nil {
		t.Fatalf("sticky error survived a successful resync: %v", f.Err())
	}
}

// TestForcedResyncPath: the resync-gap failpoint pushes the session
// down the checkpoint-resync path even with an intact chain.
func TestForcedResyncPath(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	db := primary(t, dir)
	defer db.Close()
	writePins(t, db, 8)

	if err := fault.Arm("repl/resync-gap=error(injected gap)@1"); err != nil {
		t.Fatal(err)
	}
	s := repl.NewShipper(dir, repl.ShipperConfig{})
	f := follow(t, s, repl.FollowerConfig{})
	if err := f.WaitCaughtUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	exportEqual(t, db, f)
	if got := f.Stats(); got.Resyncs == 0 {
		t.Fatalf("forced resync never happened: %+v", got)
	}
}

// TestDialDeadlineParksFollower: when the primary is unreachable past
// the backoff deadline, the follower parks with a sticky typed error
// instead of retrying forever, and reads fail loudly.
func TestDialDeadlineParksFollower(t *testing.T) {
	boom := fmt.Errorf("primary unreachable")
	dialFails := func() (repl.Conn, error) { return nil, boom }
	f, err := repl.NewFollower(repl.FollowerConfig{
		Catalog: paperschema.MustGates(),
		Dial:    dialFails,
		Backoff: repl.BackoffConfig{Base: time.Millisecond, Cap: 2 * time.Millisecond, Deadline: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	deadline := time.Now().Add(5 * time.Second)
	for f.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatalf("follower never gave up: %+v", f.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(f.Err(), repl.ErrDeadline) {
		t.Fatalf("sticky error = %v, want ErrDeadline", f.Err())
	}
	var re *repl.Error
	if !errors.As(f.Err(), &re) || re.Op != "dial" {
		t.Fatalf("sticky error not typed: %v", f.Err())
	}
	if _, err := f.View(); err == nil {
		t.Fatal("parked follower served a read")
	}
}

// TestFollowerRestartResumes: a follower closed and rebuilt from
// scratch (its state is in-memory only) converges again — the primary
// having checkpointed in between, via resync.
func TestFollowerRestartResumes(t *testing.T) {
	dir := t.TempDir()
	db := primary(t, dir)
	defer db.Close()
	writePins(t, db, 10)

	s := repl.NewShipper(dir, repl.ShipperConfig{})
	f := follow(t, s, repl.FollowerConfig{})
	if err := f.WaitCaughtUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	writePins(t, db, 10)

	f2 := follow(t, s, repl.FollowerConfig{})
	if err := f2.WaitCaughtUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	exportEqual(t, db, f2)
}
