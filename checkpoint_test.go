package cadcam_test

// Tests for the incremental checkpoint: per-shard segment skipping
// (verified through the Stats counters), segment reuse across restarts,
// sticky failure reporting, and a multi-writer torture loop whose
// reopened state must byte-compare against the model oracle.

import (
	"errors"
	"fmt"
	"testing"

	"cadcam"

	"cadcam/internal/crash"
	"cadcam/internal/fault"
	"cadcam/internal/paperschema"
)

// seedPins creates n standalone pins, enough to populate every shard
// (surrogates are assigned sequentially and sharded by modulo).
func seedPins(t testing.TB, db *cadcam.Database, n int) []cadcam.Surrogate {
	t.Helper()
	surs := make([]cadcam.Surrogate, n)
	for i := range surs {
		sur, err := db.NewObject(paperschema.TypePin, "")
		if err != nil {
			t.Fatal(err)
		}
		surs[i] = sur
	}
	return surs
}

// TestIncrementalCheckpointStats is the headline acceptance check: a
// store with one dirty shard re-encodes exactly that shard's segment, at
// a quarter or less of the full checkpoint's encoded bytes.
func TestIncrementalCheckpointStats(t *testing.T) {
	dir := t.TempDir()
	db, err := cadcam.Open(paperschema.MustGates(), cadcam.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	shards := db.Store().Shards()
	surs := seedPins(t, db, 2*shards)

	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats().Checkpoint
	if int(st.SegmentsWritten) != shards || st.SegmentsSkipped != 0 {
		t.Fatalf("first checkpoint wrote %d/skipped %d segments, want %d/0",
			st.SegmentsWritten, st.SegmentsSkipped, shards)
	}

	// Touch one object: exactly one shard is dirty relative to the
	// baseline, so the second checkpoint encodes one segment.
	if err := db.SetAttr(surs[0], "PinId", cadcam.Int(42)); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st2 := db.Stats().Checkpoint
	if w := st2.SegmentsWritten - st.SegmentsWritten; w != 1 {
		t.Errorf("1-dirty-shard checkpoint wrote %d segments, want 1", w)
	}
	if s := st2.SegmentsSkipped - st.SegmentsSkipped; int(s) != shards-1 {
		t.Errorf("1-dirty-shard checkpoint skipped %d segments, want %d", s, shards-1)
	}
	// Bytes, not wall time: the full checkpoint must encode at least 4x
	// what the 1-dirty-shard one does.
	incr := st2.BytesEncoded - st.BytesEncoded
	t.Logf("full checkpoint %d bytes, incremental %d", st.BytesEncoded, incr)
	if st.BytesEncoded < 4*incr {
		t.Errorf("incremental checkpoint encoded %d bytes vs %d for the full one, want at most a quarter",
			incr, st.BytesEncoded)
	}
}

// TestCheckpointSegmentReuseAcrossReopen: recovery restores the
// manifest's segment table, so a reopened, untouched store checkpoints
// without encoding anything — and a reopened store whose journal tail
// touched one shard re-encodes only that shard.
func TestCheckpointSegmentReuseAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := cadcam.Open(paperschema.MustGates(), cadcam.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	shards := db.Store().Shards()
	surs := seedPins(t, db, 2*shards)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// One post-checkpoint write: the journal tail replayed on reopen
	// dirties exactly one shard.
	if err := db.SetAttr(surs[0], "PinId", cadcam.Int(7)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := cadcam.Open(paperschema.MustGates(), cadcam.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.Stats().Recovery.ReplayOps; got != 1 {
		t.Fatalf("reopen replayed %d ops, want 1", got)
	}
	if err := db2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := db2.Stats().Checkpoint
	if st.SegmentsWritten != 1 || int(st.SegmentsSkipped) != shards-1 {
		t.Errorf("post-reopen checkpoint wrote %d/skipped %d, want 1/%d",
			st.SegmentsWritten, st.SegmentsSkipped, shards-1)
	}

	// Nothing changed since: the next checkpoint reuses every segment.
	if err := db2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st2 := db2.Stats().Checkpoint
	if w := st2.SegmentsWritten - st.SegmentsWritten; w != 0 {
		t.Errorf("clean checkpoint wrote %d segments, want 0", w)
	}
	// And the reopened-from-reused-segments state still reads back.
	if v, _ := db2.GetAttr(surs[0], "PinId"); !v.Equal(cadcam.Int(7)) {
		t.Errorf("PinId = %v after reuse checkpoint, want 7", v)
	}
}

// TestCheckpointFailureSticky: a failed checkpoint (injected at the
// manifest swap) is recorded in the stats and surfaced by CheckpointErr
// until a later checkpoint succeeds — never silently swallowed.
func TestCheckpointFailureSticky(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	db, err := cadcam.Open(paperschema.MustGates(), cadcam.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	seedPins(t, db, 4)

	if err := fault.Arm("db/manifest-swap=error(injected swap failure)@1"); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err == nil {
		t.Fatal("checkpoint succeeded despite injected manifest-swap failure")
	}
	st := db.Stats().Checkpoint
	if st.Failures != 1 || st.LastError == "" {
		t.Errorf("failure not recorded: %+v", st)
	}
	if db.CheckpointErr() == nil {
		t.Error("CheckpointErr not sticky after failed checkpoint")
	}
	// The database stays consistent and durable on the journal chain.
	if _, err := db.NewObject(paperschema.TypePin, ""); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after failure: %v", err)
	}
	if db.CheckpointErr() != nil {
		t.Error("CheckpointErr not cleared by successful checkpoint")
	}
	if st := db.Stats().Checkpoint; st.LastError != "" {
		t.Errorf("LastError not cleared: %+v", st)
	}
}

// TestCheckpointDirSyncFailureSticky: a failed directory sync, of the
// checkpoint's new journal, of a segment or of the manifest, fails the
// checkpoint with ErrDirSync, which CheckpointErr keeps until a later
// checkpoint succeeds. The database goes on journaling, and a reopen
// recovers every object written around the failure.
func TestCheckpointDirSyncFailureSticky(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	open := func() *cadcam.Database {
		t.Helper()
		db, err := cadcam.Open(paperschema.MustGates(), cadcam.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := open()
	want := len(seedPins(t, db, 4))
	failed := 0
	for at := 1; ; at++ {
		if err := fault.Arm(fmt.Sprintf("wal/dir-sync=error(injected dir sync failure)@%d", at)); err != nil {
			t.Fatal(err)
		}
		want += len(seedPins(t, db, 3))
		err := db.Checkpoint()
		fault.Reset()
		if err == nil {
			break
		}
		failed++
		if !errors.Is(err, cadcam.ErrDirSync) || !errors.Is(db.CheckpointErr(), cadcam.ErrDirSync) {
			t.Fatalf("dir sync %d: Checkpoint = %v, CheckpointErr = %v; want ErrDirSync from both", at, err, db.CheckpointErr())
		}
		want += len(seedPins(t, db, 1))
		if db.CheckpointErr() == nil {
			t.Fatalf("dir sync %d: CheckpointErr cleared by a write", at)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db = open()
		if got := db.Store().Len(); got != want {
			t.Fatalf("dir sync %d: reopen recovered %d objects, want %d", at, got, want)
		}
	}
	defer db.Close()
	t.Logf("%d checkpoint directory syncs failed in turn", failed)
	// The new journal, at least one segment and the manifest.
	if failed < 3 {
		t.Errorf("%d checkpoint directory syncs failed, want at least 3", failed)
	}
	if db.CheckpointErr() != nil {
		t.Errorf("CheckpointErr not cleared by a successful checkpoint: %v", db.CheckpointErr())
	}
}

// TestCheckpointTortureVsOracle hammers checkpoints under concurrent
// writers (writer 0 checkpoints every 10 of its ops), then byte-compares
// the reopened store against the model oracle replayed from the
// checkpoint state plus the journal chain.
func TestCheckpointTortureVsOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("torture loop; skipped in -short")
	}
	dir := t.TempDir()
	cfg := crash.Config{
		Dir:             dir,
		AckDir:          t.TempDir(),
		Seed:            424242,
		Writers:         8,
		Ops:             400,
		CheckpointEvery: 10,
	}
	if err := crash.RunWorkload(cfg); err != nil {
		t.Fatal(err)
	}
	// Checkpointed ops legitimately leave the journal; the byte-compare
	// against the oracle is the real check.
	if err := crash.Verify(dir, cfg.AckDir, crash.VerifyOptions{AckCheck: false}); err != nil {
		t.Fatal(err)
	}
}
