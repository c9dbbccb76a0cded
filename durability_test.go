package cadcam

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"cadcam/internal/fault"
	"cadcam/internal/oplog"
	"cadcam/internal/paperschema"
	"cadcam/internal/storage"
)

// TestCrashRecoveryTornBatch proves the torn-batch atomicity rule at the
// database level: a group-commit batch frame torn by a crash is dropped
// whole, and replay stops cleanly at the last complete frame — the store
// state matches the pre-crash prefix exactly.
func TestCrashRecoveryTornBatch(t *testing.T) {
	dir := t.TempDir()
	db := diskDB(t, dir)
	_, iface, _ := buildGateScene(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Hand-append a batch frame with two writes to the journal, the way
	// the first group commit of a reopened database writes it: a new log
	// handle's Encoder opens it with the format and name records the
	// ops' encoding relies on.
	walPath := filepath.Join(dir, "wal-00000000.log")
	appendBatch := func(truncateTail int64) {
		t.Helper()
		log, _, err := storage.OpenLog(walPath)
		if err != nil {
			t.Fatal(err)
		}
		batch := new(oplog.Encoder).EncodeBatch([]*oplog.Op{
			{Kind: oplog.KindSetAttr, Sur: iface, Name: "Width", Value: Int(10)},
			{Kind: oplog.KindSetAttr, Sur: iface, Name: "Width", Value: Int(11)},
		})
		if err := log.AppendBatch(batch, true); err != nil {
			t.Fatal(err)
		}
		size := log.Size()
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		if truncateTail > 0 {
			if err := os.Truncate(walPath, size-truncateTail); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Intact batch: both records replay, last write wins.
	appendBatch(0)
	db2 := diskDB(t, dir)
	if v, _ := db2.GetAttr(iface, "Width"); !v.Equal(Int(11)) {
		t.Errorf("intact batch should replay fully, Width = %v", v)
	}
	// Remove the batch again so the torn case starts from the same prefix.
	if err := db2.SetAttr(iface, "Width", NullValue); err != nil {
		t.Fatal(err)
	}
	if err := db2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}

	// Torn batch: the crash clipped the frame mid-payload. The whole
	// batch must vanish; everything before it survives.
	walPath = filepath.Join(dir, "wal-00000001.log")
	appendBatch(3)
	db3 := diskDB(t, dir)
	defer db3.Close()
	if v, _ := db3.GetAttr(iface, "Width"); !v.Equal(NullValue) {
		t.Errorf("torn batch must be dropped whole, Width = %v", v)
	}
	if v, _ := db3.GetAttr(iface, "Length"); !v.Equal(Int(4)) {
		t.Errorf("pre-crash prefix must survive, Length = %v", v)
	}
}

// TestJournalErrorFailsFast: once the pipeline is poisoned, every
// subsequent facade mutation fails immediately with the sticky error —
// durability loss cannot go unnoticed by a caller that checks errors.
func TestJournalErrorFailsFast(t *testing.T) {
	dir := t.TempDir()
	db := diskDB(t, dir)
	defer db.Close()
	_, iface, _ := buildGateScene(t, db)

	boom := errors.New("disk on fire")
	db.committer.Fail(boom)

	if err := db.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err = %v, want %v", err, boom)
	}
	if err := db.SetAttr(iface, "Length", Int(9)); !errors.Is(err, boom) {
		t.Errorf("SetAttr = %v, want sticky error", err)
	}
	if _, err := db.NewObject(paperschema.TypePin, ""); !errors.Is(err, boom) {
		t.Errorf("NewObject = %v, want sticky error", err)
	}
	if err := db.DefineDesign("D", iface); !errors.Is(err, boom) {
		t.Errorf("DefineDesign = %v, want sticky error", err)
	}
	// The fail-fast check precedes the store call: the rejected write
	// must not have mutated the in-memory state either.
	if v, _ := db.GetAttr(iface, "Length"); !v.Equal(Int(4)) {
		t.Errorf("rejected write leaked into store: Length = %v", v)
	}
	// Transactional statements hit the same barrier.
	tx := db.Begin("")
	if err := tx.SetAttr(iface, "Length", Int(8)); !errors.Is(err, boom) {
		t.Errorf("txn SetAttr = %v, want sticky error", err)
	}
	_ = tx.Abort()
}

// TestSyncEverySemantics pins the one documented SyncEvery rule:
// 0 → cadence 1 (durable default), n ≥ 1 → cadence n, n < 0 → never on
// append; the cadence derives the wait mode.
func TestSyncEverySemantics(t *testing.T) {
	cases := []struct {
		opts    Options
		cadence int
		durable bool
	}{
		{Options{}, 1, true},
		{Options{SyncEvery: 1}, 1, true},
		{Options{SyncEvery: 8}, 8, false},
		{Options{SyncEvery: -1}, 0, false},
	}
	for i, c := range cases {
		if got := c.opts.syncCadence(); got != c.cadence {
			t.Errorf("case %d: cadence = %d, want %d", i, got, c.cadence)
		}
		if got := c.opts.durable(); got != c.durable {
			t.Errorf("case %d: durable = %v, want %v", i, got, c.durable)
		}
	}

	// Behavior: SyncEvery < 0 never fsyncs on append, but Close still
	// lands every record.
	dir := t.TempDir()
	db, err := Open(paperschema.MustGates(), Options{Dir: dir, SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	_, iface, _ := buildGateScene(t, db)
	if got := db.Stats().WAL.Syncs; got != 0 {
		t.Errorf("SyncEvery<0 issued %d fsyncs on append", got)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := diskDB(t, dir)
	defer db2.Close()
	if v, _ := db2.GetAttr(iface, "Length"); !v.Equal(Int(4)) {
		t.Errorf("Close must land unsynced records, Length = %v", v)
	}
}

// TestConcurrentDurableWritersVsCheckpoint races durable writers against
// repeated checkpoints (run under -race in CI): no record may be lost or
// double-applied across the epoch swaps.
func TestConcurrentDurableWritersVsCheckpoint(t *testing.T) {
	const writers, opsEach, checkpoints = 4, 30, 8
	dir := t.TempDir()
	db, err := Open(paperschema.MustGates(), Options{Dir: dir, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	pins := make([]Surrogate, writers)
	for i := range pins {
		pin, err := db.NewObject(paperschema.TypePin, "")
		if err != nil {
			t.Fatal(err)
		}
		pins[i] = pin
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				if err := db.SetAttr(pins[w], "PinId", Int(int64(i))); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for c := 0; c < checkpoints; c++ {
		if err := db.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d: %v", c, err)
		}
	}
	wg.Wait()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := diskDB(t, dir)
	defer db2.Close()
	for w, pin := range pins {
		v, err := db2.GetAttr(pin, "PinId")
		if err != nil {
			t.Fatalf("writer %d pin: %v", w, err)
		}
		if !v.Equal(Int(opsEach - 1)) {
			t.Errorf("writer %d: PinId = %v, want %d", w, v, opsEach-1)
		}
	}
}

// TestDurableWriteStatsExposed: Stats().WAL reflects the pipeline (the
// cadbench smoke asserts the same through -json).
func TestDurableWriteStatsExposed(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(paperschema.MustGates(), Options{Dir: dir, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	buildGateScene(t, db)
	w := db.Stats().WAL
	if w.Batches == 0 || w.Records == 0 || w.Syncs == 0 {
		t.Errorf("WAL stats empty after mutations: %+v", w)
	}
	if w.Durable != w.Enqueued {
		t.Errorf("durable mode: durable=%d enqueued=%d should match after ack", w.Durable, w.Enqueued)
	}
}

// TestInjectedFsyncFailureAllShards drives the sticky-error path through
// a *real* injected fsync failure (the fault package, not a direct
// committer poke): after the first failed sync, a mutation against an
// object on every shard must fail fast with the injected error and leave
// no trace in memory — and reopening the directory must not surface any
// of the rejected values.
func TestInjectedFsyncFailureAllShards(t *testing.T) {
	dir := t.TempDir()
	db := diskDB(t, dir)

	// One pin per shard (surrogates are assigned round-robin dense, so
	// 2×DefaultShards objects cover every shard).
	const n = 32
	pins := make([]Surrogate, n)
	for i := range pins {
		pin, err := db.NewObject(paperschema.TypePin, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := db.SetAttr(pin, "PinId", Int(int64(i))); err != nil {
			t.Fatal(err)
		}
		pins[i] = pin
	}

	if err := fault.Arm("wal/sync-error=error(injected fsync failure)@1"); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()

	// The trigger write fails at its group-commit sync. Its bytes may or
	// may not have reached the file (write vs fsync), but the error must
	// surface here and poison the pipeline.
	if err := db.SetAttr(pins[0], "PinId", Int(1000)); err == nil {
		t.Fatal("mutation with failing fsync reported success")
	}
	sticky := db.Err()
	if sticky == nil {
		t.Fatal("journal error did not stick")
	}

	// Every shard now fails fast, before touching the store.
	for i, pin := range pins {
		err := db.SetAttr(pin, "PinId", Int(int64(2000+i)))
		if !errors.Is(err, sticky) {
			t.Fatalf("shard write %d: err = %v, want sticky %v", i, err, sticky)
		}
		v, gerr := db.GetAttr(pin, "PinId")
		if gerr != nil {
			t.Fatal(gerr)
		}
		if v.Equal(Int(int64(2000 + i))) {
			t.Fatalf("rejected write %d leaked into the in-memory store", i)
		}
	}
	_ = db.Close() // returns the sticky error; the directory is what counts

	fault.Reset()
	db2 := diskDB(t, dir)
	defer db2.Close()
	for i, pin := range pins {
		v, err := db2.GetAttr(pin, "PinId")
		if err != nil {
			t.Fatalf("recovered pin %d: %v", i, err)
		}
		if v.Equal(Int(int64(2000 + i))) {
			t.Fatalf("rejected write %d resurfaced after recovery", i)
		}
		if !v.Equal(Int(int64(i))) && !(i == 0 && v.Equal(Int(1000))) {
			t.Fatalf("recovered pin %d: PinId = %v, want %d (or the torn trigger value for pin 0)", i, v, i)
		}
	}
}
