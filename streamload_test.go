package cadcam_test

// Tests for the streamed checkpoint loader: recovery imports a checkpoint
// one segment at a time, trusts no segment's partition, and holds at most
// RecoveryWorkers segments of decoded records at once.

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"cadcam"

	"cadcam/internal/object"
	"cadcam/internal/paperschema"
	"cadcam/internal/storage"
	"cadcam/internal/wal"
)

// readSegment decodes partition p's segment of the checkpoint at epoch.
func readSegment(t *testing.T, dir string, epoch uint64, p int) ([]object.ObjectRecord, []object.BindingRecord) {
	t.Helper()
	payload, err := storage.ReadSnapshot(filepath.Join(dir, wal.SegmentFilename(epoch, p)))
	if err != nil || payload == nil {
		t.Fatalf("segment %d: %v", p, err)
	}
	objs, binds, err := wal.DecodeSegment(payload, p)
	if err != nil {
		t.Fatal(err)
	}
	return objs, binds
}

// TestOpenRejectsRecordOutsidePartition moves one object record from
// partition 1's segment into partition 0's and re-frames both with valid
// CRCs. Partitions import in parallel, one shard table per worker, so the
// stray record would race with partition 1's worker on shard 1's table;
// Open must reject it before it is entered. Run under -race.
func TestOpenRejectsRecordOutsidePartition(t *testing.T) {
	dir := t.TempDir()
	opts := cadcam.Options{Dir: dir, SyncEvery: -1, RecoveryWorkers: 4}
	db, err := cadcam.Open(paperschema.MustGates(), opts)
	if err != nil {
		t.Fatal(err)
	}
	seedPins(t, db, 64)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	objs0, binds0 := readSegment(t, dir, 1, 0)
	objs1, binds1 := readSegment(t, dir, 1, 1)
	if len(objs1) == 0 {
		t.Fatal("partition 1 holds no object")
	}
	objs0, objs1 = append(objs0, objs1[0]), objs1[1:]
	for p, seg := range [][]byte{wal.EncodeSegment(0, objs0, binds0), wal.EncodeSegment(1, objs1, binds1)} {
		if err := storage.WriteSnapshot(filepath.Join(dir, wal.SegmentFilename(1, p)), seg); err != nil {
			t.Fatal(err)
		}
	}

	db, err = cadcam.Open(paperschema.MustGates(), opts)
	if err == nil {
		db.Close()
		t.Fatal("Open imported a segment holding a record of another partition")
	}
	if !errors.Is(err, cadcam.ErrCheckpointUnreadable) || !strings.Contains(err.Error(), "partition") {
		t.Fatalf("Open error = %v, want ErrCheckpointUnreadable naming the partition", err)
	}
}

// TestRecoveryPeakRecordsStreamed: recovering a 16-shard checkpoint of the
// benchmark corpus shape holds at most RecoveryWorkers segments of
// decoded records at once — a count, not a timing — and so well under the
// whole checkpoint.
func TestRecoveryPeakRecordsStreamed(t *testing.T) {
	const workers = 2
	dir := t.TempDir()
	opts := cadcam.Options{Dir: dir, SyncEvery: -1, Shards: 16, RecoveryWorkers: workers}
	db, err := cadcam.Open(paperschema.MustGates(), opts)
	if err != nil {
		t.Fatal(err)
	}
	buildCorpus(t, db, 500)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	total, largest := 0, 0
	for p := 0; p < 16; p++ {
		objs, binds := readSegment(t, dir, 1, p)
		n := len(objs) + len(binds)
		total += n
		largest = max(largest, n)
	}

	db, err = cadcam.Open(paperschema.MustGates(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rec := db.Stats().Recovery
	if got := db.Store().Len(); got != total {
		t.Fatalf("recovered %d objects, the checkpoint holds %d records", got, total)
	}
	if rec.Segments != 16 || rec.Workers != workers {
		t.Fatalf("recovery stats %+v, want 16 segments and %d workers", rec, workers)
	}
	if rec.PeakRecords <= 0 || rec.PeakRecords > workers*largest {
		t.Errorf("peak records %d, want 1..%d (workers x largest segment)", rec.PeakRecords, workers*largest)
	}
	if rec.PeakRecords*4 >= total {
		t.Errorf("peak records %d, want under a quarter of all %d records", rec.PeakRecords, total)
	}
}
