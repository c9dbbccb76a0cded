package cadcam_test

// Tests for the streamed checkpoint loader: recovery imports a checkpoint
// one segment at a time, trusts no segment's partition, and holds at most
// RecoveryWorkers segments of decoded records at once.

import (
	"errors"
	"maps"
	"os"
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

// TestOpenRejectsNonconformingRecord adds one attribute to one object
// record of a checkpoint segment and re-frames the segment with a valid
// CRC: an attribute the record's type does not declare, one the type
// inherits (inherited values are read through bindings, never stored),
// and an own attribute holding a value outside its domain. No such
// record conforms to its type, so Open must fail with
// ErrCheckpointUnreadable naming the attribute, and leave every file of
// the directory as it was.
func TestOpenRejectsNonconformingRecord(t *testing.T) {
	for _, tc := range []struct {
		name, typ, attr string
		value           cadcam.Value
	}{
		{"undeclared", paperschema.TypePin, "Width", cadcam.Int(3)},
		{"inherited", paperschema.TypeGateImplementation, "Width", cadcam.Int(3)},
		{"outside domain", paperschema.TypePin, "PinId", cadcam.Str("three")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := cadcam.Options{Dir: dir, SyncEvery: -1}
			db, err := cadcam.Open(paperschema.MustGates(), opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 8; i++ {
				if _, err := db.NewObject(tc.typ, ""); err != nil {
					t.Fatal(err)
				}
			}
			shards := db.Store().Shards()
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			edited := false
			for p := 0; p < shards && !edited; p++ {
				objs, binds := readSegment(t, dir, 1, p)
				if len(objs) == 0 {
					continue
				}
				objs[0].Attrs = map[string]cadcam.Value{tc.attr: tc.value}
				if err := storage.WriteSnapshot(filepath.Join(dir, wal.SegmentFilename(1, p)), wal.EncodeSegment(p, objs, binds)); err != nil {
					t.Fatal(err)
				}
				edited = true
			}
			if !edited {
				t.Fatal("no segment holds an object record")
			}
			before := dirFiles(t, dir)

			db, err = cadcam.Open(paperschema.MustGates(), opts)
			if err == nil {
				db.Close()
				t.Fatalf("Open imported a %s record storing %s", tc.typ, tc.attr)
			}
			if !errors.Is(err, cadcam.ErrCheckpointUnreadable) || !strings.Contains(err.Error(), tc.attr) {
				t.Fatalf("Open error = %v, want ErrCheckpointUnreadable naming %s", err, tc.attr)
			}
			if after := dirFiles(t, dir); !maps.Equal(before, after) {
				t.Fatalf("failed Open changed the directory: %d files before, %d after", len(before), len(after))
			}
		})
	}
}

// dirFiles maps every file name in dir to its contents.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(ents))
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(b)
	}
	return files
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
