package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func openFresh(t *testing.T) (*Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.log")
	l, recs, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh log has %d records", len(recs))
	}
	return l, path
}

func TestAppendAndReopen(t *testing.T) {
	l, path := openFresh(t)
	payloads := [][]byte{[]byte("one"), []byte("two"), {}, []byte("four")}
	for _, p := range payloads {
		if err := l.AppendBatch([][]byte{p}, true); err != nil {
			t.Fatal(err)
		}
	}
	if l.Size() == 0 {
		t.Error("size should grow")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, recs, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recs) != len(payloads) {
		t.Fatalf("recovered %d records, want %d", len(recs), len(payloads))
	}
	for i := range payloads {
		if !bytes.Equal(recs[i], payloads[i]) {
			t.Errorf("record %d = %q, want %q", i, recs[i], payloads[i])
		}
	}
	// Appending after reopen extends the log.
	if err := l2.AppendBatch([][]byte{[]byte("five")}, true); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err = OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Errorf("after reopen-append: %d records", len(recs))
	}
}

func TestTornTailTruncated(t *testing.T) {
	l, path := openFresh(t)
	if err := l.AppendBatch([][]byte{[]byte("intact")}, true); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch([][]byte{[]byte("will-be-torn")}, true); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: chop bytes off the end.
	info, _ := os.Stat(path)
	if err := os.Truncate(path, info.Size()-5); err != nil {
		t.Fatal(err)
	}
	l2, recs, err := OpenLog(path)
	if err != nil {
		t.Fatalf("torn tail must recover: %v", err)
	}
	defer l2.Close()
	if len(recs) != 1 || string(recs[0]) != "intact" {
		t.Fatalf("records = %q", recs)
	}
	// The torn tail is gone: new appends land cleanly.
	if err := l2.AppendBatch([][]byte{[]byte("fresh")}, true); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	_, recs, err = OpenLog(path)
	if err != nil || len(recs) != 2 {
		t.Fatalf("after heal: %q, %v", recs, err)
	}
}

func TestTornHeaderTruncated(t *testing.T) {
	l, path := openFresh(t)
	if err := l.AppendBatch([][]byte{[]byte("a")}, true); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Append 3 garbage bytes (a torn header).
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	f.Write([]byte{1, 2, 3})
	f.Close()
	_, recs, err := OpenLog(path)
	if err != nil || len(recs) != 1 {
		t.Fatalf("torn header: %q, %v", recs, err)
	}
}

func TestInteriorCorruptionFatal(t *testing.T) {
	l, path := openFresh(t)
	if err := l.AppendBatch([][]byte{[]byte("first-record-payload")}, true); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch([][]byte{[]byte("second-record-payload")}, true); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Flip a byte inside the first record's payload.
	b, _ := os.ReadFile(path)
	b[10] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenLog(path)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("interior corruption must be fatal, got %v", err)
	}
}

func TestCorruptFinalRecordTolerated(t *testing.T) {
	// A bit flip in the very last record is indistinguishable from a torn
	// write and is dropped.
	l, path := openFresh(t)
	if err := l.AppendBatch([][]byte{[]byte("first")}, true); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch([][]byte{[]byte("last")}, true); err != nil {
		t.Fatal(err)
	}
	l.Close()
	b, _ := os.ReadFile(path)
	b[len(b)-1] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, recs, err := OpenLog(path)
	if err != nil || len(recs) != 1 {
		t.Fatalf("final corruption: %q, %v", recs, err)
	}
}

func TestReset(t *testing.T) {
	l, path := openFresh(t)
	for i := 0; i < 5; i++ {
		if err := l.AppendBatch([][]byte{[]byte("x")}, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if l.Size() != 0 {
		t.Error("size after reset")
	}
	if err := l.AppendBatch([][]byte{[]byte("new")}, true); err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, recs, err := OpenLog(path)
	if err != nil || len(recs) != 1 || string(recs[0]) != "new" {
		t.Fatalf("after reset: %q, %v", recs, err)
	}
}

func TestSyncPolicy(t *testing.T) {
	l, _ := openFresh(t)
	defer l.Close()
	for i := 0; i < 100; i++ { // no fsync on append
		if err := l.AppendBatch([][]byte{[]byte("bulk")}, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	// Missing file: (nil, nil).
	b, err := ReadSnapshot(path)
	if err != nil || b != nil {
		t.Fatalf("missing snapshot: %v, %v", b, err)
	}
	payload := []byte("snapshot-payload")
	if err := WriteSnapshot(path, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(path)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read = %q, %v", got, err)
	}
	// Overwrite is atomic (tmp+rename): the tmp file must not remain.
	if err := WriteSnapshot(path, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Error("tmp file left behind")
	}
	got, _ = ReadSnapshot(path)
	if string(got) != "v2" {
		t.Errorf("after overwrite: %q", got)
	}
	// Corruption detected.
	raw, _ := os.ReadFile(path)
	raw[len(raw)-1] ^= 0xFF
	os.WriteFile(path, raw, 0o644)
	if _, err := ReadSnapshot(path); !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupt snapshot: %v", err)
	}
	// Truncated header detected.
	os.WriteFile(path, []byte{1, 2}, 0o644)
	if _, err := ReadSnapshot(path); !errors.Is(err, ErrCorrupt) {
		t.Errorf("short snapshot: %v", err)
	}
	// Length mismatch detected.
	os.WriteFile(path, []byte{9, 0, 0, 0, 0, 0, 0, 0, 1, 2}, 0o644)
	if _, err := ReadSnapshot(path); !errors.Is(err, ErrCorrupt) {
		t.Errorf("length mismatch: %v", err)
	}
}

// TestReadFirst: the first record of the first frame (a batch frame
// expanded), nil for an empty log or a torn first frame, and the file is
// left as it was.
func TestReadFirst(t *testing.T) {
	l, path := openFresh(t)
	if rec, err := ReadFirst(path); err != nil || rec != nil {
		t.Fatalf("empty log: %q, %v", rec, err)
	}
	if err := l.AppendBatch([][]byte{[]byte("head"), []byte("op")}, true); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch([][]byte{[]byte("later")}, true); err != nil {
		t.Fatal(err)
	}
	if rec, err := ReadFirst(path); err != nil || string(rec) != "head" {
		t.Fatalf("ReadFirst = %q, %v; want head", rec, err)
	}
	size := l.Size()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	head, _ := frame([][]byte{[]byte("head"), []byte("op")})
	first := int64(len(head))
	if err := os.Truncate(path, first-2); err != nil {
		t.Fatal(err)
	}
	if rec, err := ReadFirst(path); err != nil || rec != nil {
		t.Fatalf("torn first frame: %q, %v", rec, err)
	}
	if info, err := os.Stat(path); err != nil || info.Size() != first-2 || size <= first {
		t.Fatalf("ReadFirst changed the log: %v, %v", info.Size(), err)
	}
	if _, err := ReadFirst(filepath.Join(t.TempDir(), "missing.log")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing log: %v", err)
	}
}
