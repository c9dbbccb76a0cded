package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cadcam/internal/oplog"
	"cadcam/internal/storage"
)

// buildChain writes a three-epoch journal chain with a known batch
// layout and returns the per-batch record payloads in append order.
func buildChain(t *testing.T, dir string) [][][]byte {
	t.Helper()
	rec := func(epoch, batch, i int) []byte {
		return []byte(fmt.Sprintf("e%d-b%d-r%d", epoch, batch, i))
	}
	var batches [][][]byte
	for epoch := 0; epoch < 3; epoch++ {
		log, records, err := storage.OpenLog(filepath.Join(dir, WALFilename(uint64(epoch))))
		if err != nil {
			t.Fatal(err)
		}
		if len(records) != 0 {
			t.Fatalf("fresh epoch %d log has %d records", epoch, len(records))
		}
		// Mixed batch sizes: single-record bare frames, multi-record
		// batch frames, and a bare record whose bytes read as a packed
		// batch (must still round-trip as one record).
		sizes := []int{1, 3, 1, 7, 2}
		for b, n := range sizes {
			var batch [][]byte
			for i := 0; i < n; i++ {
				batch = append(batch, rec(epoch, b, i))
			}
			if n == 1 && b == 2 {
				r := rec(epoch, b, 0)
				batch = [][]byte{append([]byte{1, byte(len(r))}, r...)}
			}
			if b == 0 {
				// Every log opens with a format record, or OpenChain
				// refuses it.
				batch[0] = []byte{byte(oplog.KindFormat), oplog.FormatVersion}
			}
			if err := log.AppendBatch(batch, true); err != nil {
				t.Fatal(err)
			}
			batches = append(batches, batch)
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return batches
}

// TestChainConsumersAgreeOnBatchBoundaries is the funnel regression
// test: recovery (OpenChain, truncating) and the replication shipper
// (TailFrames, read-only) must see the identical batch boundaries and
// records for the same chain — including a torn frame at the tail,
// which both must ignore.
func TestChainConsumersAgreeOnBatchBoundaries(t *testing.T) {
	dir := t.TempDir()
	batches := buildChain(t, dir)

	// Tear the live epoch's tail: a frame header promising more bytes
	// than the file holds, exactly what a crash mid-append leaves.
	livePath := filepath.Join(dir, WALFilename(2))
	f, err := os.OpenFile(livePath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Shipper view first (read-only): it must not modify the files.
	frames, pos, err := TailFrames(dir, ChainPos{})
	if err != nil {
		t.Fatalf("TailFrames: %v", err)
	}
	tornSize, _ := os.Stat(livePath)
	if tornSize.Size() <= pos.Offset {
		t.Fatalf("TailFrames truncated or consumed the torn tail: size %d, pos %d", tornSize.Size(), pos.Offset)
	}

	if len(frames) != len(batches) {
		t.Fatalf("shipper saw %d batches, wrote %d", len(frames), len(batches))
	}
	for i, fr := range frames {
		if len(fr.Records) != len(batches[i]) {
			t.Fatalf("batch %d: shipper boundary holds %d records, append wrote %d", i, len(fr.Records), len(batches[i]))
		}
		for j, r := range fr.Records {
			if !bytes.Equal(r, batches[i][j]) {
				t.Fatalf("batch %d record %d: shipper %q, append wrote %q", i, j, r, batches[i][j])
			}
		}
	}
	if pos.Epoch != 2 {
		t.Fatalf("shipper position epoch %d, want 2", pos.Epoch)
	}

	// Recovery view second (truncating): same records, and its torn-tail
	// truncation must land exactly on the shipper's final boundary.
	records, live, log, err := OpenChain(dir, 0)
	if err != nil {
		t.Fatalf("OpenChain: %v", err)
	}
	defer log.Close()
	if live != 2 {
		t.Fatalf("OpenChain live epoch %d, want 2", live)
	}
	var want [][]byte
	for _, b := range batches {
		want = append(want, b...)
	}
	if len(records) != len(want) {
		t.Fatalf("recovery replayed %d records, shipper boundaries hold %d", len(records), len(want))
	}
	for i := range want {
		if !bytes.Equal(records[i], want[i]) {
			t.Fatalf("record %d: recovery %q, shipper %q", i, records[i], want[i])
		}
	}
	truncated, _ := os.Stat(livePath)
	if truncated.Size() != pos.Offset {
		t.Fatalf("recovery truncated to %d bytes, shipper boundary at %d", truncated.Size(), pos.Offset)
	}
}

// TestTailFramesIncremental re-reads the chain from a saved position and
// must see exactly the frames appended since.
func TestTailFramesIncremental(t *testing.T) {
	dir := t.TempDir()
	log, _, err := storage.OpenLog(filepath.Join(dir, WALFilename(0)))
	if err != nil {
		t.Fatal(err)
	}
	if err := log.AppendBatch([][]byte{[]byte("a"), []byte("b")}, true); err != nil {
		t.Fatal(err)
	}
	frames, pos, err := TailFrames(dir, ChainPos{})
	if err != nil || len(frames) != 1 {
		t.Fatalf("first tail: %v frames, err %v", len(frames), err)
	}
	if err := log.AppendBatch([][]byte{[]byte("c")}, true); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	frames, pos2, err := TailFrames(dir, pos)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 1 || len(frames[0].Records) != 1 || string(frames[0].Records[0]) != "c" {
		t.Fatalf("incremental tail saw %v", frames)
	}
	if again, _, err := TailFrames(dir, pos2); err != nil || len(again) != 0 {
		t.Fatalf("idle tail: %d frames, err %v", len(again), err)
	}
}

// TestTailFramesGap: a position below a garbage-collected epoch must
// report ErrChainGap, the trigger for a checkpoint resync.
func TestTailFramesGap(t *testing.T) {
	dir := t.TempDir()
	log, _, err := storage.OpenLog(filepath.Join(dir, WALFilename(5)))
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if _, _, err := TailFrames(dir, ChainPos{Epoch: 3}); err == nil {
		t.Fatal("gap not detected")
	} else if !errorsIsChainGap(err) {
		t.Fatalf("want ErrChainGap, got %v", err)
	}
	// Reading at an offset into a vanished file is also a gap.
	if _, _, err := TailFrames(dir, ChainPos{Epoch: 4, Offset: 32}); err == nil || !errorsIsChainGap(err) {
		t.Fatalf("offset gap: %v", err)
	}
}

func errorsIsChainGap(err error) bool {
	for ; err != nil; err = unwrap(err) {
		if err == ErrChainGap {
			return true
		}
	}
	return false
}

func unwrap(err error) error {
	u, ok := err.(interface{ Unwrap() error })
	if !ok {
		return nil
	}
	return u.Unwrap()
}
