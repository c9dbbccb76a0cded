package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// withCRC assembles a frame from its header varint and payload, with
// the CRC the layout demands.
func withCRC(varint, payload []byte) []byte {
	sum := crc32.Update(crc32.ChecksumIEEE(varint), crc32.IEEETable, payload)
	return append(binary.LittleEndian.AppendUint32(slices.Clone(varint), sum), payload...)
}

// flipFlag returns a copy of a frame with a one-byte header varint and
// its batched flag toggled; with fixCRC the CRC is recomputed, so the
// frame passes its check and the payload must stand in the other role.
func flipFlag(b []byte, fixCRC bool) []byte {
	b = slices.Clone(b)
	b[0] ^= 1
	if fixCRC {
		return withCRC(b[:1], b[1+crcSize:])
	}
	return b
}

// FuzzBatchFrame drives the frame decoder with arbitrary bytes as one
// frame: what recovery and the replication shipper face after a torn or
// corrupt write. It must never panic or over-allocate from a corrupt
// count, and it fails only with errTorn or ErrCorrupt. A frame it
// accepts round-trips (re-framing its records decodes to the same
// records), and every strict prefix of it reads as torn, never as
// corrupt: a crash mid-write can only leave a torn tail. The seeds
// include a torn varint, a varint longer than 64 bits and a flipped
// flag bit, with and without a recomputed CRC.
func FuzzBatchFrame(f *testing.F) {
	bare, _ := frame([][]byte{{1, 2, 3}})
	batch, _ := frame([][]byte{{}, {0xFF}, make([]byte, 300)})
	f.Add([]byte{})
	f.Add(bare)
	f.Add(batch)
	f.Add([]byte{0x80})                   // torn varint
	f.Add(bytes.Repeat([]byte{0xFF}, 11)) // over-long varint
	f.Add(flipFlag(bare, false))          // flipped flag bit
	f.Add(flipFlag(bare, true))           // flipped flag bit, CRC recomputed
	f.Add(append(slices.Clone(bare), 0))  // bytes behind the frame
	// A CRC-valid batch frame whose count exceeds its payload.
	f.Add(withCRC([]byte{9<<1 | 1}, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}))
	f.Fuzz(func(t *testing.T, b []byte) {
		records, size, err := parseFrame(b)
		if err != nil {
			if err != errTorn && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		for cut := 0; cut < size; cut++ {
			if _, _, err := parseFrame(b[:cut]); err != errTorn {
				t.Fatalf("prefix of %d of a %d-byte frame: %v, want torn", cut, size, err)
			}
		}
		re, _ := frame(records)
		again, _, err := parseFrame(re)
		if err != nil {
			t.Fatalf("re-framed records do not decode: %v", err)
		}
		if len(again) != len(records) {
			t.Fatalf("round-trip changed record count: %d != %d", len(again), len(records))
		}
		for i := range records {
			if !bytes.Equal(again[i], records[i]) {
				t.Fatalf("round-trip changed record %d", i)
			}
		}
	})
}

// FuzzLogScan writes arbitrary bytes as a journal file and opens it. The
// scan must treat any tail it cannot authenticate as torn (truncate) or
// corrupt (error) — it must never panic and never return records beyond
// the first bad frame.
func FuzzLogScan(f *testing.F) {
	bare, _ := frame([][]byte{[]byte("rec")})
	batch, _ := frame([][]byte{[]byte("a"), []byte("bb")})
	f.Add([]byte{})
	f.Add(make([]byte, 7))
	f.Add(make([]byte, 24))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0})      // giant length, no body
	f.Add(append(slices.Clone(bare), 0x80))                // torn varint behind a frame
	f.Add(append(bytes.Repeat([]byte{0xFF}, 11), bare...)) // over-long varint
	f.Add(append(flipFlag(batch, false), bare...))         // flipped flag bit, data behind
	f.Fuzz(func(t *testing.T, b []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "wal-fuzz.log")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		log, records, err := OpenLog(path)
		if err != nil {
			return // corrupt interior: a clean rejection
		}
		defer log.Close()
		// Whatever survived must itself be a valid log: reopening after
		// the scan's truncation yields the same records.
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		log2, records2, err := OpenLog(path)
		if err != nil {
			t.Fatalf("reopen after truncating scan failed: %v", err)
		}
		defer log2.Close()
		if len(records2) != len(records) {
			t.Fatalf("truncated log not stable: %d records then %d", len(records), len(records2))
		}
	})
}
