// Package storage implements the on-disk substrate of the database: an
// append-only record log with CRC-checked framing and torn-tail recovery,
// plus atomic snapshot files. The records themselves are opaque payloads;
// the wal package defines their logical content.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"cadcam/internal/fault"
)

// Failpoints of the log layer (see internal/fault). The torn-write and
// partial-batch points simulate a crash mid-write: the site writes a
// prefix of the frame and terminates, so recovery sees exactly the torn
// tail a real crash leaves behind.
var (
	fpAppendError  = fault.New("wal/append-error")
	fpSyncError    = fault.New("wal/sync-error")
	fpTornWrite    = fault.New("wal/torn-write")
	fpPartialBatch = fault.New("wal/partial-batch")
)

// ErrCorrupt reports a record whose checksum does not match. A corrupt
// record in the *middle* of the log is fatal; a torn record at the tail
// is truncated silently (the write never committed).
var ErrCorrupt = errors.New("storage: corrupt log record")

const headerSize = 8 // 4 bytes length + 4 bytes CRC32

// BatchMarker is the first payload byte of a batch frame: one CRC frame
// whose payload packs several logical records (group commit writes one
// frame per batch). Logical records written by the database start with an
// oplog kind byte, which must stay below this value; scan treats any
// payload starting with BatchMarker as a batch frame and expands it.
const BatchMarker byte = 0xF5

// Log is an append-only record log. Appends are atomic at the record
// level: a crash mid-write leaves a torn tail that Open truncates.
type Log struct {
	f    *os.File
	path string
	size int64
	// SyncEvery controls fsync: 1 = every append (durable, slow),
	// 0 = never (rely on Close/Checkpoint). Default 1.
	syncEvery int
	pending   int
}

// OpenLog opens (creating if necessary) the log at path, scans and
// returns all intact records, and truncates a torn tail.
func OpenLog(path string) (*Log, [][]byte, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("storage: open log: %w", err)
	}
	records, validSize, err := scan(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := f.Truncate(validSize); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("storage: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(validSize, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &Log{f: f, path: path, size: validSize, syncEvery: 1}, records, nil
}

// Frame is one intact CRC frame of a log: the byte range it occupies and
// the logical records its payload carries (batch frames expanded). Frame
// boundaries are the atomic commit units of the log — a group-commit
// batch lands as exactly one frame — which makes them the shipping units
// of replication too.
type Frame struct {
	// Offset is the byte offset of the frame header; End is the offset
	// just past the frame (the next frame's Offset).
	Offset, End int64
	// Records are the frame's logical records, batch frames expanded.
	Records [][]byte
}

// ScanFrames reads intact frames from r, starting at byte offset `from`
// (which must be a frame boundary) and stopping at `total` (the file
// size). It returns the frames and the offset just past the last intact
// one. A torn frame at the tail is not an error — scanning stops before
// it; a corrupt frame with more data behind it is interior corruption
// and fails with ErrCorrupt. This is the one frame-boundary scanner:
// recovery (via OpenLog) and the replication shipper both sit on it, so
// they can never disagree about where a batch starts or ends.
func ScanFrames(r io.ReaderAt, from, total int64) ([]Frame, int64, error) {
	var frames []Frame
	offset := from
	header := make([]byte, headerSize)
	for offset < total {
		if total-offset < headerSize {
			break // torn header
		}
		if _, err := r.ReadAt(header, offset); err != nil {
			return nil, 0, err
		}
		length := binary.LittleEndian.Uint32(header[0:4])
		sum := binary.LittleEndian.Uint32(header[4:8])
		if int64(length) > total-offset-headerSize {
			break // torn payload
		}
		payload := make([]byte, length)
		if _, err := r.ReadAt(payload, offset+headerSize); err != nil {
			return nil, 0, err
		}
		if crc32.ChecksumIEEE(payload) != sum {
			if offset+headerSize+int64(length) >= total {
				break // torn final record (or torn batch: dropped whole)
			}
			return nil, 0, fmt.Errorf("%w at offset %d", ErrCorrupt, offset)
		}
		records := [][]byte{payload}
		if len(payload) > 0 && payload[0] == BatchMarker {
			// A CRC-valid batch frame is atomic: either the whole batch
			// replays or (torn, handled above) none of it does.
			sub, err := expandBatch(payload)
			if err != nil {
				return nil, 0, fmt.Errorf("%w at offset %d: %v", ErrCorrupt, offset, err)
			}
			records = sub
		}
		end := offset + headerSize + int64(length)
		frames = append(frames, Frame{Offset: offset, End: end, Records: records})
		offset = end
	}
	return frames, offset, nil
}

// ReadFrames scans the intact frames of the log at path from byte offset
// `from` without opening the file for writing and without truncating a
// torn tail — the read-only view a replication shipper takes of a live
// primary's journal (OpenLog would truncate bytes the primary is about
// to complete). A `from` beyond the current size returns no frames; a
// missing file returns an os.ErrNotExist-wrapped error.
func ReadFrames(path string, from int64) ([]Frame, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	if from > info.Size() {
		return nil, from, nil
	}
	return ScanFrames(f, from, info.Size())
}

// ReadFirst returns the first logical record of the log at path without
// writing, reading only its first frame; nil when the log holds no
// intact frame. Recovery checks a journal's format with it before
// OpenLog may truncate anything. A first frame whose CRC fails reads as
// nil here; OpenLog decides whether that is a torn tail or corruption.
func ReadFirst(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if info.Size() < headerSize {
		return nil, nil
	}
	header := make([]byte, headerSize)
	if _, err := f.ReadAt(header, 0); err != nil {
		return nil, err
	}
	end := min(info.Size(), headerSize+int64(binary.LittleEndian.Uint32(header[0:4])))
	frames, _, err := ScanFrames(f, 0, end)
	if err != nil || len(frames) == 0 || len(frames[0].Records) == 0 {
		return nil, err
	}
	return frames[0].Records[0], nil
}

// scan reads records until EOF or a torn/corrupt tail. It distinguishes a
// torn tail (incomplete final record: tolerated) from interior corruption
// (checksum mismatch followed by more data: fatal).
func scan(f *os.File) ([][]byte, int64, error) {
	info, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	frames, end, err := ScanFrames(f, 0, info.Size())
	if err != nil {
		return nil, 0, err
	}
	var records [][]byte
	for _, fr := range frames {
		records = append(records, fr.Records...)
	}
	return records, end, nil
}

// frameBatch packs payloads into one batch-frame payload:
// [BatchMarker][uvarint count]([uvarint len][bytes])*.
func frameBatch(payloads [][]byte) []byte {
	size := 1 + binary.MaxVarintLen64
	for _, p := range payloads {
		size += binary.MaxVarintLen64 + len(p)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, BatchMarker)
	buf = binary.AppendUvarint(buf, uint64(len(payloads)))
	for _, p := range payloads {
		buf = binary.AppendUvarint(buf, uint64(len(p)))
		buf = append(buf, p...)
	}
	return buf
}

// expandBatch unpacks a batch-frame payload back into its records.
func expandBatch(payload []byte) ([][]byte, error) {
	if len(payload) == 0 || payload[0] != BatchMarker {
		return nil, errors.New("not a batch frame")
	}
	b := payload[1:] // skip marker
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, errors.New("bad batch count")
	}
	b = b[n:]
	if count > uint64(len(b)) {
		// Each record costs at least one length byte, so a count beyond
		// the remaining payload is corrupt; checking before allocating
		// keeps a flipped count byte from demanding an absurd slice.
		return nil, errors.New("bad batch count")
	}
	records := make([][]byte, 0, count)
	for i := uint64(0); i < count; i++ {
		length, n := binary.Uvarint(b)
		if n <= 0 || uint64(len(b)-n) < length {
			return nil, fmt.Errorf("bad batch record %d", i)
		}
		records = append(records, b[n:n+int(length)])
		b = b[n+int(length):]
	}
	if len(b) != 0 {
		return nil, errors.New("trailing bytes in batch frame")
	}
	return records, nil
}

// SetSync configures fsync frequency: n = fsync every n appends
// (n <= 0 disables fsync on append).
func (l *Log) SetSync(n int) { l.syncEvery = n }

// Append writes one record and, per the sync policy, fsyncs.
func (l *Log) Append(payload []byte) error {
	header := make([]byte, headerSize)
	binary.LittleEndian.PutUint32(header[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(header[4:8], crc32.ChecksumIEEE(payload))
	if _, err := l.f.Write(header); err != nil {
		return fmt.Errorf("storage: append: %w", err)
	}
	if _, err := l.f.Write(payload); err != nil {
		return fmt.Errorf("storage: append: %w", err)
	}
	l.size += headerSize + int64(len(payload))
	l.pending++
	if l.syncEvery > 0 && l.pending >= l.syncEvery {
		l.pending = 0
		if err := l.sync(); err != nil {
			return err
		}
	}
	return nil
}

// AppendBatch writes payloads as one frame with a single write syscall —
// a legacy single-record frame for one payload, a batch frame otherwise —
// and fsyncs when sync is true, independent of the SetSync policy. A
// crash mid-write tears the whole frame: scan drops the entire batch, so
// a batch is committed atomically or not at all.
func (l *Log) AppendBatch(payloads [][]byte, sync bool) error {
	if err := fpAppendError.Hit(); err != nil {
		return fmt.Errorf("storage: append batch: %w", err)
	}
	if len(payloads) == 0 {
		if sync {
			return l.Sync()
		}
		return nil
	}
	payload := payloads[0]
	if len(payloads) > 1 || (len(payload) > 0 && payload[0] == BatchMarker) {
		// Multi-record batches get a batch frame; so does a single record
		// that happens to start with the marker byte, so scan can never
		// misread a plain record as a frame.
		payload = frameBatch(payloads)
	}
	buf := make([]byte, headerSize, headerSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	buf = append(buf, payload...)
	if a := fpTornWrite.Fire(); a != nil {
		l.tear(buf, a, len(buf)/2)
		return fmt.Errorf("storage: append batch: %w", a.Err)
	}
	if len(payloads) > 1 {
		// Tear inside the packed records of a batch frame: header and part
		// of the payload land on disk, so scan sees a CRC mismatch at the
		// tail and must drop the whole batch.
		if a := fpPartialBatch.Fire(); a != nil {
			l.tear(buf, a, headerSize+(len(buf)-headerSize)*3/4)
			return fmt.Errorf("storage: append batch: %w", a.Err)
		}
	}
	if _, err := l.f.Write(buf); err != nil {
		return fmt.Errorf("storage: append batch: %w", err)
	}
	l.size += int64(len(buf))
	if sync {
		l.pending = 0
		return l.sync()
	}
	l.pending += len(payloads)
	return nil
}

// tear writes a prefix of buf and, for an exit-kind action, terminates
// the process — the injected equivalent of the OS cutting a write short
// at a crash. The cut defaults to def; the arming's Arg overrides it.
// Error-kind armings skip the write (the frame never reaches the file)
// and return to the caller.
func (l *Log) tear(buf []byte, a *fault.Action, def int) {
	if a.Kind != fault.KindExit {
		return
	}
	cut := def
	if a.Arg > 0 && a.Arg < len(buf) {
		cut = a.Arg
	}
	_, _ = l.f.Write(buf[:cut])
	fault.Crash(*a)
}

// sync fsyncs the file, routing through the sync-error failpoint.
func (l *Log) sync() error {
	if err := fpSyncError.Hit(); err != nil {
		return fmt.Errorf("storage: sync: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("storage: sync: %w", err)
	}
	return nil
}

// Sync forces an fsync.
func (l *Log) Sync() error { return l.sync() }

// Size reports the current log size in bytes.
func (l *Log) Size() int64 { return l.size }

// Reset truncates the log to empty (after a checkpoint has captured its
// contents in a snapshot).
func (l *Log) Reset() error {
	if err := l.f.Truncate(0); err != nil {
		return err
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	l.size = 0
	return l.f.Sync()
}

// Close syncs and closes the log file.
func (l *Log) Close() error {
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// WriteSnapshot atomically replaces the snapshot file at path: the bytes
// are written to a temp file, fsynced, and renamed over the target.
func WriteSnapshot(path string, payload []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("storage: snapshot: %w", err)
	}
	header := make([]byte, headerSize)
	binary.LittleEndian.PutUint32(header[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(header[4:8], crc32.ChecksumIEEE(payload))
	if _, err := f.Write(header); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(payload); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("storage: snapshot rename: %w", err)
	}
	return syncDir(filepath.Dir(path))
}

// ReadSnapshot loads and verifies a snapshot file. A missing file returns
// (nil, nil).
func ReadSnapshot(path string) ([]byte, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if len(b) < headerSize {
		return nil, fmt.Errorf("%w: snapshot too short", ErrCorrupt)
	}
	length := binary.LittleEndian.Uint32(b[0:4])
	sum := binary.LittleEndian.Uint32(b[4:8])
	if int(length) != len(b)-headerSize {
		return nil, fmt.Errorf("%w: snapshot length mismatch", ErrCorrupt)
	}
	payload := b[headerSize:]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("%w: snapshot checksum", ErrCorrupt)
	}
	return payload, nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil // best effort; not all platforms support dir sync
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}
