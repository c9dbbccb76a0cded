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
	"math/bits"
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
	fpDirSync      = fault.New("wal/dir-sync")
)

// ErrDirSync reports a failed sync of the directory that holds a new log
// or a renamed snapshot: the file's name may not survive a power loss.
var ErrDirSync = errors.New("storage: directory sync failed")

// ErrCorrupt reports a record whose checksum does not match. A corrupt
// record in the *middle* of the log is fatal; a torn record at the tail
// is truncated silently (the write never committed).
var ErrCorrupt = errors.New("storage: corrupt log record")

// ErrLegacyFrame reports a log that opens with an intact frame of the
// fixed 8-byte header layout journals used before the varint header:
// a journal an earlier release wrote, which this one must not truncate
// or misread.
var ErrLegacyFrame = errors.New("storage: log written in the 8-byte frame layout of an earlier release")

// A log frame is
//
//	uvarint(len<<1 | batched) · CRC32-IEEE (4 bytes, little-endian) · payload
//
// where len is the payload's length. The CRC covers the varint and the
// payload, so a flipped length or flag bit fails the check just as a
// flipped payload byte does. An unbatched payload is one bare record; a
// batched payload is uvarint(count) followed by count
// uvarint(len)·record pairs. A one-record commit batch, the common case,
// pays a 5-byte header (6 from a 64-byte record up).
const crcSize = 4

// snapshotHeaderSize is the header of a snapshot file: a 4-byte
// little-endian payload length and a 4-byte CRC32-IEEE of the payload.
const snapshotHeaderSize = 8

// errTorn marks bytes that end inside a frame, or a frame that fails its
// CRC with nothing behind it: the tail a crash leaves mid-write.
var errTorn = errors.New("storage: torn frame")

// Log is an append-only record log. Appends are atomic at the frame
// level: a crash mid-write leaves a torn tail that Open truncates.
type Log struct {
	f    *os.File
	path string
	size int64
}

// OpenLog opens (creating if necessary) the log at path, scans and
// returns all intact records, and truncates a torn tail. An empty log,
// just created or left empty by a crash, has its directory synced, so
// its name is durable before any record is acked into it; if that sync
// fails, the log is removed again and the error wraps ErrDirSync.
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
	if validSize == 0 {
		if err := syncDir(filepath.Dir(path)); err != nil {
			// An empty next-epoch log marks its predecessor complete.
			f.Close()
			_ = os.Remove(path)
			return nil, nil, err
		}
	}
	return &Log{f: f, path: path, size: validSize}, records, nil
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
	if total <= from {
		return nil, from, nil
	}
	buf := make([]byte, total-from)
	if _, err := r.ReadAt(buf, from); err != nil {
		return nil, 0, err
	}
	var frames []Frame
	offset := from
	for b := buf; len(b) > 0; {
		records, size, err := parseFrame(b)
		if errors.Is(err, errTorn) {
			break // a torn batch is dropped whole
		}
		if err != nil {
			return nil, 0, fmt.Errorf("%w at offset %d", err, offset)
		}
		frames = append(frames, Frame{Offset: offset, End: offset + int64(size), Records: records})
		offset += int64(size)
		b = b[size:]
	}
	return frames, offset, nil
}

// parseFrame decodes the frame at the start of b and returns its records
// and its size. It fails with errTorn when b ends inside the frame (a
// partial varint, fewer than 4 CRC bytes, a short payload) or the frame
// fails its CRC and ends exactly where b does, and with an error
// wrapping ErrCorrupt for a header varint longer than 64 bits, a CRC
// failure with bytes behind it, or a CRC-valid batched payload that
// does not unpack.
func parseFrame(b []byte) ([][]byte, int, error) {
	v, n := binary.Uvarint(b)
	if n < 0 {
		return nil, 0, fmt.Errorf("%w: frame header overflows 64 bits", ErrCorrupt)
	}
	if n == 0 || len(b)-n < crcSize || v>>1 > uint64(len(b)-n-crcSize) {
		return nil, 0, errTorn
	}
	size := n + crcSize + int(v>>1)
	payload := b[n+crcSize : size]
	if crc32.Update(crc32.ChecksumIEEE(b[:n]), crc32.IEEETable, payload) != binary.LittleEndian.Uint32(b[n:]) {
		if size == len(b) {
			return nil, 0, errTorn // torn final frame (or a flipped bit in it)
		}
		return nil, 0, fmt.Errorf("%w: checksum", ErrCorrupt)
	}
	if v&1 == 0 {
		return [][]byte{payload}, size, nil
	}
	// A CRC-valid batch frame is atomic: either the whole batch replays
	// or (torn, handled above) none of it does.
	records, err := expandBatch(payload)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return records, size, nil
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
// A log that opens with an intact frame of the earlier 8-byte header
// layout fails with ErrLegacyFrame instead: OpenLog would misread it.
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
	size := info.Size()
	head := make([]byte, min(size, binary.MaxVarintLen64+crcSize))
	if _, err := f.ReadAt(head, 0); err != nil {
		return nil, err
	}
	end := size
	if v, n := binary.Uvarint(head); n > 0 && v>>1 < uint64(size) {
		end = min(size, int64(n+crcSize)+int64(v>>1))
	}
	frames, _, err := ScanFrames(f, 0, end)
	if err == nil && len(frames) > 0 {
		return frames[0].Records[0], nil
	}
	if legacy, lerr := legacyFrame(f, size); lerr != nil {
		return nil, lerr
	} else if legacy {
		return nil, ErrLegacyFrame
	}
	return nil, err
}

// legacyFrame reports whether r opens with an intact frame of the
// earlier layout: a 4-byte little-endian payload length, a 4-byte
// CRC32-IEEE of the payload, then the payload.
func legacyFrame(r io.ReaderAt, size int64) (bool, error) {
	if size < snapshotHeaderSize {
		return false, nil
	}
	header := make([]byte, snapshotHeaderSize)
	if _, err := r.ReadAt(header, 0); err != nil {
		return false, err
	}
	length := int64(binary.LittleEndian.Uint32(header[0:4]))
	if length > size-snapshotHeaderSize {
		return false, nil
	}
	payload := make([]byte, length)
	if _, err := r.ReadAt(payload, snapshotHeaderSize); err != nil {
		return false, err
	}
	return crc32.ChecksumIEEE(payload) == binary.LittleEndian.Uint32(header[4:8]), nil
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

// frame encodes payloads as one frame — bare for a single payload,
// batched otherwise — and returns it with its header length.
func frame(payloads [][]byte) ([]byte, int) {
	length, batched := len(payloads[0]), uint64(0)
	if len(payloads) > 1 {
		length, batched = uvarintLen(uint64(len(payloads))), 1
		for _, p := range payloads {
			length += uvarintLen(uint64(len(p))) + len(p)
		}
	}
	buf := make([]byte, 0, binary.MaxVarintLen64+crcSize+length)
	buf = binary.AppendUvarint(buf, uint64(length)<<1|batched)
	n := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	if batched == 0 {
		buf = append(buf, payloads[0]...)
	} else {
		buf = binary.AppendUvarint(buf, uint64(len(payloads)))
		for _, p := range payloads {
			buf = binary.AppendUvarint(buf, uint64(len(p)))
			buf = append(buf, p...)
		}
	}
	sum := crc32.Update(crc32.ChecksumIEEE(buf[:n]), crc32.IEEETable, buf[n+crcSize:])
	binary.LittleEndian.PutUint32(buf[n:], sum)
	return buf, n + crcSize
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// expandBatch unpacks a batched payload into its records.
func expandBatch(b []byte) ([][]byte, error) {
	count, n := binary.Uvarint(b)
	if n <= 0 || count == 0 {
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

// AppendBatch writes payloads as one frame with a single write syscall
// and fsyncs when sync is true. A crash mid-write tears the whole frame:
// scan drops the entire batch, so a batch is committed atomically or not
// at all.
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
	buf, header := frame(payloads)
	if a := fpTornWrite.Fire(); a != nil {
		l.tear(buf, a, len(buf)/2)
		return fmt.Errorf("storage: append batch: %w", a.Err)
	}
	if len(payloads) > 1 {
		// Tear inside the packed records of a batch frame: header and part
		// of the payload land on disk, so scan sees a CRC mismatch at the
		// tail and must drop the whole batch.
		if a := fpPartialBatch.Fire(); a != nil {
			l.tear(buf, a, header+(len(buf)-header)*3/4)
			return fmt.Errorf("storage: append batch: %w", a.Err)
		}
	}
	if _, err := l.f.Write(buf); err != nil {
		return fmt.Errorf("storage: append batch: %w", err)
	}
	l.size += int64(len(buf))
	if sync {
		return l.sync()
	}
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
	header := make([]byte, snapshotHeaderSize)
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
	if len(b) < snapshotHeaderSize {
		return nil, fmt.Errorf("%w: snapshot too short", ErrCorrupt)
	}
	length := binary.LittleEndian.Uint32(b[0:4])
	sum := binary.LittleEndian.Uint32(b[4:8])
	if int(length) != len(b)-snapshotHeaderSize {
		return nil, fmt.Errorf("%w: snapshot length mismatch", ErrCorrupt)
	}
	payload := b[snapshotHeaderSize:]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("%w: snapshot checksum", ErrCorrupt)
	}
	return payload, nil
}

// syncDir makes the entries of dir durable: the names of the files just
// created in it or renamed into it. Errors wrap ErrDirSync.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err == nil {
		err = errors.Join(fpDirSync.Hit(), d.Sync(), d.Close())
	}
	if err != nil {
		return fmt.Errorf("%w: %s: %w", ErrDirSync, dir, err)
	}
	return nil
}
