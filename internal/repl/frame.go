package repl

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// Frame kinds. Hello opens a session and Sync probes for catch-up (both
// follower → shipper); everything else flows shipper → follower.
const (
	KindHello     byte = 1 // follower's resume position and applied seq
	KindBatch     byte = 2 // one sealed journal frame's records
	KindSnapshot  byte = 3 // full checkpoint state (resync)
	KindReset     byte = 4 // resync of a primary with no checkpoint: start empty
	KindHeartbeat byte = 5 // idle keep-alive carrying the sealed seq
	KindSync      byte = 6 // follower's catch-up probe carrying a fresh token
)

// FlagResync on a Hello asks the shipper to ignore the position and
// start over from its newest checkpoint.
const FlagResync byte = 1

// frameHeader is the CRC frame header every message carries: a 4-byte
// length and a 4-byte CRC32-IEEE of the payload, paid once per message
// (the on-disk journal, which pays a header per commit batch, uses a
// varint header instead). A torn or corrupted transport write fails the
// length or the CRC, as a torn journal tail does.
const frameHeader = 8

// maxFrameRecords bounds the record count a decoder will allocate for,
// keeping a corrupt or adversarial length field from ballooning memory.
const maxFrameRecords = 1 << 20

// ErrFrame reports a transport message that failed CRC or structural
// validation.
var ErrFrame = errors.New("repl: corrupt frame")

// Frame is one replication message.
//
// For a Batch, Epoch/Offset/End locate the sealed journal frame in the
// primary's chain (the follower resumes from End), Seq is the stream
// sequence of the batch's first record — the follower's applied count
// plus one when nothing was lost — and Sealed is the stream sequence of
// the newest record the shipper has scanned, so the follower can
// measure its lag mid-catch-up. A Hello reuses Epoch/Offset/Seq as the
// resume position and applied count. A Snapshot carries the encoded
// checkpoint state in Blob with Epoch naming the checkpoint epoch. A
// Sync carries its token in Epoch; a Heartbeat reuses Epoch for the
// newest Sync token the shipper had received when the scan that found
// nothing to ship began.
type Frame struct {
	Kind    byte
	Flags   byte
	Epoch   uint64
	Offset  int64
	End     int64
	Seq     uint64
	Sealed  uint64
	Records [][]byte
	Blob    []byte
}

// Encode serializes the frame: CRC header, then
// kind flags uvarint(epoch offset end seq sealed)
// uvarint(count){uvarint(len) bytes}* uvarint(bloblen) blob.
func (f *Frame) Encode() []byte {
	// One allocation: the payload is built behind room for the header, in
	// a buffer sized for the longest varints (kind and flags, five
	// fields, the record count and the blob length), so a large Blob (a
	// resync checkpoint) is copied once.
	size := frameHeader + 2 + 7*binary.MaxVarintLen64 + len(f.Blob)
	for _, r := range f.Records {
		size += binary.MaxVarintLen64 + len(r)
	}
	out := make([]byte, frameHeader, size)
	payload := append(out[frameHeader:], f.Kind, f.Flags)
	payload = binary.AppendUvarint(payload, f.Epoch)
	payload = binary.AppendUvarint(payload, uint64(f.Offset))
	payload = binary.AppendUvarint(payload, uint64(f.End))
	payload = binary.AppendUvarint(payload, f.Seq)
	payload = binary.AppendUvarint(payload, f.Sealed)
	payload = binary.AppendUvarint(payload, uint64(len(f.Records)))
	for _, r := range f.Records {
		payload = binary.AppendUvarint(payload, uint64(len(r)))
		payload = append(payload, r...)
	}
	payload = binary.AppendUvarint(payload, uint64(len(f.Blob)))
	payload = append(payload, f.Blob...)

	out = out[:frameHeader+len(payload)]
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(payload))
	return out
}

// DecodeFrame parses and CRC-checks one encoded frame. Any truncation,
// checksum mismatch, length overrun or unknown kind yields ErrFrame —
// the receiver drops the connection and resumes from its last applied
// position instead of guessing.
func DecodeFrame(b []byte) (*Frame, error) {
	if len(b) < frameHeader {
		return nil, ErrFrame
	}
	length := binary.LittleEndian.Uint32(b[0:4])
	sum := binary.LittleEndian.Uint32(b[4:8])
	if uint64(length) != uint64(len(b)-frameHeader) {
		return nil, ErrFrame
	}
	payload := b[frameHeader:]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, ErrFrame
	}
	if len(payload) < 2 {
		return nil, ErrFrame
	}
	f := &Frame{Kind: payload[0], Flags: payload[1]}
	if f.Kind < KindHello || f.Kind > KindSync {
		return nil, ErrFrame
	}
	d := payload[2:]
	var fields [5]uint64
	for i := range fields {
		v, n := binary.Uvarint(d)
		if n <= 0 {
			return nil, ErrFrame
		}
		fields[i], d = v, d[n:]
	}
	f.Epoch, f.Seq, f.Sealed = fields[0], fields[3], fields[4]
	f.Offset, f.End = int64(fields[1]), int64(fields[2])
	if f.Offset < 0 || f.End < 0 {
		return nil, ErrFrame
	}
	count, n := binary.Uvarint(d)
	if n <= 0 || count > maxFrameRecords || count > uint64(len(d)) {
		return nil, ErrFrame
	}
	d = d[n:]
	if count > 0 {
		f.Records = make([][]byte, 0, count)
	}
	for i := uint64(0); i < count; i++ {
		rl, n := binary.Uvarint(d)
		if n <= 0 || rl > uint64(len(d)-n) {
			return nil, ErrFrame
		}
		f.Records = append(f.Records, d[n:n+int(rl)])
		d = d[n+int(rl):]
	}
	bl, n := binary.Uvarint(d)
	if n <= 0 || bl != uint64(len(d)-n) {
		return nil, ErrFrame
	}
	if bl > 0 {
		f.Blob = d[n:]
	}
	return f, nil
}
