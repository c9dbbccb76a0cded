package oplog

import (
	"errors"
	"fmt"

	"cadcam/internal/codec"
	"cadcam/internal/domain"
)

// FormatVersion is the journal record format a format record announces.
// Version 1, which wrote every Op field and spelled every name in every
// record, had no format record; version 2 wrote each op's Seq in full
// and sat in fixed 8-byte frame headers; version 3 wrote a Seq delta in
// every op and every surrogate in full. Journals of any of them are
// refused.
const FormatVersion = 4

// flagNextSeq on a journal op's kind byte (kinds stop below it) says its
// Seq is the handle's previous one plus one and no Seq delta follows.
const flagNextSeq = 0x80

// ErrFormat reports a journal that does not open with a format record of
// FormatVersion, such as one written before the name-indexed format.
var ErrFormat = errors.New("oplog: journal not in a supported record format")

// Encoder writes ops for one journal log handle. Each name an op carries
// is written as an index into a per-handle name table; the first time
// the handle uses a name, the Encoder puts a name record defining it
// ahead of the op, in the same batch, and the handle's first batch opens
// with a format record. Each op's Seq is relative to prev, the last
// non-zero Seq the handle wrote (0 at its start): the usual prev+1 is
// the flagNextSeq bit on the kind byte, any other Seq the zigzag varint
// of Seq − (prev+1), signed because concurrent writers may append out of
// sequence order. Surrogates are zigzag varints relative to a neighbour
// (DESIGN.md §6 note 20): Sur from the handle's surrogate register, Sur2
// and Out from the op's Sur, or Out from the register when the kind has
// no Sur; the register then moves to Sur, else Out (Op.nextSur). Every
// log file decodes from its start alone. Reset starts a new handle. An
// Encoder is not safe for concurrent use; the group-commit leader owns
// it.
type Encoder struct {
	index   map[string]uint64 // name → table index + 1
	prev    uint64            // the last non-zero Seq written
	sur     domain.Surrogate  // the surrogate register
	started bool              // the format record has been emitted
}

// Reset forgets every emitted name, the last Seq, the surrogate register
// and the format record: the next batch starts a new log handle.
func (enc *Encoder) Reset() { *enc = Encoder{} }

// EncodeBatch returns the journal payloads of a commit batch: the
// handle's format record if none was emitted yet, then each op preceded
// by name records for the names it is the first to use. The payloads
// share one buffer.
func (enc *Encoder) EncodeBatch(ops []*Op) [][]byte {
	var e codec.Buf
	ends := make([]int, 0, len(ops)+1)
	if !enc.started {
		enc.started = true
		e.Byte(byte(KindFormat))
		e.Uvarint(FormatVersion)
		ends = append(ends, e.Len())
	}
	for _, op := range ops {
		op.eachName(func(s string) {
			if _, ok := enc.index[s]; ok {
				return
			}
			if enc.index == nil {
				enc.index = make(map[string]uint64)
			}
			idx := uint64(len(enc.index))
			enc.index[s] = idx + 1
			e.Byte(byte(KindName))
			e.Uvarint(idx)
			e.Str(s)
			ends = append(ends, e.Len())
		})
		op.encode(&e, enc)
		ends = append(ends, e.Len())
	}
	b := e.Bytes()
	out := make([][]byte, len(ends))
	start := 0
	for i, end := range ends {
		out[i] = b[start:end:end]
		start = end
	}
	return out
}

// ref writes a name reference: the table index + 1 when the name is in
// the table, else 0 and the string inline. A nil Encoder writes inline.
func (enc *Encoder) ref(e *codec.Buf, s string) {
	if enc != nil {
		if k, ok := enc.index[s]; ok {
			e.Uvarint(k)
			return
		}
	}
	e.Uvarint(0)
	e.Str(s)
}

// Decoder reads a journal's records in order, keeping the name table its
// name records build, the last non-zero Seq its ops carried and the
// surrogate register (each op's Seq and surrogates are written relative
// to them, see Encoder). Records must be fed in journal order, exactly
// once each, from the start of a log file (or of a stream of whole log
// files): the first must be a format record. A format record empties the
// table and zeroes the last Seq and the register, as each log handle
// starts them afresh. A copy of a Decoder value saves its state, and
// assigning the copy back restores it: a reader that decodes records it
// then fails to apply rewinds that way, so the records decode again to
// the same ops. A Decoder is not safe for concurrent use.
type Decoder struct {
	names   []string // entries are never overwritten in place: a copy shares them
	prev    uint64
	sur     domain.Surrogate
	started bool
}

// Decode decodes the next record. Format and name records update the
// decoder and return a nil op. A failed record leaves the decoder as it
// was. Errors wrap ErrCorrupt, or ErrFormat when the journal does not
// open with a supported format record.
func (d *Decoder) Decode(b []byte) (*Op, error) {
	if len(b) > 0 && Kind(b[0]) == KindFormat {
		r := codec.NewReader(b[1:])
		v := r.Uvarint()
		if err := r.Err(); err != nil || r.Rest() != 0 {
			return nil, fmt.Errorf("%w: format record % x", ErrCorrupt, b)
		}
		if v != FormatVersion {
			return nil, fmt.Errorf("%w: format version %d, want %d", ErrFormat, v, FormatVersion)
		}
		*d = Decoder{started: true}
		return nil, nil
	}
	if !d.started {
		return nil, fmt.Errorf("%w: journal does not open with a format record", ErrFormat)
	}
	if len(b) > 0 && Kind(b[0]) == KindName {
		r := codec.NewReader(b[1:])
		idx, s := r.Uvarint(), r.Str()
		switch {
		case r.Err() != nil || r.Rest() != 0:
			return nil, fmt.Errorf("%w: name record % x", ErrCorrupt, b)
		case idx != uint64(len(d.names)):
			return nil, fmt.Errorf("%w: name record sets index %d of a %d-name table", ErrCorrupt, idx, len(d.names))
		}
		d.names = append(d.names, s)
		return nil, nil
	}
	op, err := decodeOp(b, d)
	if err == nil {
		if op.Seq != 0 {
			d.prev = op.Seq
		}
		d.sur = op.nextSur(d.sur)
	}
	return op, err
}
