package oplog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"testing"

	"cadcam/internal/domain"
)

// packRecords frames records the way a batch frame packs them:
// ([uvarint len][bytes])*.
func packRecords(recs [][]byte) []byte {
	var b []byte
	for _, r := range recs {
		b = binary.AppendUvarint(b, uint64(len(r)))
		b = append(b, r...)
	}
	return b
}

// sameState reports whether two decoders hold the same table, last Seq,
// surrogate register and started flag.
func sameState(a, b *Decoder) bool {
	return slices.Equal(a.names, b.names) && a.prev == b.prev && a.sur == b.sur && a.started == b.started
}

// FuzzJournalDecode drives a Decoder with a sequence of records, packed
// as a batch frame packs them (a malformed length ends the sequence):
// format and name records and ops, what replay and a follower read, so
// the name table, the Seq delta state and the surrogate register carry
// across records and across format records. It must never panic. A
// record it rejects fails with ErrCorrupt or ErrFormat and leaves the
// decoder as it was; a record it accepts is rejected with a trailing
// byte added, decodes to the same op and state again from a copy of the
// decoder taken before it (the rewind replay relies on), and moves the
// last Seq to the op's non-zero Seq and the register to the op's Sur,
// else its Out; an accepted op re-encodes canonically. The seeds are
// journals an Encoder wrote (every op kind, several batches, Seqs out of
// order and zero, a second log handle) and hand-made defects: an
// undefined index, a sparse name record, a redefined index, records
// before the format record, Seq and surrogate deltas that wrap past 0
// or 2^64, and kind bytes with the next-Seq flag that are not ops.
func FuzzJournalDecode(f *testing.F) {
	var enc Encoder
	var journal [][]byte
	for k := KindDefineClass; k <= KindDropIndex; k++ {
		journal = append(journal, enc.EncodeBatch([]*Op{onlyFields(fullOp(k))})...)
	}
	journal = append(journal, enc.EncodeBatch([]*Op{
		{Kind: KindSetAttr, Sur: 70001, Name: "TimeBehavior", Value: domain.Int(5), Seq: 9},
		{Kind: KindSetAttr, Sur: 70002, Name: "Wires", Value: domain.NullValue, Seq: 10},
	})...)
	f.Add(packRecords(journal))
	enc.Reset()
	second := enc.EncodeBatch([]*Op{{Kind: KindSetAttr, Sur: 3, Name: "Length", Value: domain.Int(4), Seq: 11}})
	f.Add(packRecords(append(journal, second...)))

	format := []byte{byte(KindFormat), FormatVersion}
	f.Add(packRecords([][]byte{format, {byte(KindDropIndex), 0, 1}}))                              // undefined index
	f.Add(packRecords([][]byte{format, {byte(KindName), 3, 1, 'A'}}))                              // sparse name record
	f.Add(packRecords([][]byte{format, {byte(KindName), 0, 1, 'A'}, {byte(KindName), 0, 1, 'B'}})) // redefined index
	f.Add(packRecords([][]byte{{byte(KindName), 0, 1, 'A'}, format}))                              // name before format
	f.Add(packRecords([][]byte{(&Op{Kind: KindDelete, Sur: 1}).Encode(), format}))                 // op before format
	f.Add([]byte{})
	f.Add(packRecords([][]byte{format, opRecord(KindDelete, -2, 1)}))                                                    // Seq past 0
	f.Add(packRecords([][]byte{format, opRecord(KindDelete, math.MaxInt64, 1), opRecord(KindDelete, math.MaxInt64, 0)})) // Seq past 2^64
	f.Add(packRecords([][]byte{format, append(opRecord(KindBind|flagNextSeq, 1, -2, 1), 0, 1, 'A')}))                    // Sur2 past 0
	f.Add(packRecords([][]byte{format, append(opRecord(KindNewObject|flagNextSeq, math.MaxInt64), 0, 0, 0, 0),
		append(opRecord(KindRelate|flagNextSeq, math.MaxInt64), 0, 0, 0), append(opRecord(KindNewObject|flagNextSeq, 2), 0, 0, 0, 0)})) // Out past 2^64
	f.Add(packRecords([][]byte{format, {byte(KindFormat | flagNextSeq), FormatVersion}, {byte(KindName | flagNextSeq), 0, 1, 'A'}}))

	// Concurrent writers: Seqs out of order, an op without one, a jump,
	// then a second handle whose deltas restart from zero.
	enc.Reset()
	var seqs [][]byte
	for _, seq := range []uint64{12, 11, 0, 13, 1 << 40, 14} {
		seqs = append(seqs, enc.EncodeBatch([]*Op{{Kind: KindDelete, Sur: 5, Seq: seq}})...)
	}
	f.Add(packRecords(seqs))
	enc.Reset()
	f.Add(packRecords(append(seqs, enc.EncodeBatch([]*Op{{Kind: KindDelete, Sur: 5, Seq: 12}})...)))

	f.Fuzz(func(t *testing.T, b []byte) {
		var d Decoder
		for len(b) > 0 {
			n, k := binary.Uvarint(b)
			if k <= 0 || n > uint64(len(b)-k) {
				return
			}
			rec := b[k : k+int(n)]
			b = b[k+int(n):]

			before := d
			op, err := d.Decode(rec)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrFormat) {
					t.Fatalf("untyped error %v for % x", err, rec)
				}
				if !sameState(&d, &before) {
					t.Fatalf("rejected record % x changed the decoder", rec)
				}
				continue
			}
			long := append(slices.Clone(rec), 0)
			if _, err := before.Decode(long); err == nil {
				t.Fatalf("record with a trailing byte accepted: % x", long)
			}
			rewound := before
			again, err := rewound.Decode(rec)
			if err != nil || (op == nil) != (again == nil) || !sameState(&rewound, &d) {
				t.Fatalf("record % x decodes differently from a saved decoder: %v", rec, err)
			}
			if op == nil {
				continue
			}
			if again.Seq != op.Seq {
				t.Fatalf("record % x: Seq %d, then %d from a saved decoder", rec, op.Seq, again.Seq)
			}
			wantPrev := before.prev
			if op.Seq != 0 {
				wantPrev = op.Seq
			}
			if d.prev != wantPrev {
				t.Fatalf("op with Seq %d left the last Seq at %d (was %d)", op.Seq, d.prev, before.prev)
			}
			if want := op.nextSur(before.sur); d.sur != want || rewound.sur != want {
				t.Fatalf("op %+v left the surrogate register at %d, and %d from a saved decoder (was %d, want %d)",
					op, d.sur, rewound.sur, before.sur, want)
			}
			inline := op.Encode()
			again, err = Decode(inline)
			if err != nil {
				t.Fatalf("inline re-encoding of an accepted op does not decode: %v\n% x", err, inline)
			}
			if b2 := again.Encode(); !bytes.Equal(inline, b2) {
				t.Fatalf("inline encoding not canonical:\n% x\n% x", inline, b2)
			}
		}
	})
}
