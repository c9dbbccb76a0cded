package oplog

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"cadcam/internal/domain"
)

// opRecord hand-builds the head of a journal op record: the kind byte,
// then each delta (Seq, surrogates) as a signed varint.
func opRecord(kind Kind, vals ...int64) []byte {
	b := []byte{byte(kind)}
	for _, v := range vals {
		b = binary.AppendVarint(b, v)
	}
	return b
}

func decodeAll(t *testing.T, d *Decoder, recs [][]byte) []*Op {
	t.Helper()
	var ops []*Op
	for i, rec := range recs {
		op, err := d.Decode(rec)
		if err != nil {
			t.Fatalf("record %d (% x): %v", i, rec, err)
		}
		if op != nil {
			ops = append(ops, op)
		}
	}
	return ops
}

// TestEncoderNamesOnce: a handle's first batch opens with a format
// record, a name record precedes the first op using that name, and later
// batches refer to the name by index only. Reset starts a new handle.
// The kinds are read with the flagNextSeq bit masked off.
func TestEncoderNamesOnce(t *testing.T) {
	var enc Encoder
	ops := []*Op{
		{Kind: KindNewObject, Name: "GateImplementation", Out: 70001, Seq: 9},
		{Kind: KindSetAttr, Sur: 70001, Name: "TimeBehavior", Value: domain.Int(3), Seq: 10},
	}
	first := enc.EncodeBatch(ops)
	kinds := func(recs [][]byte) (ks []Kind) {
		for _, r := range recs {
			ks = append(ks, Kind(r[0]&^flagNextSeq))
		}
		return ks
	}
	want := []Kind{KindFormat, KindName, KindName, KindNewObject, KindName, KindSetAttr}
	if got := kinds(first); len(got) != len(want) {
		t.Fatalf("first batch kinds %v, want %v", got, want)
	}
	for i, k := range kinds(first) {
		if k != want[i] {
			t.Fatalf("first batch kinds %v, want %v", kinds(first), want)
		}
	}
	second := enc.EncodeBatch(ops)
	if got := kinds(second); len(got) != 2 {
		t.Fatalf("second batch kinds %v, want the two ops only", got)
	}
	// NewObject: kind, Seq delta (9 follows 10), Out relative to the
	// register (the last op's Sur), type and class index; SetAttr: kind
	// with the next-Seq flag, Sur relative to the register (the Out just
	// written), attribute index, value tag and varint.
	if n := len(second[0]); n != 1+1+1+1+1 {
		t.Errorf("indexed NewObject is %d bytes", n)
	}
	if n := len(second[1]); n != 1+1+1+2 {
		t.Errorf("indexed SetAttr is %d bytes", n)
	}

	var dec Decoder
	got := decodeAll(t, &dec, append(first, second...))
	if len(got) != 4 {
		t.Fatalf("decoded %d ops, want 4", len(got))
	}
	for i, op := range got {
		if !sameOp(op, ops[i%2]) {
			t.Errorf("op %d: got %+v, want %+v", i, op, ops[i%2])
		}
	}

	enc.Reset()
	third := enc.EncodeBatch(ops[1:])
	if got := kinds(third); len(got) != 3 || got[0] != KindFormat || got[1] != KindName {
		t.Fatalf("batch after Reset kinds %v, want format, name, op", got)
	}
	// The new handle numbers its names afresh: index 0 is now the
	// attribute, which the format record lets the decoder see.
	if got := decodeAll(t, &dec, third); len(got) != 1 || !sameOp(got[0], ops[1]) {
		t.Fatalf("after reset: %+v", got)
	}
}

// TestDecoderRejects: every malformed or out-of-order record fails with
// a typed error and leaves the table as it was.
func TestDecoderRejects(t *testing.T) {
	format := []byte{byte(KindFormat), FormatVersion}
	name0 := []byte{byte(KindName), 0, 1, 'A'}
	for _, c := range []struct {
		name string
		recs [][]byte
		want error
	}{
		{"op before format", [][]byte{(&Op{Kind: KindDelete, Sur: 1}).Encode()}, ErrFormat},
		{"name before format", [][]byte{name0}, ErrFormat},
		{"old format version", [][]byte{{byte(KindFormat), 1}}, ErrFormat},
		{"format trailing byte", [][]byte{append(format, 0)}, ErrCorrupt},
		{"undefined index", [][]byte{format, name0, {byte(KindDropIndex), 0, 2}}, ErrCorrupt},
		{"index after reset", [][]byte{format, name0, format, {byte(KindDropIndex), 0, 1}}, ErrCorrupt},
		{"sparse name record", [][]byte{format, {byte(KindName), 1, 1, 'B'}}, ErrCorrupt},
		{"redefined index", [][]byte{format, name0, {byte(KindName), 0, 1, 'B'}}, ErrCorrupt},
		{"name trailing byte", [][]byte{format, append(name0, 0)}, ErrCorrupt},
		{"op trailing byte", [][]byte{format, append((&Op{Kind: KindDelete, Sur: 1}).Encode(), 0)}, ErrCorrupt},
		{"empty record", [][]byte{format, {}}, ErrCorrupt},
		{"Seq delta past 0", [][]byte{format, opRecord(KindDelete, -2, 1)}, ErrCorrupt},
		{"Seq delta past 2^64", [][]byte{format, opRecord(KindDelete, math.MaxInt64, 1),
			opRecord(KindDelete, math.MaxInt64, 0)}, ErrCorrupt},
		{"next Seq past 2^64", [][]byte{format, opRecord(KindDelete, math.MaxInt64, 1),
			opRecord(KindDelete, math.MaxInt64-1, 0), opRecord(KindDelete|flagNextSeq, 0)}, ErrCorrupt},
		{"Sur delta past 0", [][]byte{format, opRecord(KindDelete|flagNextSeq, -1)}, ErrCorrupt},
		{"Out delta past 0", [][]byte{format, append(opRecord(KindNewObject|flagNextSeq, -1), 0, 0, 0, 0)}, ErrCorrupt},
		{"Sur2 offset past 0", [][]byte{format, append(opRecord(KindBind|flagNextSeq, 1, -2, 1), 0, 1, 'A')}, ErrCorrupt},
		{"Sur delta past 2^64", [][]byte{format, opRecord(KindDelete|flagNextSeq, math.MaxInt64),
			opRecord(KindDelete|flagNextSeq, math.MaxInt64), opRecord(KindDelete|flagNextSeq, 2)}, ErrCorrupt},
		{"flagged format record", [][]byte{format, {byte(KindFormat | flagNextSeq), FormatVersion}}, ErrCorrupt},
	} {
		var d Decoder
		var err error
		for _, rec := range c.recs {
			if _, err = d.Decode(rec); err != nil {
				break
			}
		}
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}

	// Deltas that stay within [0, 2^64) reach both ends of it.
	var edge Decoder
	ops := decodeAll(t, &edge, [][]byte{format,
		opRecord(KindDelete, math.MaxInt64, math.MaxInt64),
		opRecord(KindDelete, math.MaxInt64-1, math.MaxInt64),
		opRecord(KindDelete, math.MinInt64, 1),
		opRecord(KindDelete, math.MinInt64, math.MinInt64),
		opRecord(KindDelete, -2, math.MinInt64+1),
		opRecord(KindDelete|flagNextSeq, 0)})
	for i, want := range [][2]uint64{{1 << 63, 1<<63 - 1}, {math.MaxUint64, math.MaxUint64 - 1},
		{1 << 63, math.MaxUint64}, {1, 1<<63 - 1}, {0, 0}, {2, 0}} {
		if ops[i].Seq != want[0] || uint64(ops[i].Sur) != want[1] {
			t.Errorf("edge op %d: Seq %d, Sur %d; want %d, %d", i, ops[i].Seq, ops[i].Sur, want[0], want[1])
		}
	}

	// A rejected name record does not touch the table, nor does one
	// that defines an entry again: no encoder writes that, so it can
	// only come from a corrupt journal.
	var d Decoder
	decodeAll(t, &d, [][]byte{format, name0})
	if _, err := d.Decode([]byte{byte(KindName), 0, 1, 'Z', 0}); err == nil {
		t.Fatal("trailing byte accepted")
	}
	for _, redef := range [][]byte{name0, {byte(KindName), 0, 1, 'Z'}} {
		if _, err := d.Decode(redef); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("name record % x defining index 0 again: %v, want ErrCorrupt", redef, err)
		}
	}
	op, err := d.Decode([]byte{byte(KindDropIndex), 0, 1})
	if err != nil || op.Name != "A" {
		t.Fatalf("after rejected record: %+v, %v", op, err)
	}
}

// TestEncoderSeqDelta: an op's Seq is written as a signed delta from the
// handle's last non-zero Seq plus one, except that the next sequence
// number costs no byte (the kind byte's flagNextSeq bit); Seqs out of
// order and zero round-trip, a zero leaves the last Seq where it was,
// and a new handle starts the deltas afresh.
func TestEncoderSeqDelta(t *testing.T) {
	seqs := []uint64{70000, 70001, 70003, 69990, 0, 69991, 1 << 40}
	var enc Encoder
	var recs [][]byte
	for _, seq := range seqs {
		recs = append(recs, enc.EncodeBatch([]*Op{{Kind: KindDelete, Sur: 5, Seq: seq}})...)
	}
	// Format record, then kind, Seq delta and surrogate per op: the
	// first Seq and the zero are far from the last, two are near it and
	// two are the next one, which writes no delta.
	for i, want := range []int{1 + 3 + 1, 1 + 0 + 1, 1 + 1 + 1, 1 + 1 + 1, 1 + 3 + 1, 1 + 0 + 1} {
		if n := len(recs[i+1]); n != want {
			t.Errorf("op %d (Seq %d) is %d bytes, want %d", i, seqs[i], n, want)
		}
	}
	enc.Reset()
	recs = append(recs, enc.EncodeBatch([]*Op{{Kind: KindDelete, Sur: 5, Seq: 70002}})...)
	seqs = append(seqs, 70002)
	var d Decoder
	got := decodeAll(t, &d, recs)
	if len(got) != len(seqs) {
		t.Fatalf("decoded %d ops, want %d", len(got), len(seqs))
	}
	for i, op := range got {
		if op.Seq != seqs[i] {
			t.Errorf("op %d: Seq %d, want %d", i, op.Seq, seqs[i])
		}
	}
}
