package oplog

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"cadcam/internal/domain"
)

// fullOp returns an op of kind k with every field set.
func fullOp(k Kind) *Op {
	return &Op{
		Kind:  k,
		Sur:   7,
		Sur2:  8,
		Out:   9,
		Name:  "Wires",
		Name2: "WireType",
		Value: domain.NewList(domain.Int(1)),
		Parts: map[string]domain.Value{
			"Pin1": domain.Ref(1),
			"Pin2": domain.Ref(2),
		},
		Surs: []domain.Surrogate{3, 4, 5},
		Num:  -12,
		Seq:  41,
	}
}

// onlyFields zeroes the fields kind k does not encode.
func onlyFields(op *Op) *Op {
	f := op.Kind.fields()
	c := &Op{Kind: op.Kind, Seq: op.Seq}
	if f&fSur != 0 {
		c.Sur = op.Sur
	}
	if f&fSur2 != 0 {
		c.Sur2 = op.Sur2
	}
	if f&fOut != 0 {
		c.Out = op.Out
	}
	if f&fName != 0 {
		c.Name = op.Name
	}
	if f&fName2 != 0 {
		c.Name2 = op.Name2
	}
	if f&fValue != 0 {
		c.Value = op.Value
	}
	if f&fParts != 0 && len(op.Parts) > 0 {
		c.Parts = op.Parts
	}
	if f&fSurs != 0 && len(op.Surs) > 0 {
		c.Surs = op.Surs
	}
	if f&fNum != 0 {
		c.Num = op.Num
	}
	return c
}

// sameOp compares two ops field by field.
func sameOp(a, b *Op) bool {
	if a.Kind != b.Kind || a.Sur != b.Sur || a.Sur2 != b.Sur2 || a.Out != b.Out ||
		a.Name != b.Name || a.Name2 != b.Name2 || a.Num != b.Num || a.Seq != b.Seq ||
		len(a.Parts) != len(b.Parts) || len(a.Surs) != len(b.Surs) {
		return false
	}
	for k, v := range a.Parts {
		if w, ok := b.Parts[k]; !ok || !w.Equal(v) {
			return false
		}
	}
	for i, s := range a.Surs {
		if b.Surs[i] != s {
			return false
		}
	}
	if a.Value == nil || b.Value == nil {
		return a.Value == nil && b.Value == nil
	}
	return a.Value.Equal(b.Value)
}

// TestRoundTripAllFields: every kind round-trips the fields it uses and
// Seq; the fields it does not use are not written.
func TestRoundTripAllFields(t *testing.T) {
	for k := KindDefineClass; k <= KindDropIndex; k++ {
		op := fullOp(k)
		got, err := Decode(op.Encode())
		if err != nil {
			t.Fatalf("kind %d: %v", k, err)
		}
		if want := onlyFields(op); !sameOp(got, want) {
			t.Errorf("kind %d: got %+v, want %+v", k, got, want)
		}
	}
	// A set attribute carries no Parts, Surs or second surrogate, so its
	// record is the kind, Seq, Sur, an inline name and the value.
	op := &Op{Kind: KindSetAttr, Sur: 3, Name: "Length", Value: domain.Int(4), Seq: 5}
	if got := len(op.Encode()); got != 1+1+1+1+1+len("Length")+2 {
		t.Errorf("SetAttr record is %d bytes", got)
	}
}

func TestZeroOpRoundTrip(t *testing.T) {
	op := &Op{Kind: KindDelete}
	got, err := Decode(op.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindDelete || got.Sur != 0 || got.Name != "" || got.Parts != nil || got.Surs != nil {
		t.Errorf("zero op: %+v", got)
	}
}

func TestDecodeErrors(t *testing.T) {
	bad := [][]byte{
		{},
		{byte(KindSetAttr)},          // truncated after kind
		{byte(KindSetAttr), 1, 2, 3}, // truncated mid-fields
		{byte(KindDelete), 1, 2, 0},  // trailing byte
		{byte(KindInvalid), 0},       // not an op
		{byte(KindName), 0, 0},       // a name record is not an op
		{byte(KindFormat), 2},        // nor is a format record
		{99, 0},                      // unknown kind
		{byte(KindDropIndex), 0, 1},  // a name index without a table
	}
	for _, b := range bad {
		if _, err := Decode(b); err == nil {
			t.Errorf("input % x should fail", b)
		}
	}
	// The next-Seq flag belongs to journal records only: with it, a
	// stateless record that decodes without it is not an op.
	for k := KindDefineClass; k <= KindDropIndex; k++ {
		b := onlyFields(fullOp(k)).Encode()
		b[0] |= flagNextSeq
		if _, err := Decode(b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("kind %d with the next-Seq flag: %v, want ErrCorrupt", k, err)
		}
	}
}

type randomOp struct{ Op *Op }

func (randomOp) Generate(r *rand.Rand, _ int) reflect.Value {
	op := &Op{
		Kind:  Kind(1 + r.Intn(int(KindDropIndex))),
		Sur:   domain.Surrogate(r.Uint64() >> 1),
		Sur2:  domain.Surrogate(r.Uint64() >> 1),
		Out:   domain.Surrogate(r.Uint64() >> 1),
		Name:  randName(r),
		Name2: randName(r),
		Num:   r.Int63() - (1 << 62),
	}
	if r.Intn(2) == 0 {
		op.Value = domain.Int(r.Int63())
	} else {
		op.Value = domain.NullValue
	}
	for i := 0; i < r.Intn(3); i++ {
		if op.Parts == nil {
			op.Parts = map[string]domain.Value{}
		}
		op.Parts[randName(r)] = domain.Ref(r.Uint64())
	}
	for i := 0; i < r.Intn(3); i++ {
		op.Surs = append(op.Surs, domain.Surrogate(r.Uint64()))
	}
	op.Seq = uint64(r.Int63())
	return reflect.ValueOf(randomOp{Op: onlyFields(op)})
}

func randName(r *rand.Rand) string {
	b := make([]byte, r.Intn(10))
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return string(b)
}

// Property: ops round-trip exactly, alone and through a journal.
func TestQuickOpRoundTrip(t *testing.T) {
	var enc Encoder
	var dec Decoder
	f := func(a randomOp) bool {
		got, err := Decode(a.Op.Encode())
		if err != nil || !sameOp(got, a.Op) {
			return false
		}
		var last *Op
		for _, rec := range enc.EncodeBatch([]*Op{a.Op}) {
			if last, err = dec.Decode(rec); err != nil {
				return false
			}
		}
		return last != nil && sameOp(last, a.Op)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
