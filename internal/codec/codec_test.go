package codec

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"cadcam/internal/domain"
)

func roundTrip(t *testing.T, v domain.Value) domain.Value {
	t.Helper()
	var e Buf
	e.Value(v)
	r := NewReader(e.Bytes())
	got := r.Value()
	if err := r.Err(); err != nil {
		t.Fatalf("decode %s: %v", v, err)
	}
	if r.Rest() != 0 {
		t.Fatalf("decode %s: %d trailing bytes", v, r.Rest())
	}
	return got
}

func TestValueRoundTrip(t *testing.T) {
	values := []domain.Value{
		domain.NullValue,
		domain.Int(0),
		domain.Int(-12345),
		domain.Int(1 << 60),
		domain.Rl(3.25),
		domain.Rl(-0.0),
		domain.Str(""),
		domain.Str("weight carrying structure"),
		domain.Bool(true),
		domain.Bool(false),
		domain.Sym("NAND"),
		domain.Ref(42),
		domain.NewRec("X", domain.Int(1), "Y", domain.Int(2)),
		domain.NewRec(),
		domain.NewList(domain.Int(1), domain.Str("a"), domain.NullValue),
		domain.NewList(),
		domain.NewSet(domain.Int(1), domain.Int(2)),
		domain.NewSet(),
		domain.NewMatrix(2, 2, domain.Bool(true), domain.Bool(false), domain.Bool(false), domain.Bool(true)),
		domain.NewMatrix(0, 0),
		domain.NewRec("nested", domain.NewList(domain.NewSet(domain.Sym("IN")))),
	}
	for _, v := range values {
		got := roundTrip(t, v)
		if !got.Equal(v) {
			t.Errorf("round trip: %s != %s", got, v)
		}
	}
}

func TestScalarHelpers(t *testing.T) {
	var e Buf
	e.Uvarint(300)
	e.Varint(-7)
	e.Str("hagen")
	e.Bool(true)
	e.Sur(99)
	e.Surs([]domain.Surrogate{1, 2, 3})

	r := NewReader(e.Bytes())
	if r.Uvarint() != 300 {
		t.Error("uvarint")
	}
	if r.Varint() != -7 {
		t.Error("varint")
	}
	if r.Str() != "hagen" {
		t.Error("str")
	}
	if !r.Bool() {
		t.Error("bool")
	}
	if r.Sur() != 99 {
		t.Error("sur")
	}
	if got := r.Surs(); len(got) != 3 || got[2] != 3 {
		t.Errorf("surs = %v", got)
	}
	if r.Err() != nil || r.Rest() != 0 {
		t.Errorf("err=%v rest=%d", r.Err(), r.Rest())
	}
}

// TestEmptyMapRoundTrip: an empty surrogate list decodes as nil.
func TestEmptyMapRoundTrip(t *testing.T) {
	var e Buf
	e.Surs(nil)
	r := NewReader(e.Bytes())
	if s := r.Surs(); s != nil {
		t.Errorf("empty surs = %v", s)
	}
}

func TestCorruptInput(t *testing.T) {
	bad := [][]byte{
		{},             // empty
		{255},          // unknown tag
		{1},            // int tag without payload
		{3, 10, 'a'},   // string shorter than its length
		{7, 200},       // record with absurd field count
		{8, 200},       // list with absurd length
		{10, 200, 200}, // matrix with absurd shape
		{2, 1, 2, 3},   // real with short payload
	}
	for _, b := range bad {
		r := NewReader(b)
		r.Value()
		if r.Err() == nil {
			t.Errorf("input % x should fail", b)
		}
	}
	// Truncated varint.
	r := NewReader([]byte{0x80})
	r.Uvarint()
	if r.Err() == nil {
		t.Error("truncated varint should fail")
	}
	// Reads after an error return zero values, not panic.
	if r.Str() != "" || r.Bool() || r.Sur() != 0 {
		t.Error("post-error reads should be zero")
	}
	if r.Surs() != nil {
		t.Error("post-error composite reads should be nil")
	}
}

// genValue builds a random value of bounded depth.
func genValue(r *rand.Rand, depth int) domain.Value {
	if depth <= 0 {
		switch r.Intn(7) {
		case 0:
			return domain.Int(r.Int63() - (1 << 62))
		case 1:
			return domain.Rl(r.NormFloat64() * 1e6)
		case 2:
			buf := make([]byte, r.Intn(12))
			for i := range buf {
				buf[i] = byte('a' + r.Intn(26))
			}
			return domain.Str(string(buf))
		case 3:
			return domain.Bool(r.Intn(2) == 0)
		case 4:
			return domain.Sym("SYM")
		case 5:
			return domain.Ref(domain.Surrogate(r.Uint64()))
		default:
			return domain.NullValue
		}
	}
	switch r.Intn(4) {
	case 0:
		n := r.Intn(4)
		elems := make([]domain.Value, n)
		for i := range elems {
			elems[i] = genValue(r, depth-1)
		}
		return domain.NewList(elems...)
	case 1:
		n := r.Intn(4)
		elems := make([]domain.Value, n)
		for i := range elems {
			elems[i] = genValue(r, depth-1)
		}
		return domain.NewSet(elems...)
	case 2:
		return domain.NewRec("a", genValue(r, depth-1), "b", genValue(r, depth-1))
	default:
		return domain.NewMatrix(1, 2, genValue(r, depth-1), genValue(r, depth-1))
	}
}

type anyVal struct{ V domain.Value }

func (anyVal) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(anyVal{V: genValue(r, 3)})
}

// Property: every value round-trips bit-exactly.
func TestQuickRoundTrip(t *testing.T) {
	f := func(a anyVal) bool {
		var e Buf
		e.Value(a.V)
		r := NewReader(e.Bytes())
		got := r.Value()
		return r.Err() == nil && r.Rest() == 0 && got.Equal(a.V)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: decoding arbitrary noise never panics.
func TestQuickNoiseNeverPanics(t *testing.T) {
	f := func(noise []byte) bool {
		r := NewReader(noise)
		_ = r.Value()
		_ = r.Surs()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestRef: 0 reads an inline string, k reads entry k-1 of the table, and
// an index past the table fails the reader.
func TestRef(t *testing.T) {
	tab := []string{"Length", "Width"}
	var e Buf
	e.Uvarint(0)
	e.Str("TimeBehavior")
	e.Uvarint(2)
	e.Uvarint(1)
	r := NewReader(e.Bytes())
	if a, b, c := r.Ref(tab), r.Ref(tab), r.Ref(tab); a != "TimeBehavior" || b != "Width" || c != "Length" || r.Err() != nil || r.Rest() != 0 {
		t.Fatalf("Ref = %q %q %q, err %v, rest %d", a, b, c, r.Err(), r.Rest())
	}
	for _, b := range [][]byte{{3}, {0, 5, 'a'}, {}} {
		if r := NewReader(b); r.Ref(tab) != "" || r.Err() == nil {
			t.Errorf("Ref(% x) accepted", b)
		}
	}
	if r := NewReader([]byte{1}); r.Ref(nil) != "" || r.Err() == nil {
		t.Error("index into an empty table accepted")
	}
}
