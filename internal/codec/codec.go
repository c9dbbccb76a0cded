// Package codec implements the binary serialization used by the
// persistence layer: a tag-prefixed, varint-based encoding for
// domain.Value and length-prefixed helpers for strings and surrogates.
// The encoding is self-describing and stable across releases (tags are
// append-only).
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"cadcam/internal/domain"
)

// Value tags. Append-only: never renumber.
const (
	tagNull   byte = 0
	tagInt    byte = 1
	tagReal   byte = 2
	tagStr    byte = 3
	tagBool   byte = 4
	tagSym    byte = 5
	tagRef    byte = 6
	tagRec    byte = 7
	tagList   byte = 8
	tagSet    byte = 9
	tagMatrix byte = 10
)

// ErrCorrupt reports undecodable input.
var ErrCorrupt = errors.New("codec: corrupt data")

// Buf is an append-only encoder buffer.
type Buf struct {
	b []byte
}

// Bytes returns the encoded bytes.
func (e *Buf) Bytes() []byte { return e.b }

// Len returns the encoded size so far.
func (e *Buf) Len() int { return len(e.b) }

// Byte appends a raw byte.
func (e *Buf) Byte(b byte) { e.b = append(e.b, b) }

// Uvarint appends an unsigned varint.
func (e *Buf) Uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }

// Varint appends a signed varint.
func (e *Buf) Varint(v int64) { e.b = binary.AppendVarint(e.b, v) }

// Str appends a length-prefixed string.
func (e *Buf) Str(s string) {
	e.Uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

// Blob appends a length-prefixed byte string.
func (e *Buf) Blob(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.b = append(e.b, b...)
}

// Bool appends a boolean byte.
func (e *Buf) Bool(b bool) {
	if b {
		e.Byte(1)
	} else {
		e.Byte(0)
	}
}

// Sur appends a surrogate.
func (e *Buf) Sur(s domain.Surrogate) { e.Uvarint(uint64(s)) }

// Value appends an encoded value.
func (e *Buf) Value(v domain.Value) {
	switch x := v.(type) {
	case nil:
		e.Byte(tagNull)
	case domain.Int:
		e.Byte(tagInt)
		e.Varint(int64(x))
	case domain.Rl:
		e.Byte(tagReal)
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(float64(x)))
		e.b = append(e.b, buf[:]...)
	case domain.Str:
		e.Byte(tagStr)
		e.Str(string(x))
	case domain.Bool:
		e.Byte(tagBool)
		e.Bool(bool(x))
	case domain.Sym:
		e.Byte(tagSym)
		e.Str(string(x))
	case domain.Ref:
		e.Byte(tagRef)
		e.Uvarint(uint64(x))
	case *domain.Rec:
		e.Byte(tagRec)
		e.Uvarint(uint64(x.Len()))
		for i := 0; i < x.Len(); i++ {
			e.Str(x.FieldName(i))
			e.Value(x.FieldValue(i))
		}
	case *domain.List:
		e.Byte(tagList)
		e.Uvarint(uint64(x.Len()))
		for _, el := range x.Elems() {
			e.Value(el)
		}
	case *domain.Set:
		e.Byte(tagSet)
		e.Uvarint(uint64(x.Len()))
		for _, el := range x.Elems() {
			e.Value(el)
		}
	case *domain.Matrix:
		e.Byte(tagMatrix)
		e.Uvarint(uint64(x.Rows()))
		e.Uvarint(uint64(x.Cols()))
		for r := 0; r < x.Rows(); r++ {
			for c := 0; c < x.Cols(); c++ {
				e.Value(x.At(r, c))
			}
		}
	default:
		if domain.IsNull(v) {
			e.Byte(tagNull)
			return
		}
		panic(fmt.Sprintf("codec: unencodable value %T", v))
	}
}

// Strs appends a count-prefixed slice of strings.
func (e *Buf) Strs(s []string) {
	e.Uvarint(uint64(len(s)))
	for _, x := range s {
		e.Str(x)
	}
}

// Surs appends a slice of surrogates.
func (e *Buf) Surs(s []domain.Surrogate) {
	e.Uvarint(uint64(len(s)))
	for _, x := range s {
		e.Sur(x)
	}
}

// Reader decodes what Buf encodes.
type Reader struct {
	b   []byte
	pos int
	err error
}

// NewReader wraps encoded bytes.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decode error.
func (r *Reader) Err() error { return r.err }

// Rest reports how many undecoded bytes remain.
func (r *Reader) Rest() int { return len(r.b) - r.pos }

func (r *Reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w at offset %d", ErrCorrupt, r.pos)
	}
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil || r.pos >= len(r.b) {
		r.fail()
		return 0
	}
	b := r.b[r.pos]
	r.pos++
	return b
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.pos += n
	return v
}

// Varint reads a signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.pos:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.pos += n
	return v
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)-r.pos) {
		r.fail()
		return ""
	}
	s := string(r.b[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s
}

// Blob reads a length-prefixed byte string. The result aliases the
// input, not a copy.
func (r *Reader) Blob() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)-r.pos) {
		r.fail()
		return nil
	}
	b := r.b[r.pos : r.pos+int(n) : r.pos+int(n)]
	r.pos += int(n)
	return b
}

// Bool reads a boolean byte.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// Sur reads a surrogate.
func (r *Reader) Sur() domain.Surrogate { return domain.Surrogate(r.Uvarint()) }

// Value reads an encoded value.
func (r *Reader) Value() domain.Value {
	if r.err != nil {
		return domain.NullValue
	}
	switch tag := r.Byte(); tag {
	case tagNull:
		return domain.NullValue
	case tagInt:
		return domain.Int(r.Varint())
	case tagReal:
		if r.pos+8 > len(r.b) {
			r.fail()
			return domain.NullValue
		}
		bits := binary.LittleEndian.Uint64(r.b[r.pos:])
		r.pos += 8
		return domain.Rl(math.Float64frombits(bits))
	case tagStr:
		return domain.Str(r.Str())
	case tagBool:
		return domain.Bool(r.Bool())
	case tagSym:
		return domain.Sym(r.Str())
	case tagRef:
		return domain.Ref(r.Uvarint())
	case tagRec:
		n := r.Uvarint()
		if r.err != nil || n > uint64(r.Rest()) {
			r.fail()
			return domain.NullValue
		}
		pairs := make([]any, 0, 2*n)
		for i := uint64(0); i < n && r.err == nil; i++ {
			pairs = append(pairs, r.Str(), r.Value())
		}
		if r.err != nil {
			return domain.NullValue
		}
		return domain.NewRec(pairs...)
	case tagList, tagSet:
		n := r.Uvarint()
		if r.err != nil || n > uint64(r.Rest()) {
			r.fail()
			return domain.NullValue
		}
		elems := make([]domain.Value, 0, n)
		for i := uint64(0); i < n && r.err == nil; i++ {
			elems = append(elems, r.Value())
		}
		if r.err != nil {
			return domain.NullValue
		}
		if tag == tagList {
			return domain.NewList(elems...)
		}
		return domain.NewSet(elems...)
	case tagMatrix:
		rows, cols := r.Uvarint(), r.Uvarint()
		// rows*cols wraps in uint64 for adversarial inputs (2^32 × 2^32
		// → 0), which would slip a phantom huge matrix past a
		// product-only bound; `rows > rest/cols` is the same comparison
		// without the multiply. Zero-dimension matrices are legal and
		// carry no cells, but their dimensions still must fit an int.
		const maxDim = 1<<31 - 1
		rest := uint64(r.Rest())
		if r.err != nil || rows > maxDim || cols > maxDim ||
			(rows != 0 && cols != 0 && rows > rest/cols) {
			r.fail()
			return domain.NullValue
		}
		cells := make([]domain.Value, 0, rows*cols)
		for i := uint64(0); i < rows*cols && r.err == nil; i++ {
			cells = append(cells, r.Value())
		}
		if r.err != nil {
			return domain.NullValue
		}
		return domain.NewMatrix(int(rows), int(cols), cells...)
	default:
		r.fail()
		return domain.NullValue
	}
}

// Count reads an element count and fails unless that many elements of
// at least minSize bytes each fit in the rest of the input, so a damaged
// count can never size an allocation beyond the payload.
func (r *Reader) Count(minSize int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.Rest()/minSize) {
		r.fail()
		return 0
	}
	return int(n)
}

// Flags reads a flags byte and fails unless every set bit is one of
// defined's.
func (r *Reader) Flags(defined byte) byte {
	f := r.Byte()
	if f&^defined != 0 {
		r.fail()
		return 0
	}
	return f
}

// Strs reads a count-prefixed slice of strings; empty decodes as nil.
func (r *Reader) Strs() []string {
	n := r.Count(1) // each string carries at least its length byte
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, r.Str())
	}
	return out
}

// Pick reads an index into tab and returns that entry. The string is
// shared with tab, not copied. An index outside tab fails the reader and
// reads as "".
func (r *Reader) Pick(tab []string) string {
	i := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if i >= uint64(len(tab)) {
		r.fail()
		return ""
	}
	return tab[i]
}

// Ref reads a name reference: 0 followed by an inline string, or k for
// entry k-1 of tab, which is shared, not copied. An index outside tab
// fails the reader and reads as "".
func (r *Reader) Ref(tab []string) string {
	k := r.Uvarint()
	switch {
	case r.err != nil:
		return ""
	case k == 0:
		return r.Str()
	case k > uint64(len(tab)):
		r.fail()
		return ""
	}
	return tab[k-1]
}

// Surs reads a slice of surrogates; empty decodes as nil.
func (r *Reader) Surs() []domain.Surrogate {
	n := r.Uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	if n > uint64(r.Rest()) {
		r.fail()
		return nil
	}
	out := make([]domain.Surrogate, 0, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		out = append(out, r.Sur())
	}
	return out
}
