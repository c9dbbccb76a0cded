// Package oplog defines the logical operation records the database
// journals. It is a leaf package (values and codec only) so that both the
// object store (which emits ops as it mutates) and the recovery machinery
// (which replays them) can depend on it without cycles.
package oplog

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"cadcam/internal/codec"
	"cadcam/internal/domain"
)

// Kind identifies a logical operation. Append-only: never renumber.
type Kind uint8

// Operation kinds.
const (
	KindInvalid Kind = iota
	KindDefineClass
	KindNewObject
	KindNewSubobject
	KindNewRelSubobject
	KindSetAttr
	KindRelate
	KindRelateIn
	KindBind
	KindUnbind
	KindAcknowledge
	KindDelete
	KindDeletePolicy
	KindDefineDesign
	KindAddVersion
	KindSetStatus
	KindSetDefault
	// KindCreateIndex journals a secondary-index definition: Name is the
	// index name, Name2 the class, Value the attribute (as a Str). The
	// index contents are rebuilt by replay, never logged.
	KindCreateIndex
	KindDropIndex

	// KindName and KindFormat head journal records that are not ops; a
	// Decoder consumes them (see journal.go). A name record
	// [KindName][idx][string] sets entry idx of the name table; a format
	// record [KindFormat][version] opens each log handle and empties the
	// table.
	KindName
	KindFormat
)

// ErrCorrupt reports a record that does not decode: truncated, followed
// by trailing bytes, of an unknown kind, or naming an index its name
// table does not hold.
var ErrCorrupt = errors.New("oplog: corrupt record")

// Op is one journaled operation. Field use depends on Kind (kindFields);
// unused fields stay zero and are not encoded. Out records the surrogate
// a creation op produced, so replay can verify determinism.
type Op struct {
	Kind  Kind
	Sur   domain.Surrogate // primary object
	Sur2  domain.Surrogate // secondary (transmitter, parent, ...)
	Out   domain.Surrogate // surrogate assigned by a creation op
	Name  string           // type/class/attr/design name
	Name2 string           // secondary name
	Value domain.Value
	Parts map[string]domain.Value
	Surs  []domain.Surrogate
	Num   int64

	// Seq is the store sequence number the op consumed (0 for ops that
	// consume none). With concurrent writers on a sharded store, journal
	// append order and sequence order can diverge; replay primes the
	// store's counter from Seq before re-executing each op so every
	// re-execution reproduces its original sequence assignment.
	Seq uint64
}

// fields is the set of Op fields a kind carries on the wire. Every op
// record also carries Kind and Seq.
type fields uint16

const (
	fSur fields = 1 << iota
	fSur2
	fOut
	fName
	fName2
	fValue
	fParts
	fSurs
	fNum
)

// kindFields lists the fields each op kind encodes, in this wire order:
// Sur, Sur2, Out, Name, Name2, Value, Parts, Surs, Num. A kind missing
// here (KindInvalid, the table records, unknown bytes) is not an op.
var kindFields = [...]fields{
	KindDefineClass:     fName | fName2,
	KindNewObject:       fOut | fName | fName2,
	KindNewSubobject:    fSur | fOut | fName,
	KindNewRelSubobject: fSur | fOut | fName,
	KindSetAttr:         fSur | fName | fValue,
	KindRelate:          fOut | fName | fParts,
	KindRelateIn:        fSur | fOut | fName | fParts,
	KindBind:            fSur | fSur2 | fOut | fName,
	KindUnbind:          fSur | fName,
	KindAcknowledge:     fSur | fName | fNum,
	KindDelete:          fSur,
	KindDeletePolicy:    fNum,
	KindDefineDesign:    fSur | fName,
	KindAddVersion:      fSur | fName | fName2 | fSurs,
	KindSetStatus:       fSur | fName,
	KindSetDefault:      fSur | fName,
	KindCreateIndex:     fName | fName2 | fValue,
	KindDropIndex:       fName,
}

// nextSur returns the surrogate register after the op, given the one
// before: the op's Sur, else its Out, else the register unchanged.
func (op *Op) nextSur(reg domain.Surrogate) domain.Surrogate {
	switch f := op.Kind.fields(); {
	case f&fSur != 0:
		return op.Sur
	case f&fOut != 0:
		return op.Out
	}
	return reg
}

// fields returns the fields an op of kind k encodes; 0 when k is not an
// op kind (every op kind carries at least one field besides Seq).
func (k Kind) fields() fields {
	if int(k) < len(kindFields) {
		return kindFields[k]
	}
	return 0
}

// Clone returns a copy of the op that shares no mutable containers with
// the original. The group-commit pipeline encodes ops after the emitting
// store call has returned, so the journaled op must not alias the Parts
// map or Surs slice the caller may go on to reuse. domain.Values are
// immutable by convention, so a shallow copy of the containers suffices.
func (op *Op) Clone() *Op {
	c := *op
	if op.Parts != nil {
		c.Parts = make(map[string]domain.Value, len(op.Parts))
		for k, v := range op.Parts {
			c.Parts[k] = v
		}
	}
	if op.Surs != nil {
		c.Surs = append([]domain.Surrogate(nil), op.Surs...)
	}
	return &c
}

// Encode serializes the op on its own, every name written inline, so the
// bytes need no name table to decode (Decode). Ack logs and record keys
// use it; the journal writes through an Encoder instead.
func (op *Op) Encode() []byte {
	var e codec.Buf
	op.encode(&e, nil)
	return e.Bytes()
}

// encode appends the op record: [kind][Seq] and then the kind's fields.
// With an Encoder, Seq and the surrogates are relative to the handle's
// state (see Encoder) and names go through its table; with a nil one,
// Seq and the surrogates are uvarints and names are inline.
func (op *Op) encode(e *codec.Buf, enc *Encoder) {
	f := op.Kind.fields()
	var base domain.Surrogate
	num := func(v, base uint64) { e.Uvarint(v) }
	if enc == nil {
		e.Byte(byte(op.Kind))
		e.Uvarint(op.Seq)
	} else {
		num = func(v, base uint64) { e.Varint(int64(v - base)) }
		if op.Seq == enc.prev+1 {
			e.Byte(byte(op.Kind) | flagNextSeq)
		} else {
			e.Byte(byte(op.Kind))
			num(op.Seq, enc.prev+1)
		}
		if op.Seq != 0 {
			enc.prev = op.Seq
		}
		base, enc.sur = enc.sur, op.nextSur(enc.sur)
	}
	if f&fSur != 0 {
		num(uint64(op.Sur), uint64(base))
		base = op.Sur
	}
	if f&fSur2 != 0 {
		num(uint64(op.Sur2), uint64(base))
	}
	if f&fOut != 0 {
		num(uint64(op.Out), uint64(base))
	}
	if f&fName != 0 {
		enc.ref(e, op.Name)
	}
	if f&fName2 != 0 {
		enc.ref(e, op.Name2)
	}
	if f&fValue != 0 {
		e.Value(op.Value)
	}
	if f&fParts != 0 {
		keys := sortedKeys(op.Parts)
		e.Uvarint(uint64(len(keys)))
		for _, k := range keys {
			enc.ref(e, k)
			e.Value(op.Parts[k])
		}
	}
	if f&fSurs != 0 {
		e.Surs(op.Surs)
	}
	if f&fNum != 0 {
		e.Varint(op.Num)
	}
}

// eachName calls fn with every name the op's kind encodes, in wire order.
func (op *Op) eachName(fn func(string)) {
	f := op.Kind.fields()
	if f&fName != 0 {
		fn(op.Name)
	}
	if f&fName2 != 0 {
		fn(op.Name2)
	}
	if f&fParts != 0 {
		for _, k := range sortedKeys(op.Parts) {
			fn(k)
		}
	}
}

func sortedKeys(m map[string]domain.Value) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Decode deserializes an op written by Op.Encode: names must be inline,
// and a kind byte with the flagNextSeq bit is not an op. Journal records
// go through a Decoder, which holds the name table and the Seq and
// surrogate state.
func Decode(b []byte) (*Op, error) { return decodeOp(b, nil) }

// decodeOp decodes one op record. With a Decoder, Seq and the surrogates
// are relative to its state, one that would wrap past 0 or 2^64 is
// corrupt, and name indices resolve in its table; with a nil one, Seq
// and the surrogates are uvarints and names must be inline.
func decodeOp(b []byte, d *Decoder) (*Op, error) {
	r := codec.NewReader(b)
	k := r.Byte()
	next := d != nil && k&flagNextSeq != 0
	if d != nil {
		k &^= flagNextSeq
	}
	op := &Op{Kind: Kind(k)}
	f := op.Kind.fields()
	if r.Err() == nil && f == 0 {
		return nil, fmt.Errorf("%w: kind byte %d is not an op", ErrCorrupt, b[0])
	}
	var names []string
	var prev uint64
	var base domain.Surrogate
	if d != nil {
		names, prev, base = d.names, d.prev, d.sur
	}
	// num reads Seq or a surrogate: a uvarint in the stateless form, else
	// from + inc + a signed delta, which is 0 without a byte when implied.
	inRange := true
	num := func(from, inc uint64, implied bool) uint64 {
		if d == nil {
			return r.Uvarint()
		}
		var delta int64
		if !implied {
			delta = r.Varint()
		}
		v, carry := bits.Add64(from, uint64(delta), inc)
		inRange = inRange && (carry == 0) == (delta >= 0)
		return v
	}
	op.Seq = num(prev, 1, next)
	if f&fSur != 0 {
		op.Sur = domain.Surrogate(num(uint64(base), 0, false))
		base = op.Sur
	}
	if f&fSur2 != 0 {
		op.Sur2 = domain.Surrogate(num(uint64(base), 0, false))
	}
	if f&fOut != 0 {
		op.Out = domain.Surrogate(num(uint64(base), 0, false))
	}
	if !inRange && r.Err() == nil {
		return nil, fmt.Errorf("%w: kind %d: a Seq or surrogate delta wraps past 0 or 2^64", ErrCorrupt, op.Kind)
	}
	if f&fName != 0 {
		op.Name = r.Ref(names)
	}
	if f&fName2 != 0 {
		op.Name2 = r.Ref(names)
	}
	if f&fValue != 0 {
		op.Value = r.Value()
	}
	if f&fParts != 0 {
		// Each entry is at least a name reference and a value tag.
		if n := r.Count(2); n > 0 {
			op.Parts = make(map[string]domain.Value, n)
			for i := 0; i < n && r.Err() == nil; i++ {
				k := r.Ref(names)
				op.Parts[k] = r.Value()
			}
		}
	}
	if f&fSurs != 0 {
		op.Surs = r.Surs()
	}
	if f&fNum != 0 {
		op.Num = r.Varint()
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: kind %d: %v", ErrCorrupt, op.Kind, err)
	}
	if r.Rest() != 0 {
		return nil, fmt.Errorf("%w: kind %d: %d trailing bytes", ErrCorrupt, op.Kind, r.Rest())
	}
	return op, nil
}
