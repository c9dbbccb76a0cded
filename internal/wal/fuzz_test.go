package wal

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"cadcam/internal/domain"
	"cadcam/internal/object"
	"cadcam/internal/oplog"
	"cadcam/internal/version"
)

// fuzzNames is the name table FuzzWALDecode decodes against; seeds in
// indexed form refer to it.
var fuzzNames = []string{"GateInterface", "GateImplementation", "Impls", "Length", "TimeBehavior",
	"AllOf_GateInterface", "SomeOf_Gate", "Pins", "WireType", "Pin1", "Pin2", "NAND", "alt", "Width"}

// primedJournal returns an encoder and a decoder that share the table
// fuzzNames: the encoder has emitted a batch using each name in order,
// and the decoder has read that batch.
func primedJournal(tb testing.TB) (*oplog.Encoder, *oplog.Decoder) {
	tb.Helper()
	enc, dec := new(oplog.Encoder), new(oplog.Decoder)
	var prime []*oplog.Op
	for _, n := range fuzzNames {
		prime = append(prime, &oplog.Op{Kind: oplog.KindDropIndex, Name: n})
	}
	for _, rec := range enc.EncodeBatch(prime) {
		if _, err := dec.Decode(rec); err != nil {
			tb.Fatal(err)
		}
	}
	return enc, dec
}

// FuzzWALDecode drives the operation decoder with arbitrary bytes —
// exactly what replay faces if a journal frame survives its CRC but
// carries a damaged payload. Input is one record, decoded against the
// name table fuzzNames. Decoding must error or succeed, never panic;
// and an accepted op must re-encode canonically, both inline (decode ∘
// encode is idempotent after the first round trip) and through a
// journal encoder sharing the table. The seeds cover every kind, in the
// inline form Op.Encode writes and the indexed form the journal writes.
func FuzzWALDecode(f *testing.F) {
	seedOps := []*oplog.Op{
		{Kind: oplog.KindNewObject, Name: "GateInterface", Out: 7},
		{Kind: oplog.KindSetAttr, Sur: 3, Name: "Length", Value: domain.Int(42), Seq: 9},
		{Kind: oplog.KindSetAttr, Sur: 3, Name: "Pt", Value: domain.NewRec("X", domain.Int(1), "Y", domain.Int(2))},
		{Kind: oplog.KindSetAttr, Sur: 3, Name: "L", Value: domain.NewList(domain.Str("a"), domain.Sym("IN"))},
		{Kind: oplog.KindSetAttr, Sur: 3, Name: "S", Value: domain.NewSet(domain.Bool(true), domain.Rl(2.5))},
		{Kind: oplog.KindSetAttr, Sur: 3, Name: "M", Value: domain.NewMatrix(2, 2,
			domain.Int(1), domain.Int(2), domain.Int(3), domain.Int(4))},
		{Kind: oplog.KindRelate, Name: "WireType",
			Parts: map[string]domain.Value{"Pin1": domain.Ref(4), "Pin2": domain.Ref(5)}, Out: 11, Seq: 3},
		{Kind: oplog.KindBind, Name: "AllOf_GateInterface", Sur: 2, Sur2: 6, Out: 12, Seq: 4},
		{Kind: oplog.KindAcknowledge, Name: "SomeOf_Gate", Sur: 2, Num: 77},
		{Kind: oplog.KindDelete, Sur: 9, Seq: 13},
	}
	for _, op := range seedOps {
		f.Add(op.Encode())
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	every := []*oplog.Op{
		{Kind: oplog.KindDefineClass, Name: "Impls", Name2: "GateImplementation", Seq: 1},
		{Kind: oplog.KindNewObject, Name: "GateImplementation", Name2: "Impls", Out: 70001, Seq: 2},
		{Kind: oplog.KindNewSubobject, Sur: 70001, Name: "Pins", Out: 70002, Seq: 3},
		{Kind: oplog.KindNewRelSubobject, Sur: 70003, Name: "Pins", Out: 70004, Seq: 4},
		{Kind: oplog.KindSetAttr, Sur: 70001, Name: "TimeBehavior", Value: domain.Int(5), Seq: 5},
		{Kind: oplog.KindRelate, Name: "WireType", Parts: map[string]domain.Value{"Pin1": domain.Ref(4), "Pin2": domain.Ref(5)}, Out: 70005, Seq: 6},
		{Kind: oplog.KindRelateIn, Sur: 70001, Name: "WireType", Parts: map[string]domain.Value{"Pin1": domain.Ref(4)}, Out: 70006, Seq: 7},
		{Kind: oplog.KindBind, Name: "AllOf_GateInterface", Sur: 70001, Sur2: 6, Out: 70007, Seq: 8},
		{Kind: oplog.KindUnbind, Name: "AllOf_GateInterface", Sur: 70001, Seq: 9},
		{Kind: oplog.KindAcknowledge, Name: "SomeOf_Gate", Sur: 2, Num: 77, Seq: 10},
		{Kind: oplog.KindDelete, Sur: 70001, Seq: 11},
		{Kind: oplog.KindDeletePolicy, Num: 1},
		{Kind: oplog.KindDefineDesign, Name: "NAND", Sur: 6},
		{Kind: oplog.KindAddVersion, Name: "NAND", Sur: 7, Surs: []domain.Surrogate{6}, Name2: "alt"},
		{Kind: oplog.KindSetStatus, Sur: 7, Name: "released"},
		{Kind: oplog.KindSetDefault, Name: "NAND", Sur: 7},
		{Kind: oplog.KindCreateIndex, Name: "w", Name2: "Impls", Value: domain.Str("Width"), Seq: 12},
		{Kind: oplog.KindDropIndex, Name: "w", Seq: 13},
	}
	if len(every) != int(oplog.KindDropIndex) {
		f.Fatalf("seeds cover %d kinds, want %d", len(every), oplog.KindDropIndex)
	}
	for _, op := range every {
		f.Add(op.Encode())
		enc, _ := primedJournal(f)
		recs := enc.EncodeBatch([]*oplog.Op{op})
		f.Add(recs[len(recs)-1])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		_, dec := primedJournal(t)
		op, err := dec.Decode(b)
		if err != nil || op == nil {
			return
		}
		b2 := op.Encode()
		op2, err := oplog.Decode(b2)
		if err != nil {
			t.Fatalf("re-decode of accepted op failed: %v\ninput:  %x\nencode: %x", err, b, b2)
		}
		if b3 := op2.Encode(); !bytes.Equal(b2, b3) {
			t.Fatalf("encoding not canonical after one round trip:\nfirst:  %x\nsecond: %x", b2, b3)
		}
		enc, dec := primedJournal(t)
		var got *oplog.Op
		for _, rec := range enc.EncodeBatch([]*oplog.Op{op2}) {
			if got, err = dec.Decode(rec); err != nil {
				t.Fatalf("journal round trip of an accepted op failed: %v\ninput: %x", err, b)
			}
		}
		if b4 := got.Encode(); !bytes.Equal(b2, b4) {
			t.Fatalf("journal round trip changed the op:\ninline:  %x\njournal: %x", b2, b4)
		}
	})
}

// everyFlagObject is an object record with every optional field set, so
// its flags byte has every defined bit.
func everyFlagObject() object.ObjectRecord {
	return object.ObjectRecord{
		Sur: 9, TypeName: "WireType", IsRel: true, Parent: 5, ParentSub: "Wires", OwnerClass: "C0", ModSeq: 7,
		Attrs:        map[string]domain.Value{"Length": domain.Rl(2.5)},
		Participants: map[string]domain.Value{"Pin1": domain.Ref(4), "Pin2": domain.Ref(6)},
	}
}

// FuzzSnapshotDecode drives the snapshot decoder the same way: recovery
// reads the snapshot blob before any journal record, so a damaged blob
// must be rejected with an error, never a panic or runaway allocation.
// The seeds include a string index past the table, a table count
// beyond the payload and an object with every flag bit set. An accepted
// blob must decode, re-encoded, to the same state.
func FuzzSnapshotDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeSnapshot(&object.StoreState{NextSur: 5, Seq: 3}, &version.ManagerState{}))
	f.Add(EncodeSnapshot(&object.StoreState{
		Classes: []object.ClassRecord{{Name: "C0", ElemType: "GateInterface_I"}},
		Objects: []object.ObjectRecord{{
			Sur: 1, TypeName: "GateInterface_I", OwnerClass: "C0", ModSeq: 2,
			Attrs: map[string]domain.Value{"Length": domain.Int(4)},
		}, everyFlagObject()},
		Bindings: []object.BindingRecord{{
			Sur: 2, RelType: "AllOf_GateInterface", Transmitter: 1, Inheritor: 3,
			Updates: 1, LastSeq: 2,
		}},
		NextSur: 10, Seq: 9,
	}, &version.ManagerState{}))
	f.Add(badIndexSnapshot())
	f.Add(hugeTableSnapshot())
	f.Fuzz(func(t *testing.T, b []byte) {
		st, vs, err := DecodeSnapshotState(b)
		if err != nil {
			return
		}
		st2, vs2, err := DecodeSnapshotState(EncodeSnapshot(st, vs))
		if err != nil {
			t.Fatalf("re-decode of accepted snapshot failed: %v", err)
		}
		if !deepEqualBits(st, st2) || !deepEqualBits(vs, vs2) {
			t.Fatalf("snapshot round trip changed the state:\nfirst:  %+v\nsecond: %+v", st, st2)
		}
	})
}

// deepEqualBits is reflect.DeepEqual, except that floats compare by their
// bits: a NaN read from a fuzzed blob equals itself.
func deepEqualBits(a, b any) bool { return equalBits(reflect.ValueOf(a), reflect.ValueOf(b)) }

func equalBits(a, b reflect.Value) bool {
	if a.IsValid() != b.IsValid() || !a.IsValid() {
		return a.IsValid() == b.IsValid()
	}
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return equalBits(a.Elem(), b.Elem())
	case reflect.Slice, reflect.Array:
		if a.Kind() == reflect.Slice && a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !equalBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for it := a.MapRange(); it.Next(); {
			if v := b.MapIndex(it.Key()); !v.IsValid() || !equalBits(it.Value(), v) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !equalBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return a.Equal(b)
}

// FuzzManifestDecode drives the checkpoint-manifest decoder with
// arbitrary bytes — what recovery faces when a manifest file's CRC frame
// survives but the payload is damaged. Decoding must error or succeed,
// never panic or over-allocate; an accepted manifest must re-encode to
// an accepted manifest.
func FuzzManifestDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF})
	f.Add(EncodeManifest(&Manifest{
		Epoch:     3,
		SegEpochs: []uint64{3, 1, 3, 2},
		Base:      &object.StoreState{NextSur: 9, Seq: 17},
		Versions:  &version.ManagerState{},
	}))
	f.Add(EncodeManifest(&Manifest{
		Epoch:     1,
		SegEpochs: []uint64{1},
		Base: &object.StoreState{
			Classes: []object.ClassRecord{{Name: "C0", ElemType: "GateInterface_I"}},
			NextSur: 2, Seq: 5,
		},
		Versions: &version.ManagerState{
			Designs: []version.DesignRecord{{Name: "D", Interface: 1, Default: 0}},
		},
	}))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeManifest(b)
		if err != nil {
			return
		}
		b2 := EncodeManifest(m)
		m2, err := DecodeManifest(b2)
		if err != nil {
			t.Fatalf("re-decode of accepted manifest failed: %v", err)
		}
		if len(m2.SegEpochs) != len(m.SegEpochs) || m2.Epoch != m.Epoch {
			t.Fatalf("manifest round trip changed shape: %+v vs %+v", m, m2)
		}
	})
}

// FuzzSegmentDecode drives the segment decoder the same way, pinned to
// partition 0 (the decoder rejects any payload claiming another
// partition, which the fuzzer will also exercise), seeded with the same
// two kinds of string-table damage as FuzzSnapshotDecode, an undefined
// flag bit and an object with every flag bit set. An accepted segment
// must decode, re-encoded, to the same records.
func FuzzSegmentDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeSegment(0, nil, nil))
	f.Add(EncodeSegment(0,
		[]object.ObjectRecord{{
			Sur: 16, TypeName: "GateInterface_I", ModSeq: 2,
			Attrs: map[string]domain.Value{"Length": domain.Int(4)},
		}, everyFlagObject()},
		[]object.BindingRecord{{
			Sur: 32, RelType: "AllOf_GateInterface", Transmitter: 16, Inheritor: 48,
			Updates: 3, LastSeq: 40, AckSeq: 38,
		}}))
	f.Add(badIndexSegment())
	f.Add(hugeTableSegment())
	f.Add(undefinedFlagSegment())
	f.Fuzz(func(t *testing.T, b []byte) {
		objs, binds, err := DecodeSegment(b, 0)
		if err != nil {
			return
		}
		objs2, binds2, err := DecodeSegment(EncodeSegment(0, objs, binds), 0)
		if err != nil {
			t.Fatalf("re-decode of accepted segment failed: %v", err)
		}
		if !deepEqualBits(objs, objs2) || !deepEqualBits(binds, binds2) {
			t.Fatalf("segment round trip changed the records:\nfirst:  %+v %+v\nsecond: %+v %+v", objs, binds, objs2, binds2)
		}
	})
}

// FuzzCheckpointImport drives the resync path end to end: a follower
// decodes whatever payload arrives in a CRC-valid snapshot frame and
// imports it into an empty store. Arbitrary bytes must fail with an error,
// never a panic, a hang or an allocation sized by a claimed count. The
// seed is a real shipped payload: a checkpoint written to a directory and
// read back as the shipper reads it.
func FuzzCheckpointImport(f *testing.F) {
	payload, _ := shippedPayload(f)
	f.Add(payload)
	f.Add(undeclaredAttrPayload(f))
	f.Add(hugeSurrogateCheckpoint(f, f.TempDir()))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		cp, err := DecodeCheckpoint(b)
		if err != nil {
			return
		}
		s, vm := freshShards(t, checkpointShards)
		ImportCheckpoint(cp, s, vm, 2)
	})
}
