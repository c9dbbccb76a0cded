package wal

import (
	"bytes"
	"testing"

	"cadcam/internal/domain"
	"cadcam/internal/object"
	"cadcam/internal/oplog"
	"cadcam/internal/version"
)

// FuzzWALDecode drives the operation decoder with arbitrary bytes —
// exactly what replay faces if a journal frame survives its CRC but
// carries a damaged payload. Decoding must error or succeed, never
// panic; and an accepted record must re-encode canonically (decode ∘
// encode is idempotent after the first round trip).
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
	f.Fuzz(func(t *testing.T, b []byte) {
		op, err := oplog.Decode(b)
		if err != nil {
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
	})
}

// FuzzSnapshotDecode drives the snapshot decoder the same way: recovery
// reads the snapshot blob before any journal record, so a damaged blob
// must be rejected with an error, never a panic or runaway allocation.
// The seeds include a string index past the table and a table count
// beyond the payload.
func FuzzSnapshotDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeSnapshot(&object.StoreState{NextSur: 5, Seq: 3}, &version.ManagerState{}))
	f.Add(EncodeSnapshot(&object.StoreState{
		Classes: []object.ClassRecord{{Name: "C0", ElemType: "GateInterface_I"}},
		Objects: []object.ObjectRecord{{
			Sur: 1, TypeName: "GateInterface_I", OwnerClass: "C0", ModSeq: 2,
			Attrs: map[string]domain.Value{"Length": domain.Int(4)},
		}},
		Bindings: []object.BindingRecord{{
			Sur: 2, RelType: "AllOf_GateInterface", Transmitter: 1, Inheritor: 3,
			Attrs: map[string]domain.Value{
				"TransmitterUpdates": domain.Int(1),
				"LastUpdateSeq":      domain.Int(2),
				"AcknowledgedSeq":    domain.Int(0),
			},
		}},
		NextSur: 4, Seq: 9,
	}, &version.ManagerState{}))
	f.Fuzz(func(t *testing.T, b []byte) {
		st, vs, err := DecodeSnapshotState(b)
		if err != nil {
			return
		}
		// An accepted blob must re-encode to an accepted blob (not
		// necessarily byte-identical: map order inside attrs is fixed by
		// the codec, but a fuzzed blob may contain non-canonical varints).
		b2 := EncodeSnapshot(st, vs)
		if _, _, err := DecodeSnapshotState(b2); err != nil {
			t.Fatalf("re-decode of accepted snapshot failed: %v", err)
		}
	})
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
// two kinds of string-table damage as FuzzSnapshotDecode.
func FuzzSegmentDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeSegment(0, nil, nil))
	f.Add(EncodeSegment(0,
		[]object.ObjectRecord{{
			Sur: 16, TypeName: "GateInterface_I", ModSeq: 2,
			Attrs: map[string]domain.Value{"Length": domain.Int(4)},
		}},
		[]object.BindingRecord{{
			Sur: 32, RelType: "AllOf_GateInterface", Transmitter: 16, Inheritor: 48,
		}}))
	f.Add(badIndexSegment())
	f.Add(hugeTableSegment())
	f.Fuzz(func(t *testing.T, b []byte) {
		objs, binds, err := DecodeSegment(b, 0)
		if err != nil {
			return
		}
		b2 := EncodeSegment(0, objs, binds)
		if _, _, err := DecodeSegment(b2, 0); err != nil {
			t.Fatalf("re-decode of accepted segment failed: %v", err)
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
