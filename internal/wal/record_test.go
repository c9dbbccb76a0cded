package wal

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"cadcam/internal/codec"
	"cadcam/internal/domain"
	"cadcam/internal/object"
	"cadcam/internal/version"
)

// gateRecords builds n gate implementations, each bound to one
// interface, with the attribute maps filled in the key order `keys`.
func gateRecords(n int, keys []string) ([]object.ObjectRecord, []object.BindingRecord) {
	var objs []object.ObjectRecord
	var binds []object.BindingRecord
	for i := 0; i < n; i++ {
		attrs := make(map[string]domain.Value)
		for _, k := range keys {
			attrs[k] = domain.Int(int64(i*len(k) + 1))
		}
		objs = append(objs, object.ObjectRecord{
			Sur: domain.Surrogate(2*i + 1), TypeName: "GateImplementation",
			OwnerClass: "Implementations", ModSeq: uint64(i + 1), Attrs: attrs,
		})
		book := make(map[string]domain.Value)
		for _, k := range []string{"TransmitterUpdates", "LastUpdateSeq", "AcknowledgedSeq"} {
			book[k] = domain.Int(int64(i))
		}
		binds = append(binds, object.BindingRecord{
			Sur: domain.Surrogate(2*i + 2), RelType: "AllOf_GateInterface",
			Transmitter: 1 << 20, Inheritor: domain.Surrogate(2*i + 1), Attrs: book,
		})
	}
	return objs, binds
}

var gateAttrs = []string{"Length", "Width", "TimeBehavior", "Function", "Label"}

// TestRecordEncodingCanonical: the same records built with their maps
// filled in different orders encode to identical segment and snapshot
// bytes, because the string table is sorted rather than filled in map
// iteration order.
func TestRecordEncodingCanonical(t *testing.T) {
	objs, binds := gateRecords(64, gateAttrs)
	wantSeg := EncodeSegment(3, objs, binds)
	wantSnap := EncodeSnapshot(&object.StoreState{Objects: objs, Bindings: binds, NextSur: 200, Seq: 70}, &version.ManagerState{})
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 20; round++ {
		keys := append([]string(nil), gateAttrs...)
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		objs2, binds2 := gateRecords(64, keys)
		if got := EncodeSegment(3, objs2, binds2); !bytes.Equal(got, wantSeg) {
			t.Fatalf("round %d (keys %v): segment bytes differ", round, keys)
		}
		got := EncodeSnapshot(&object.StoreState{Objects: objs2, Bindings: binds2, NextSur: 200, Seq: 70}, &version.ManagerState{})
		if !bytes.Equal(got, wantSnap) {
			t.Fatalf("round %d (keys %v): snapshot bytes differ", round, keys)
		}
	}
}

// TestSegmentStoresEachNameOnce: a segment of many implementations holds
// every type, relationship and attribute name exactly once.
func TestSegmentStoresEachNameOnce(t *testing.T) {
	objs, binds := gateRecords(500, gateAttrs)
	blob := EncodeSegment(0, objs, binds)
	for _, name := range append([]string{"GateImplementation", "Implementations", "AllOf_GateInterface", "LastUpdateSeq"}, gateAttrs...) {
		if n := bytes.Count(blob, []byte(name)); n != 1 {
			t.Errorf("%q stored %d times, want 1", name, n)
		}
	}
}

// TestRecordRoundTrip: segments and snapshots decode to exactly the
// records they were encoded from, and decoded names share the table's
// strings instead of holding one copy per record.
func TestRecordRoundTrip(t *testing.T) {
	objs, binds := gateRecords(50, gateAttrs)
	objs = append(objs, object.ObjectRecord{
		Sur: 999, TypeName: "Wire", IsRel: true, Parent: 1, ParentSub: "Wires",
		Participants: map[string]domain.Value{"Pin1": domain.Ref(3), "Pin2": domain.Ref(5)},
		Attrs:        map[string]domain.Value{"Pt": domain.NewRec("X", domain.Int(1), "Y", domain.Str("Length"))},
	})
	gotObjs, gotBinds, err := DecodeSegment(EncodeSegment(7, objs, binds), 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotObjs, objs) || !reflect.DeepEqual(gotBinds, binds) {
		t.Fatal("segment round trip changed the records")
	}
	if unsafe.StringData(gotObjs[0].TypeName) != unsafe.StringData(gotObjs[1].TypeName) {
		t.Error("decoded type names are separate copies, not shared table entries")
	}

	st := &object.StoreState{
		Classes:  []object.ClassRecord{{Name: "Implementations", ElemType: "GateImplementation"}},
		Indexes:  []object.IndexRecord{{Name: "ByLength", ClassName: "Implementations", AttrName: "Length", CreatedSeq: 4}},
		Objects:  objs,
		Bindings: binds,
		NextSur:  1000, Seq: 77,
	}
	vs := &version.ManagerState{Designs: []version.DesignRecord{{Name: "NAND", Interface: 1, Default: 3}}}
	gotSt, gotVs, err := DecodeSnapshotState(EncodeSnapshot(st, vs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSt, st) || !reflect.DeepEqual(gotVs, vs) {
		t.Fatal("snapshot round trip changed the state")
	}
}

// badIndexSegment is a segment whose only object names its type by an
// index past the end of a one-entry string table.
func badIndexSegment() []byte {
	var e codec.Buf
	e.Uvarint(segMagic)
	e.Uvarint(segVersion)
	e.Uvarint(0)
	e.Strs([]string{"GateImplementation"})
	e.Uvarint(1)  // objects
	e.Sur(1)      // Sur
	e.Uvarint(5)  // TypeName: out of range
	e.Bool(false) // IsRel
	e.Sur(0)      // Parent
	e.Uvarint(0)  // ParentSub
	e.Uvarint(0)  // OwnerClass
	e.Uvarint(1)  // ModSeq
	e.Uvarint(0)  // Attrs
	e.Uvarint(0)  // Participants
	e.Uvarint(0)  // bindings
	return e.Bytes()
}

// hugeTableSegment claims a string table far larger than its payload.
func hugeTableSegment() []byte {
	var e codec.Buf
	e.Uvarint(segMagic)
	e.Uvarint(segVersion)
	e.Uvarint(0)
	e.Uvarint(1 << 40)
	e.Str("GateImplementation")
	return e.Bytes()
}

// badIndexSnapshot and hugeTableSnapshot are the same damage inside a
// snapshot blob, whose record section follows the class and index
// records.
func badIndexSnapshot() []byte {
	var e codec.Buf
	e.Uvarint(snapMagic)
	e.Uvarint(snapVersion)
	e.Uvarint(0) // classes
	e.Uvarint(0) // indexes
	e.Strs([]string{"AllOf_GateInterface"})
	e.Uvarint(0) // objects
	e.Uvarint(1) // bindings
	e.Sur(2)
	e.Uvarint(1) // RelType: out of range
	e.Sur(1)
	e.Sur(3)
	e.Uvarint(0)
	e.Uvarint(4) // NextSur
	e.Uvarint(9) // Seq
	encodeVersionState(&e, &version.ManagerState{})
	return e.Bytes()
}

func hugeTableSnapshot() []byte {
	var e codec.Buf
	e.Uvarint(snapMagic)
	e.Uvarint(snapVersion)
	e.Uvarint(0)
	e.Uvarint(0)
	e.Uvarint(1 << 40)
	e.Str("AllOf_GateInterface")
	return e.Bytes()
}

// TestRecordDecodeRejectsDamage: an out-of-range string index or a table
// count beyond the payload is rejected with an error, without a panic
// and without an allocation sized by the damaged count.
func TestRecordDecodeRejectsDamage(t *testing.T) {
	cases := []struct {
		name   string
		decode func() error
	}{
		{"segment index out of range", func() error { _, _, err := DecodeSegment(badIndexSegment(), 0); return err }},
		{"segment table beyond payload", func() error { _, _, err := DecodeSegment(hugeTableSegment(), 0); return err }},
		{"snapshot index out of range", func() error { _, _, err := DecodeSnapshotState(badIndexSnapshot()); return err }},
		{"snapshot table beyond payload", func() error { _, _, err := DecodeSnapshotState(hugeTableSnapshot()); return err }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := c.decode()
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("damaged blob decoded without error")
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Errorf("decoder allocated %d bytes for a %s", grew, c.name)
			}
		})
	}
}

// TestDecodeRejectsOlderVersions: the decoders accept only the current
// format versions; older files are unreadable, never reinterpreted.
func TestDecodeRejectsOlderVersions(t *testing.T) {
	for v := uint64(1); v < segVersion; v++ {
		var e codec.Buf
		e.Uvarint(segMagic)
		e.Uvarint(v)
		e.Uvarint(0)
		e.Uvarint(0)
		e.Uvarint(0)
		if _, _, err := DecodeSegment(e.Bytes(), 0); err == nil {
			t.Errorf("segment version %d accepted", v)
		}
	}
	for v := uint64(1); v < snapVersion; v++ {
		var e codec.Buf
		e.Uvarint(snapMagic)
		e.Uvarint(v)
		if _, _, err := DecodeSnapshotState(append(e.Bytes(), make([]byte, 8)...)); err == nil {
			t.Errorf("snapshot version %d accepted", v)
		}
	}
	var e codec.Buf
	e.Uvarint(manifestMagic)
	e.Uvarint(manifestVersion - 1)
	if _, err := DecodeManifest(append(e.Bytes(), make([]byte, 8)...)); err == nil {
		t.Errorf("manifest version %d accepted", manifestVersion-1)
	}
}
