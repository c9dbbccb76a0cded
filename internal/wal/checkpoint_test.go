package wal

import (
	"bytes"
	"errors"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"cadcam/internal/domain"
	"cadcam/internal/object"
	"cadcam/internal/paperschema"
	"cadcam/internal/storage"
	"cadcam/internal/version"
)

// checkpointShards is the shard count of the stores in these tests.
const checkpointShards = 4

func freshShards(t testing.TB, shards int) (*object.Store, *version.Manager) {
	t.Helper()
	s, err := object.NewStoreShards(paperschema.MustGates(), shards)
	if err != nil {
		t.Fatal(err)
	}
	return s, version.NewManager(s)
}

// checkpointScene builds a store holding every kind of state a checkpoint
// carries: a class, subobjects, a relationship, bindings with bookkeeping,
// an index and a version.
func checkpointScene(t testing.TB) (*object.Store, *version.Manager) {
	t.Helper()
	s, vm := freshShards(t, checkpointShards)
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	sur := func(sur domain.Surrogate, err error) domain.Surrogate {
		t.Helper()
		check(err)
		return sur
	}
	check(s.DefineClass("Impls", paperschema.TypeGateImplementation))
	for i := 0; i < 3; i++ {
		rootI := sur(s.NewObject(paperschema.TypeGateInterfaceI, ""))
		pin1 := sur(s.NewSubobject(rootI, "Pins"))
		pin2 := sur(s.NewSubobject(rootI, "Pins"))
		check(s.SetAttr(pin1, "InOut", domain.Sym("IN")))
		sur(s.Relate(paperschema.TypeWire, object.Participants{"Pin1": domain.Ref(pin1), "Pin2": domain.Ref(pin2)}))
		iface := sur(s.NewObject(paperschema.TypeGateInterface, ""))
		sur(s.Bind(paperschema.RelAllOfGateInterfaceI, iface, rootI))
		check(s.SetAttr(iface, "Width", domain.Int(int64(i))))
		impl := sur(s.NewObject(paperschema.TypeGateImplementation, "Impls"))
		sur(s.Bind(paperschema.RelAllOfGateInterface, impl, iface))
		check(s.SetAttr(iface, "Length", domain.Int(4)))
		if i == 0 {
			_, err := vm.DefineDesign("NAND", iface)
			check(err)
			_, err = vm.AddVersion("NAND", impl, nil, "main")
			check(err)
		}
	}
	check(s.CreateIndex("impl_width", "Impls", "Width"))
	return s, vm
}

// exportCheckpoint captures the store as a full checkpoint of the given
// epoch, in memory, exactly as the database's checkpointer encodes it.
func exportCheckpoint(t testing.TB, s *object.Store, vm *version.Manager, epoch uint64) *Checkpoint {
	t.Helper()
	vs := vm.Export()
	pc, err := s.PinCheckpoint(nil, func() error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Snap.Release()
	cp := &Checkpoint{Epoch: epoch}
	m := &Manifest{Epoch: epoch, Base: pc.Snap.Base(), Versions: vs}
	for p := range pc.Dirty {
		objs, binds := pc.Snap.ExportShard(p, nil, nil)
		m.SegEpochs = append(m.SegEpochs, epoch)
		cp.Segments = append(cp.Segments, EncodeSegment(p, objs, binds))
	}
	cp.Manifest, cp.manifest = m, EncodeManifest(m)
	return cp
}

// shippedPayload writes the scene's checkpoint into a directory, reads it
// back as a replication shipper does and returns the resync payload,
// together with the snapshot encoding of the scene for comparison.
func shippedPayload(t testing.TB) (payload, want []byte) {
	t.Helper()
	s, vm := checkpointScene(t)
	cp := exportCheckpoint(t, s, vm, 1)
	dir := t.TempDir()
	if err := storage.WriteSnapshot(filepath.Join(dir, ManifestFilename(1)), cp.manifest); err != nil {
		t.Fatal(err)
	}
	for p, b := range cp.Segments {
		if err := storage.WriteSnapshot(filepath.Join(dir, SegmentFilename(1, p)), b); err != nil {
			t.Fatal(err)
		}
	}
	read, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	return read.Encode(), EncodeSnapshot(s.Export(), vm.Export())
}

// undeclaredAttrPayload is the scene's resync payload with one object
// record storing an attribute its type does not declare, re-framed so
// that every length and CRC is valid.
func undeclaredAttrPayload(t testing.TB) []byte {
	t.Helper()
	s, vm := checkpointScene(t)
	cp := exportCheckpoint(t, s, vm, 1)
	for p, b := range cp.Segments {
		objs, binds, err := DecodeSegment(b, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(objs) == 0 {
			continue
		}
		objs[0].Attrs = map[string]domain.Value{"NoSuchAttribute": domain.Int(1)}
		cp.Segments[p] = EncodeSegment(p, objs, binds)
		return cp.Encode()
	}
	t.Fatal("no segment holds an object record")
	return nil
}

// TestCheckpointImportRejectsUndeclaredAttribute: a record that stores an
// attribute outside its type's layout fails the import.
func TestCheckpointImportRejectsUndeclaredAttribute(t *testing.T) {
	cp, err := DecodeCheckpoint(undeclaredAttrPayload(t))
	if err != nil {
		t.Fatal(err)
	}
	s, vm := freshShards(t, checkpointShards)
	if _, err := ImportCheckpoint(cp, s, vm, 2); !errors.Is(err, object.ErrNoSuchAttribute) {
		t.Fatalf("import error = %v, want ErrNoSuchAttribute", err)
	}
	if s.Len() != 0 {
		t.Fatalf("failed import left %d objects", s.Len())
	}
}

// TestCheckpointPayloadRoundTrip: a shipped payload imports into a store
// of the checkpoint's shard count (partitions in parallel) and of another
// shard count (serially), and both rebuild the exact state.
func TestCheckpointPayloadRoundTrip(t *testing.T) {
	payload, want := shippedPayload(t)
	for _, shards := range []int{checkpointShards, 3} {
		cp, err := DecodeCheckpoint(payload)
		if err != nil {
			t.Fatal(err)
		}
		s, vm := freshShards(t, shards)
		peak, err := ImportCheckpoint(cp, s, vm, 2)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got := EncodeSnapshot(s.Export(), vm.Export()); !bytes.Equal(got, want) {
			t.Fatalf("shards=%d: imported state differs from the exported one", shards)
		}
		if peak <= 0 || peak > s.Len() {
			t.Fatalf("shards=%d: peak records %d outside 1..%d", shards, peak, s.Len())
		}
	}
	if _, err := DecodeCheckpoint(append(payload, 0)); err == nil {
		t.Error("payload with a trailing byte accepted")
	}
	if _, err := DecodeCheckpoint(payload[:len(payload)-1]); err == nil {
		t.Error("truncated payload accepted")
	}
}

// TestImportCheckpointHugeNextSur: a damaged manifest claiming NextSur =
// 1<<62 must not make the import walk the surrogate range; the finish pass
// visits allocated table slots only.
func TestImportCheckpointHugeNextSur(t *testing.T) {
	s, vm := checkpointScene(t)
	cp := exportCheckpoint(t, s, vm, 1)
	cp.Manifest.Base.NextSur = 1 << 62
	s2, vm2 := freshShards(t, checkpointShards)
	done := make(chan error, 1)
	go func() {
		_, err := ImportCheckpoint(cp, s2, vm2, 2)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("import with NextSur = 1<<62 did not finish")
	}
}

// hugeSur is the surrogate of the only record of hugeSurrogateCheckpoint.
const hugeSur = domain.Surrogate(1 << 40)

// hugeSurrogateCheckpoint writes into dir a checkpoint whose only record
// is a pin at surrogate 2^40, with NextSur there too, every length and
// CRC valid, and returns its resync payload.
func hugeSurrogateCheckpoint(t testing.TB, dir string) []byte {
	t.Helper()
	m := &Manifest{Epoch: 1, Base: &object.StoreState{NextSur: uint64(hugeSur), Seq: 1}, Versions: &version.ManagerState{}}
	cp := &Checkpoint{Epoch: 1, Manifest: m}
	for p := 0; p < checkpointShards; p++ {
		var objs []object.ObjectRecord
		if int(uint64(hugeSur)%checkpointShards) == p {
			objs = []object.ObjectRecord{{Sur: hugeSur, TypeName: paperschema.TypePin, ModSeq: 1}}
		}
		m.SegEpochs = append(m.SegEpochs, 1)
		cp.Segments = append(cp.Segments, EncodeSegment(p, objs, nil))
		if err := storage.WriteSnapshot(filepath.Join(dir, SegmentFilename(1, p)), cp.Segments[p]); err != nil {
			t.Fatal(err)
		}
	}
	cp.manifest = EncodeManifest(m)
	if err := storage.WriteSnapshot(filepath.Join(dir, ManifestFilename(1)), cp.manifest); err != nil {
		t.Fatal(err)
	}
	return cp.Encode()
}

// TestImportCheckpointHugeSurrogate: a checkpoint record at surrogate
// 2^40 costs one chunk of the object table, not a directory reaching it.
// The import allocates under 1 MiB; the sweep, the invariant check and an
// export, which visit the allocated table slots, allocate under 1 MiB
// too; and the next object created lands past it the same way.
func TestImportCheckpointHugeSurrogate(t *testing.T) {
	dir := t.TempDir()
	hugeSurrogateCheckpoint(t, dir)
	cp, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, vm := freshShards(t, checkpointShards)
	alloc := func(what string, f func()) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Errorf("%s allocated %d B, want < 1 MiB", what, n)
		}
	}
	alloc("ImportCheckpoint", func() {
		if _, err := ImportCheckpoint(cp, s, vm, 2); err != nil {
			t.Fatal(err)
		}
	})
	if !s.Exists(hugeSur) || s.Len() != 1 {
		t.Fatalf("import holds %d objects, %s exists: %v", s.Len(), hugeSur, s.Exists(hugeSur))
	}
	next, err := s.NewObject(paperschema.TypePin, "")
	if err != nil || next != hugeSur+1 {
		t.Fatalf("next object %s, %v; want %s", next, err, hugeSur+1)
	}
	alloc("SweepVersions, CheckInvariants and Export", func() {
		s.SweepVersions()
		if bad := s.CheckInvariants(); len(bad) != 0 {
			t.Errorf("invariants: %v", bad)
		}
		st := s.Export()
		if len(st.Objects) != 2 || st.Objects[0].Sur != hugeSur || st.Objects[1].Sur != next {
			t.Errorf("export lists %+v", st.Objects)
		}
	})
}
