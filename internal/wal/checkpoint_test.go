package wal

import (
	"bytes"
	"path/filepath"
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
	cp := &Checkpoint{Epoch: epoch}
	err := s.WithExclusiveExport(nil, func(ex *object.StoreExport) error {
		m := &Manifest{Epoch: epoch, Base: ex.Base, Versions: vs}
		for p, sh := range ex.Shards {
			m.SegEpochs = append(m.SegEpochs, epoch)
			cp.Segments = append(cp.Segments, EncodeSegment(p, sh.Objects, sh.Bindings))
		}
		cp.Manifest, cp.manifest = m, EncodeManifest(m)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
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
