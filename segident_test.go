package cadcam_test

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"cadcam"
	"cadcam/internal/object"
	"cadcam/internal/paperschema"
	"cadcam/internal/wal"
)

// randomStore applies n seeded random mutations: interfaces and bound
// implementations in class Impls, standalone pins, attribute writes,
// unbinds and deletes. Ops that fail (an unbind of an unbound
// implementation, a delete of a transmitter) leave the store as it was.
func randomStore(db *cadcam.Database, seed int64, n int) {
	r := rand.New(rand.NewSource(seed))
	_ = db.DefineClass("Impls", paperschema.TypeGateImplementation)
	var ifaces, impls, pins []cadcam.Surrogate
	pick := func(s []cadcam.Surrogate) cadcam.Surrogate {
		if len(s) == 0 {
			return 0
		}
		return s[r.Intn(len(s))]
	}
	for i := 0; i < n; i++ {
		switch r.Intn(8) {
		case 0:
			if sur, err := db.NewObject(paperschema.TypeGateInterface, ""); err == nil {
				ifaces = append(ifaces, sur)
				_ = db.SetAttr(sur, "Length", cadcam.Int(int64(r.Intn(100))))
			}
		case 1, 2:
			if sur, err := db.NewObject(paperschema.TypeGateImplementation, "Impls"); err == nil {
				impls = append(impls, sur)
				_, _ = db.Bind(paperschema.RelAllOfGateInterface, sur, pick(ifaces))
			}
		case 3:
			_ = db.SetAttr(pick(ifaces), "Width", cadcam.Int(int64(r.Intn(1000))))
		case 4:
			_ = db.SetAttr(pick(impls), "TimeBehavior", cadcam.Int(int64(r.Intn(10))))
		case 5:
			if sur, err := db.NewObject(paperschema.TypePin, ""); err == nil {
				pins = append(pins, sur)
				_ = db.SetAttr(sur, "PinId", cadcam.Int(int64(i)))
			}
		case 6:
			_ = db.Unbind(paperschema.RelAllOfGateInterface, pick(impls))
		case 7:
			_ = db.Delete(pick(append(impls, pins...)))
		}
	}
}

// TestCheckpointSegmentsMatchExport: every segment the checkpoint's
// encode workers write equals EncodeSegment over that shard's slice of
// Snapshot.Export() at the checkpoint's pin, and the manifest carries the
// pin's base state, for a seeded random store: quiet, and with writers
// that start once the checkpoint has pinned and run while its workers
// export.
func TestCheckpointSegmentsMatchExport(t *testing.T) {
	for _, writers := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			dir := t.TempDir()
			db, err := cadcam.Open(paperschema.MustGates(), cadcam.Options{Dir: dir, SyncEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			randomStore(db, seed, 3000)
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			// A second round dirties some shards only, so the second
			// checkpoint rewrites those and keeps the other segments.
			randomStore(db, seed+100, 200)
			view := db.SnapshotView()
			stop := make(chan struct{})
			var wg sync.WaitGroup
			var wrote atomic.Int64
			if writers {
				for w := 0; w < 2; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						// The view holds one pin; a second means the
						// checkpoint has pinned and released the lock.
						for db.Store().Stats().MVCC.Pins < 2 {
							select {
							case <-stop:
								return
							default:
							}
						}
						for i := 0; ; i++ {
							select {
							case <-stop:
								return
							default:
							}
							if sur, err := db.NewObject(paperschema.TypePin, ""); err == nil {
								_ = db.SetAttr(sur, "PinId", cadcam.Int(int64(i)))
								wrote.Add(1)
							}
						}
					}(w)
				}
			}
			err = db.Checkpoint()
			close(stop)
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			cp, err := wal.LoadCheckpoint(dir)
			if err != nil {
				t.Fatal(err)
			}
			st := view.Snapshot().Export()
			view.Release()
			base := cp.Manifest.Base
			if base.Seq != st.Seq || base.NextSur != st.NextSur || len(base.Classes) != len(st.Classes) || len(base.Indexes) != len(st.Indexes) {
				t.Fatalf("writers=%v seed=%d: manifest base %+v, pinned export seq %d nextSur %d", writers, seed, base, st.Seq, st.NextSur)
			}
			parts := len(cp.Segments)
			objs := make([][]object.ObjectRecord, parts)
			binds := make([][]object.BindingRecord, parts)
			for _, o := range st.Objects {
				p := int(uint64(o.Sur) % uint64(parts))
				objs[p] = append(objs[p], o)
			}
			for _, b := range st.Bindings {
				p := int(uint64(b.Sur) % uint64(parts))
				binds[p] = append(binds[p], b)
			}
			for p, seg := range cp.Segments {
				if !bytes.Equal(seg, wal.EncodeSegment(p, objs[p], binds[p])) {
					t.Errorf("writers=%v seed=%d: segment %d differs from its slice of the pinned export", writers, seed, p)
				}
			}
			t.Logf("writers=%v seed=%d: %d objects, %d bindings at the pin, %d writes after it",
				writers, seed, len(st.Objects), len(st.Bindings), wrote.Load())
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
