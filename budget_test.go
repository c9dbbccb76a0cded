package cadcam_test

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"cadcam"
	"cadcam/internal/oplog"
	"cadcam/internal/paperschema"
	"cadcam/internal/wal"
)

// Work budgets: counts that do not drift from run to run, pinned at their
// measured values so that a regression fails tier-1 instead of waiting
// for a benchmark. Timings drift too much on shared hosts to gate on;
// bytes and allocations per operation do not.
const (
	// heapBudgetPerObject is the live heap per object of buildCorpus at
	// 1,000 chains (14,000 objects) on an in-memory database. Measured
	// with Go 1.24 on linux/amd64: 428.2-429.6 B/object in 11 runs, alone
	// and inside the full root suite, and 428.2-430.9 in 4 runs under
	// -race. The 5 B of slack above the highest covers that spread. One
	// more field on every object moves Object (144 B) into the next size
	// class, +16 B/object; one empty map per object adds about 50.
	heapBudgetPerObject = 436

	// Allocations per Store.SetAttr of an own attribute of an object with
	// no inheritors and no index: one version node for the slot and one
	// for the modification sequence, whether the attribute was set before
	// or not.
	setAttrAllocs = 2

	// Allocations per Store.NewObject of an implementation: the object,
	// its attribute slots and the journal op.
	newObjectAllocs = 3

	// Allocations per Store.Bind of an unbound implementation to an
	// interface: the binding object, its Binding and the journal op, and
	// for each of the two binding lists it joins, a copy of the list and
	// a version node.
	bindAllocs = 7

	// journalBytesPerOp is the journal payload per op record of the
	// JournalBytes script, format and name records included and batch
	// framing excluded: a pure function of the record encoding, the same
	// on every run, so the budget is the measured value itself (384 ops
	// in 2,044 bytes, 5.32 B/op). Writing a Seq delta byte for the next
	// Seq too costs 6.32 B/op; writing every surrogate in full instead of
	// relative to a neighbour, 6.54; both, as format 3 did, 7.53; each
	// Seq in full as well, 8.53; every name inline as well, 25.86; the
	// first encoding, every Op field and every name in full, 30.33.
	journalBytesPerOp = 2044.0 / 384

	// journalFileBytesPerOp is the journal file per op of the same
	// script, frame headers included: 3,978 bytes in 384 frames, one per
	// op (the first also carries the format and name records), 10.36
	// B/op. Format 3 records cost 12.57; the fixed 8-byte length+CRC
	// header and full Seqs, 16.57.
	journalFileBytesPerOp = 3978.0 / 384

	// checkpointBytesPerObject is the segment payload per live object of
	// a checkpoint of buildCorpus at 1,000 chains (14,000 objects, 5,000
	// of them bindings, in 16 segments), CRC frames excluded: like the
	// journal bytes, a pure function of the record encoding, so the
	// budget is the measured value itself (140,842 bytes, 10.06
	// B/object). Segment format 2, with every surrogate and ModSeq in
	// full, a byte for each absent field and the binding bookkeeping as
	// named attributes, cost 235,281 bytes (16.81 B/object).
	checkpointBytesPerObject = 140842.0 / 14000

	// checkpointAllocPerObject is the heap allocated (TotalAlloc) by one
	// full checkpoint of buildCorpus at 1,000 chains, per live object,
	// with GOMAXPROCS and so the encode worker count fixed at 2. Each
	// worker exports one shard's records at a time into slices it reuses
	// and encodes them before it takes the next shard. Measured with Go
	// 1.24 on linux/amd64: 265.9-266.6 B/object in 16 runs, alone and in
	// the whole subtest list, and 265.9-267.2 in 6 runs under -race; the
	// budget sits 0.8 above the highest. Exporting every shard's records
	// before encoding any costs 463.5; the ExportShards export that
	// preceded per-shard export, 492.4.
	checkpointAllocPerObject = 268.0

	// closedHeapSlack bounds the heap a closed handle may keep after a
	// GC, against the heap before Open: its empty stand-in store, never
	// the store it closed (6.0 MB for this corpus). Measured: 9-11 KiB
	// below the value before Open.
	closedHeapSlack = 1 << 20
)

// TestWorkBudgets gates the heap per object, the allocations of the hot
// and structural store paths, the journal bytes and fsyncs per record, the checkpoint
// bytes and allocations per object and the heap a closed handle keeps. It must not run in parallel with other
// tests: their garbage and goroutines would show up in the heap delta.
func TestWorkBudgets(t *testing.T) {
	t.Run("HeapPerObject", func(t *testing.T) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		db, err := cadcam.OpenMemory(paperschema.MustGates())
		if err != nil {
			t.Fatal(err)
		}
		buildCorpus(t, db, 1000)
		runtime.GC()
		runtime.ReadMemStats(&after)
		objects := db.Store().Len()
		perObject := float64(after.HeapAlloc-before.HeapAlloc) / float64(objects)
		runtime.KeepAlive(db)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		t.Logf("%d objects, %.1f B/object live heap", objects, perObject)
		if perObject > heapBudgetPerObject {
			t.Errorf("live heap %.1f B/object, budget %d", perObject, heapBudgetPerObject)
		}
	})

	t.Run("Allocs", func(t *testing.T) {
		db, err := cadcam.OpenMemory(paperschema.MustGates())
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		s := db.Store()
		const runs = 200
		// One fresh interface per run, so every set adds its attribute;
		// AllocsPerRun calls the function once more as a warm-up.
		fresh := make([]cadcam.Surrogate, runs+1)
		for i := range fresh {
			if fresh[i], err = s.NewObject(paperschema.TypeGateInterface, ""); err != nil {
				t.Fatal(err)
			}
		}
		// Likewise one unbound implementation per Bind.
		unbound := make([]cadcam.Surrogate, runs+1)
		for i := range unbound {
			if unbound[i], err = s.NewObject(paperschema.TypeGateImplementation, ""); err != nil {
				t.Fatal(err)
			}
		}
		iface, err := s.NewObject(paperschema.TypeGateInterface, "")
		if err != nil {
			t.Fatal(err)
		}
		impl, err := s.NewObject(paperschema.TypeGateImplementation, "")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Bind(paperschema.RelAllOfGateInterface, impl, iface); err != nil {
			t.Fatal(err)
		}
		width := cadcam.Value(cadcam.Int(7))
		must := func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		}
		must(s.SetAttr(impl, "TimeBehavior", cadcam.Int(1)))
		must(s.SetAttr(iface, "Width", width))

		next, nextUnbound := 0, 0
		for _, c := range []struct {
			name   string
			budget float64
			op     func()
		}{
			{"Store.SetAttr existing own attribute", setAttrAllocs, func() {
				must(s.SetAttr(impl, "TimeBehavior", width))
			}},
			{"Store.SetAttr new own attribute", setAttrAllocs, func() {
				must(s.SetAttr(fresh[next], "Length", width))
				next++
			}},
			{"Store.NewObject", newObjectAllocs, func() {
				_, err := s.NewObject(paperschema.TypeGateImplementation, "")
				must(err)
			}},
			{"Store.Bind", bindAllocs, func() {
				_, err := s.Bind(paperschema.RelAllOfGateInterface, unbound[nextUnbound], iface)
				must(err)
				nextUnbound++
			}},
			{"Store.GetAttr own route hit", 0, func() {
				_, err := s.GetAttr(iface, "Width")
				must(err)
			}},
			{"Store.GetAttr inherited route hit", 0, func() {
				_, err := s.GetAttr(impl, "Width")
				must(err)
			}},
		} {
			if got := testing.AllocsPerRun(runs, c.op); got != c.budget {
				t.Errorf("%s: %v allocations, budget %v", c.name, got, c.budget)
			}
		}
	})

	t.Run("JournalBytes", func(t *testing.T) {
		dir := t.TempDir()
		// The corpus goes in without fsyncs; the script runs on a reopen
		// with the default SyncEvery 0 (an fsync per commit batch), after
		// a checkpoint, so the journal chain holds the script alone.
		db, err := cadcam.Open(paperschema.MustGates(), cadcam.Options{Dir: dir, SyncEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		buildCorpus(t, db, 16)
		ifaces := make([]cadcam.Surrogate, 8)
		for i := range ifaces {
			if ifaces[i], err = db.NewObject(paperschema.TypeGateInterface, ""); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if db, err = cadcam.Open(paperschema.MustGates(), cadcam.Options{Dir: dir}); err != nil {
			t.Fatal(err)
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		must := func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		}
		before := db.Stats().WAL
		// The bulk workload's write (create, bind, set), an interface
		// write and a rebind, serially.
		const rounds = 64
		for i := 0; i < rounds; i++ {
			iface := ifaces[i%len(ifaces)]
			impl, err := db.NewObject(paperschema.TypeGateImplementation, "Impls")
			must(err)
			_, err = db.Bind(paperschema.RelAllOfGateInterface, impl, iface)
			must(err)
			must(db.SetAttr(impl, "TimeBehavior", cadcam.Int(int64(i))))
			must(db.SetAttr(iface, "Width", cadcam.Int(int64(1000+i))))
			must(db.Unbind(paperschema.RelAllOfGateInterface, impl))
			_, err = db.Bind(paperschema.RelAllOfGateInterface, impl, iface)
			must(err)
		}
		after := db.Stats().WAL
		must(db.Close())

		sc, err := cadcam.ScanJournal(dir)
		must(err)
		var names oplog.Decoder
		var bytes, ops int
		for _, rec := range sc.Records {
			op, err := names.Decode(rec)
			must(err)
			bytes += len(rec)
			if op != nil {
				ops++
			}
		}
		var fileBytes int64
		for e := sc.Epoch; ; e++ {
			info, err := os.Stat(filepath.Join(dir, cadcam.WALFilename(e)))
			if errors.Is(err, os.ErrNotExist) {
				break
			}
			must(err)
			fileBytes += info.Size()
		}
		records := after.Records - before.Records
		syncs := after.Syncs - before.Syncs
		perOp := float64(bytes) / float64(ops)
		filePerOp := float64(fileBytes) / float64(ops)
		t.Logf("%d ops in %d journal records, %d payload bytes: %.2f B/op; %d file bytes: %.2f B/op; %d fsyncs for %d records",
			ops, len(sc.Records), bytes, perOp, fileBytes, filePerOp, syncs, records)
		if ops != 6*rounds || records != uint64(ops) {
			t.Fatalf("script journaled %d ops (%d committed records), want %d", ops, records, 6*rounds)
		}
		if perOp > journalBytesPerOp {
			t.Errorf("journal payload %.2f B/op, budget %.2f", perOp, journalBytesPerOp)
		}
		if filePerOp > journalFileBytesPerOp {
			t.Errorf("journal file %.2f B/op, budget %.2f", filePerOp, journalFileBytesPerOp)
		}
		if syncs != records {
			t.Errorf("%d fsyncs for %d records, want one per record", syncs, records)
		}
	})
	t.Run("CheckpointBytes", func(t *testing.T) {
		dir := t.TempDir()
		db, err := cadcam.Open(paperschema.MustGates(), cadcam.Options{Dir: dir, SyncEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		buildCorpus(t, db, 1000)
		objects := db.Store().Len()
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		cp, err := wal.LoadCheckpoint(dir)
		if err != nil {
			t.Fatal(err)
		}
		var bytes int
		for _, seg := range cp.Segments {
			bytes += len(seg)
		}
		perObject := float64(bytes) / float64(objects)
		t.Logf("%d objects in %d segments, %d payload bytes: %.2f B/object", objects, len(cp.Segments), bytes, perObject)
		if perObject > checkpointBytesPerObject {
			t.Errorf("checkpoint payload %.2f B/object, budget %.2f", perObject, checkpointBytesPerObject)
		}
	})
	t.Run("CheckpointAllocBytes", func(t *testing.T) {
		dir := t.TempDir()
		db, err := cadcam.Open(paperschema.MustGates(), cadcam.Options{Dir: dir, SyncEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		buildCorpus(t, db, 1000)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		// A reopen leaves no journal record queued, so the checkpoint
		// below, the first since the directory was made and so a full
		// one, does the same work on every run.
		if db, err = cadcam.Open(paperschema.MustGates(), cadcam.Options{Dir: dir}); err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		objects := db.Store().Len()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if st := db.Stats().Checkpoint; st.SegmentsWritten != 16 {
			t.Fatalf("checkpoint wrote %d segments, want all 16", st.SegmentsWritten)
		}
		perObject := float64(after.TotalAlloc-before.TotalAlloc) / float64(objects)
		t.Logf("%d objects, %.1f B/object allocated by one full checkpoint", objects, perObject)
		if perObject > checkpointAllocPerObject {
			t.Errorf("checkpoint allocated %.1f B/object, budget %.1f", perObject, checkpointAllocPerObject)
		}
	})

	t.Run("ClosedHeap", func(t *testing.T) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		db, err := cadcam.Open(paperschema.MustGates(), cadcam.Options{Dir: t.TempDir(), SyncEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		buildCorpus(t, db, 1000)
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(db)
		grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		t.Logf("heap %+d B after Close with the handle held", grown)
		if grown > closedHeapSlack {
			t.Errorf("a closed handle keeps %d B of heap, budget %d", grown, closedHeapSlack)
		}
	})
}
