package cadcam_test

// Tests for the sharded object store: cross-shard mutation races,
// snapshot consistency under concurrent writers, deterministic journal
// replay, hook reentrancy and per-shard statistics. Run with -race.

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"cadcam"

	"cadcam/internal/object"
	"cadcam/internal/paperschema"
	"cadcam/internal/wal"
)

// TestCrossShardBindVsDelete races Bind/Acknowledge/Unbind cycles (which
// take every shard lock) against Delete/NewObject churn and chain reads
// on other shards. Surrogates are dense and sharded by modulo, so the
// workers' objects are spread across all shards.
func TestCrossShardBindVsDelete(t *testing.T) {
	db, err := cadcam.Open(paperschema.MustGates(), cadcam.Options{Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const binders = 4
	type pair struct{ iface, impl cadcam.Surrogate }
	pairs := make([]pair, binders)
	for i := range pairs {
		iface, err := db.NewObject(paperschema.TypeGateInterface, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := db.SetAttr(iface, "Length", cadcam.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
		impl, err := db.NewObject(paperschema.TypeGateImplementation, "")
		if err != nil {
			t.Fatal(err)
		}
		pairs[i] = pair{iface, impl}
	}

	const rounds = 100
	var wg sync.WaitGroup
	errs := make(chan error, 4*binders)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	for w := 0; w < binders; w++ {
		p := pairs[w]
		// Binder: bind, read through the fresh chain, acknowledge, unbind.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, err := db.Bind(paperschema.RelAllOfGateInterface, p.impl, p.iface); err != nil {
					fail(err)
					return
				}
				if v, err := db.GetAttr(p.impl, "Length"); err != nil || cadcam.IsNull(v) {
					fail(err)
					return
				}
				if err := db.Acknowledge(paperschema.RelAllOfGateInterface, p.impl); err != nil {
					fail(err)
					return
				}
				if err := db.Unbind(paperschema.RelAllOfGateInterface, p.impl); err != nil {
					fail(err)
					return
				}
			}
		}()
		// Deleter: create-and-delete churn on its own pins, which lands on
		// rotating shards and triggers the cross-shard delete cascade.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				pin, err := db.NewObject(paperschema.TypePin, "")
				if err != nil {
					fail(err)
					return
				}
				if err := db.SetAttr(pin, "PinId", cadcam.Int(int64(r))); err != nil {
					fail(err)
					return
				}
				if err := db.Delete(pin); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("worker error: %v", err)
	}
	if bad := db.Store().CheckInvariants(); len(bad) != 0 {
		t.Fatalf("store inconsistent: %v", bad)
	}
}

// TestConcurrentSetAttrVsExport snapshots the store while eight writers
// mutate their own objects. Every export must be internally consistent:
// encodable, and re-importable into a store that passes invariant checks.
func TestConcurrentSetAttrVsExport(t *testing.T) {
	db, err := cadcam.OpenMemory(paperschema.MustGates())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const writers = 8
	pins := make([]cadcam.Surrogate, writers)
	for i := range pins {
		pin, err := db.NewObject(paperschema.TypePin, "")
		if err != nil {
			t.Fatal(err)
		}
		pins[i] = pin
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := db.SetAttr(pins[w], "PinId", cadcam.Int(int64(i))); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		st := db.Store().Export()
		if len(wal.EncodeSnapshot(st, db.Versions().Export())) == 0 {
			t.Error("empty snapshot")
		}
		probe, err := object.NewStoreShards(paperschema.MustGates(), 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := probe.Import(st); err != nil {
			t.Fatalf("export %d not importable: %v", i, err)
		}
		if bad := probe.CheckInvariants(); len(bad) != 0 {
			t.Fatalf("export %d inconsistent: %v", i, bad)
		}
	}
	close(stop)
	wg.Wait()
}

// TestJournalReplayDeterminism8Writers runs eight concurrent writers
// against a journaled database — attribute updates interleaved with
// Bind/Acknowledge/Unbind cycles so sequence numbers from different
// shards interleave in the journal — then byte-compares the snapshot of
// the live store with the snapshot of a store recovered by replay.
func TestJournalReplayDeterminism8Writers(t *testing.T) {
	dir := t.TempDir()
	db, err := cadcam.Open(paperschema.MustGates(), cadcam.Options{Dir: dir, SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const rounds = 50
	type pair struct{ iface, impl, pin cadcam.Surrogate }
	ws := make([]pair, workers)
	for i := range ws {
		iface, err := db.NewObject(paperschema.TypeGateInterface, "")
		if err != nil {
			t.Fatal(err)
		}
		impl, err := db.NewObject(paperschema.TypeGateImplementation, "")
		if err != nil {
			t.Fatal(err)
		}
		pin, err := db.NewObject(paperschema.TypePin, "")
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = pair{iface, impl, pin}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		p := ws[w]
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := db.SetAttr(p.pin, "PinId", cadcam.Int(int64(w*rounds+r))); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if _, err := db.Bind(paperschema.RelAllOfGateInterface, p.impl, p.iface); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				// Transmitter update while bound: bumps the binding's
				// update counter and last-update sequence.
				if err := db.SetAttr(p.iface, "Length", cadcam.Int(int64(r))); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if err := db.Acknowledge(paperschema.RelAllOfGateInterface, p.impl); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				// Leave the final binding of even workers in place so the
				// exported state also covers live bindings.
				if r+1 < rounds || w%2 == 1 {
					if err := db.Unbind(paperschema.RelAllOfGateInterface, p.impl); err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := db.Err(); err != nil {
		t.Fatalf("journal error: %v", err)
	}

	live := wal.EncodeSnapshot(db.Store().Export(), db.Versions().Export())
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with a different shard count: replay must still reproduce the
	// exact logical state — snapshots are shard-agnostic.
	db2, err := cadcam.Open(paperschema.MustGates(), cadcam.Options{Dir: dir, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	recovered := wal.EncodeSnapshot(db2.Store().Export(), db2.Versions().Export())
	if !bytes.Equal(live, recovered) {
		t.Fatalf("replay diverged: live snapshot %d bytes, recovered %d bytes", len(live), len(recovered))
	}
	if bad := db2.Store().CheckInvariants(); len(bad) != 0 {
		t.Fatalf("recovered store inconsistent: %v", bad)
	}
}

// TestUpdateHookReentrancy registers an update hook that reads back
// through the database. Hooks dispatch after the mutation's shard locks
// are released, so the re-entrant reads must neither deadlock nor see the
// pre-update value, and events must arrive in sequence order.
func TestUpdateHookReentrancy(t *testing.T) {
	db, err := cadcam.OpenMemory(paperschema.MustGates())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	iface, err := db.NewObject(paperschema.TypeGateInterface, "")
	if err != nil {
		t.Fatal(err)
	}
	impl, err := db.NewObject(paperschema.TypeGateImplementation, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Bind(paperschema.RelAllOfGateInterface, impl, iface); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var seqs []uint64
	var got []cadcam.Value
	db.OnTransmitterUpdate(func(ev object.UpdateEvent) {
		// Re-entrant reads: a single-shard read on the transmitter's shard
		// and an inherited read that walks the chain across shards. Before
		// the hook dispatch moved out of the critical section, either of
		// these deadlocked against the in-flight SetAttr.
		v, err := db.GetAttr(iface, "Length")
		if err != nil {
			t.Errorf("hook GetAttr(transmitter): %v", err)
		}
		if _, err := db.GetAttr(impl, "Length"); err != nil {
			t.Errorf("hook GetAttr(inheritor): %v", err)
		}
		mu.Lock()
		seqs = append(seqs, ev.Seq)
		got = append(got, v)
		mu.Unlock()
	})

	const updates = 10
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < updates; i++ {
			if err := db.SetAttr(iface, "Length", cadcam.Int(int64(i+1))); err != nil {
				t.Errorf("SetAttr: %v", err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock: hook dispatch blocked SetAttr")
	}

	mu.Lock()
	defer mu.Unlock()
	if len(seqs) != updates {
		t.Fatalf("hook fired %d times, want %d", len(seqs), updates)
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Errorf("events out of sequence order: %v", seqs)
			break
		}
	}
	// Dispatch runs after the mutation is visible, so every hook must have
	// observed some committed value, never the pre-update null.
	for i, v := range got {
		if cadcam.IsNull(v) {
			t.Fatalf("hook %d read null transmitter value", i)
		}
	}
}

// TestStatsPerShard checks that the per-shard statistics are present,
// cover the configured (or default) shard count, and sum to the
// aggregates.
func TestStatsPerShard(t *testing.T) {
	db, err := cadcam.Open(paperschema.MustGates(), cadcam.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const n = 10
	iface, _ := db.NewObject(paperschema.TypeGateInterface, "")
	if err := db.SetAttr(iface, "Length", cadcam.Int(7)); err != nil {
		t.Fatal(err)
	}
	impls := make([]cadcam.Surrogate, n)
	for i := range impls {
		impl, err := db.NewObject(paperschema.TypeGateImplementation, "")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.Bind(paperschema.RelAllOfGateInterface, impl, iface); err != nil {
			t.Fatal(err)
		}
		impls[i] = impl
	}
	// Generate route-cache traffic: first read misses, later reads hit.
	for round := 0; round < 3; round++ {
		for _, impl := range impls {
			if _, err := db.GetAttr(impl, "Length"); err != nil {
				t.Fatal(err)
			}
		}
	}

	st := db.Stats()
	if st.Shards != 4 || len(st.PerShard) != 4 {
		t.Fatalf("Shards = %d, len(PerShard) = %d, want 4", st.Shards, len(st.PerShard))
	}
	var hits, misses, inval uint64
	objects := 0
	for i, p := range st.PerShard {
		if p.Shard != i {
			t.Errorf("PerShard[%d].Shard = %d", i, p.Shard)
		}
		hits += p.Hits
		misses += p.Misses
		inval += p.Invalidations
		objects += p.Objects
	}
	if hits != st.Hits || misses != st.Misses || inval != st.Invalidations {
		t.Errorf("per-shard sums (h=%d m=%d i=%d) != aggregates (h=%d m=%d i=%d)",
			hits, misses, inval, st.Hits, st.Misses, st.Invalidations)
	}
	// 1 interface + n impls + n bindings.
	if want := 1 + 2*n; objects != want {
		t.Errorf("per-shard object counts sum to %d, want %d", objects, want)
	}
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("expected cache traffic, got hits=%d misses=%d", st.Hits, st.Misses)
	}

	// The default shard count is at least one, and reported per shard.
	def, err := cadcam.OpenMemory(paperschema.MustGates())
	if err != nil {
		t.Fatal(err)
	}
	defer def.Close()
	if st := def.Stats(); st.Shards < 1 || len(st.PerShard) != st.Shards {
		t.Errorf("default Shards = %d, len(PerShard) = %d, want >= 1 and equal", st.Shards, len(st.PerShard))
	}
}
