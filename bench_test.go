package cadcam_test

// One benchmark per EXPERIMENTS.md experiment, mirroring cmd/cadbench:
//
//	go test -bench=. -benchmem
//
// The BenchmarkEn names match the experiment ids in DESIGN.md §4.

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cadcam"

	"cadcam/internal/bench"
	"cadcam/internal/ddl"
	"cadcam/internal/expr"
	"cadcam/internal/inherit"
	"cadcam/internal/paperschema"
	"cadcam/internal/query"
	"cadcam/internal/sim"
	"cadcam/internal/txn"
	"cadcam/internal/version"
)

func benchDB(tb testing.TB) *cadcam.Database {
	tb.Helper()
	db, err := bench.Gates()
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	return db
}

// BenchmarkE1_FlipFlopConstruction builds the Figure-1 composite.
func BenchmarkE1_FlipFlopConstruction(b *testing.B) {
	for _, nSub := range []int{2, 16} {
		b.Run(fmt.Sprintf("subgates=%d", nSub), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				db, err := bench.Gates()
				if err != nil {
					b.Fatal(err)
				}
				if _, err := bench.BuildFlipFlop(db, nSub); err != nil {
					b.Fatal(err)
				}
				db.Close()
			}
		})
	}
}

// BenchmarkE1_ConstraintCheck checks all constraints of a built scene.
func BenchmarkE1_ConstraintCheck(b *testing.B) {
	db := benchDB(b)
	if _, err := bench.BuildFlipFlop(db, 16); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := db.CheckAll(); len(v) != 0 {
			b.Fatal("violations")
		}
	}
}

// BenchmarkE2_InheritedRead compares a direct attribute read with a
// one-hop inherited read (the price of view semantics).
func BenchmarkE2_InheritedRead(b *testing.B) {
	db := benchDB(b)
	iface, err := bench.Interface(db, 2, 1, 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	impl, err := db.NewObject(paperschema.TypeGateImplementation, "")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := db.Bind(paperschema.RelAllOfGateInterface, impl, iface); err != nil {
		b.Fatal(err)
	}
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.GetAttr(iface, "Length"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("inherited-1hop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.GetAttr(impl, "Length"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE2_InheritedReadParallel drives inherited reads from many
// goroutines at once: after the first resolution the route is memoized
// and the hit path takes no lock, so throughput should scale with
// readers instead of serializing on the store mutex.
func BenchmarkE2_InheritedReadParallel(b *testing.B) {
	db := benchDB(b)
	iface, err := bench.Interface(db, 2, 1, 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	impl, err := db.NewObject(paperschema.TypeGateImplementation, "")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := db.Bind(paperschema.RelAllOfGateInterface, impl, iface); err != nil {
		b.Fatal(err)
	}
	// Warm the route cache so the measured loop is all hit path.
	if _, err := db.GetAttr(impl, "Length"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := db.GetAttr(impl, "Length"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE2_TransmitterUpdate measures an interface update fanning out
// to n bound implementations (binding bookkeeping + hooks).
func BenchmarkE2_TransmitterUpdate(b *testing.B) {
	for _, n := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("inheritors=%d", n), func(b *testing.B) {
			db := benchDB(b)
			iface, err := bench.Interface(db, 2, 1, 4, 2)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				impl, err := db.NewObject(paperschema.TypeGateImplementation, "")
				if err != nil {
					b.Fatal(err)
				}
				if _, err := db.Bind(paperschema.RelAllOfGateInterface, impl, iface); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := db.SetAttr(iface, "Length", cadcam.Int(int64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE3_HierarchyDepth reads through value-inheritance chains of
// growing depth.
func BenchmarkE3_HierarchyDepth(b *testing.B) {
	for _, depth := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			cat, err := bench.ChainCatalog(depth)
			if err != nil {
				b.Fatal(err)
			}
			db, err := cadcam.OpenMemory(cat)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			chain, err := bench.BuildChain(db, depth)
			if err != nil {
				b.Fatal(err)
			}
			leaf := chain[len(chain)-1]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.GetAttr(leaf, "X"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE4_ComponentClosure computes the visible-component closure of
// a composite.
func BenchmarkE4_ComponentClosure(b *testing.B) {
	for _, nSub := range []int{2, 32} {
		b.Run(fmt.Sprintf("subgates=%d", nSub), func(b *testing.B) {
			db := benchDB(b)
			ff, err := bench.BuildFlipFlop(db, nSub)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.VisibleComponents(ff.Impl); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE5_Permeability reads through the tailored SomeOf_Gate view.
func BenchmarkE5_Permeability(b *testing.B) {
	db := benchDB(b)
	ff, err := bench.BuildFlipFlop(db, 2)
	if err != nil {
		b.Fatal(err)
	}
	user, err := db.NewObject(paperschema.TypeTimedComposite, "")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := db.Bind(paperschema.RelSomeOfGate, user, ff.Impl); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.GetAttr(user, "TimeBehavior"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5_PermeabilityParallel reads the tailored view concurrently;
// like the E2 parallel variant this exercises the lock-free route-hit
// path, here through a SomeOf (partial-permeability) binding.
func BenchmarkE5_PermeabilityParallel(b *testing.B) {
	db := benchDB(b)
	ff, err := bench.BuildFlipFlop(db, 2)
	if err != nil {
		b.Fatal(err)
	}
	user, err := db.NewObject(paperschema.TypeTimedComposite, "")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := db.Bind(paperschema.RelSomeOfGate, user, ff.Impl); err != nil {
		b.Fatal(err)
	}
	if _, err := db.GetAttr(user, "TimeBehavior"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := db.GetAttr(user, "TimeBehavior"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE6_SteelConstraints checks the ScrewingType constraint family
// over a structure with 100 screwings.
func BenchmarkE6_SteelConstraints(b *testing.B) {
	db, err := bench.Steel()
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if _, err := bench.BuildStructure(db, 100); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := db.CheckAll(); len(v) != 0 {
			b.Fatal("violations")
		}
	}
}

// BenchmarkE7_CopyVsView compares refreshing a materialized copy with an
// always-current view read.
func BenchmarkE7_CopyVsView(b *testing.B) {
	db := benchDB(b)
	iface, err := bench.Interface(db, 2, 1, 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	impl, err := db.NewObject(paperschema.TypeGateImplementation, "")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := db.Bind(paperschema.RelAllOfGateInterface, impl, iface); err != nil {
		b.Fatal(err)
	}
	b.Run("copy-import", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := inherit.ImportCopy(db.Store(), paperschema.RelAllOfGateInterface, iface); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("copy-staleness-check", func(b *testing.B) {
		ci, err := inherit.ImportCopy(db.Store(), paperschema.RelAllOfGateInterface, iface)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ci.Stale(db.Store()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("view-read", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.GetAttr(impl, "Length"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE8_Selection resolves generic references under the three §6
// policies over 100 versions.
func BenchmarkE8_Selection(b *testing.B) {
	db := benchDB(b)
	impls, err := bench.VersionSet(db, 100)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("bottom-up", func(b *testing.B) {
		ref := cadcam.GenericRef{Design: "D", Policy: cadcam.SelectDefault}
		for i := 0; i < b.N; i++ {
			if _, err := db.Resolve(ref, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("top-down", func(b *testing.B) {
		ref := cadcam.GenericRef{Design: "D", Policy: cadcam.SelectQuery,
			Query: expr.MustParse("Status = released and TimeBehavior <= 12")}
		for i := 0; i < b.N; i++ {
			if _, err := db.Resolve(ref, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("environment", func(b *testing.B) {
		env := version.NewEnvironment("bench")
		env.Choose("D", impls[0])
		ref := cadcam.GenericRef{Design: "D", Policy: cadcam.SelectEnvironment}
		for i := 0; i < b.N; i++ {
			if _, err := db.Resolve(ref, env); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE9_LockInheritance measures a transactional read of inherited
// data (locks the whole resolution chain) against a plain read.
func BenchmarkE9_LockInheritance(b *testing.B) {
	db := benchDB(b)
	ff, err := bench.BuildFlipFlop(db, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("plain-read", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.GetAttr(ff.Impl, "Length"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("txn-read-chain-locked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tx := db.Begin("")
			if _, err := tx.GetAttr(ff.Impl, "Length"); err != nil {
				b.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE10_Expansion locks a whole component hierarchy per iteration.
func BenchmarkE10_Expansion(b *testing.B) {
	for _, nSub := range []int{2, 32} {
		b.Run(fmt.Sprintf("subgates=%d", nSub), func(b *testing.B) {
			db := benchDB(b)
			ff, err := bench.BuildFlipFlop(db, nSub)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx := db.Begin("")
				if _, err := tx.LockExpansion(ff.Impl, txn.S); err != nil {
					b.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE11_DDLParse parses the paper's full schema corpus.
func BenchmarkE11_DDLParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ddl.ParsePaperCorpus(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE12_Recovery journals 1000 ops, then measures reopen time
// (journal replay) and checkpointed reopen (snapshot load).
func BenchmarkE12_Recovery(b *testing.B) {
	setup := func(b *testing.B, checkpoint bool) string {
		b.Helper()
		dir, err := os.MkdirTemp("", "cadcam-bench-*")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { os.RemoveAll(dir) })
		db, err := cadcam.Open(paperschema.MustGates(), cadcam.Options{Dir: dir, SyncEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		iface, err := bench.Interface(db, 2, 1, 4, 2)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			if err := db.SetAttr(iface, "Length", cadcam.Int(int64(i))); err != nil {
				b.Fatal(err)
			}
		}
		if checkpoint {
			if err := db.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
		return dir
	}
	b.Run("journal-replay", func(b *testing.B) {
		dir := setup(b, false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			db, err := cadcam.Open(paperschema.MustGates(), cadcam.Options{Dir: dir, SyncEvery: -1})
			if err != nil {
				b.Fatal(err)
			}
			db.Close()
		}
	})
	b.Run("snapshot-load", func(b *testing.B) {
		dir := setup(b, true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			db, err := cadcam.Open(paperschema.MustGates(), cadcam.Options{Dir: dir, SyncEvery: -1})
			if err != nil {
				b.Fatal(err)
			}
			db.Close()
		}
	})
}

// BenchmarkJournalAppend measures the journaling overhead per mutation
// (fsync disabled, isolating the encoding + append path).
func BenchmarkJournalAppend(b *testing.B) {
	dir, err := os.MkdirTemp("", "cadcam-bench-*")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { os.RemoveAll(dir) })
	db, err := cadcam.Open(paperschema.MustGates(), cadcam.Options{Dir: dir, SyncEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	iface, err := bench.Interface(db, 2, 1, 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.SetAttr(iface, "Width", cadcam.Int(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDurableWrite measures durable (fsync-acknowledged) write
// throughput with the given number of concurrent writers, each mutating
// its own object so writers contend only on the journal, not on data.
func benchDurableWrite(b *testing.B, writers int) {
	dir, err := os.MkdirTemp("", "cadcam-bench-*")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { os.RemoveAll(dir) })
	db, err := cadcam.Open(paperschema.MustGates(), cadcam.Options{Dir: dir, SyncEvery: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	pins := make([]cadcam.Surrogate, writers)
	for i := range pins {
		pin, err := db.NewObject(paperschema.TypePin, "")
		if err != nil {
			b.Fatal(err)
		}
		pins[i] = pin
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		n := b.N / writers
		if w < b.N%writers {
			n++
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := db.SetAttr(pins[w], "PinId", cadcam.Int(int64(i))); err != nil {
					b.Error(err)
					return
				}
			}
		}(w, n)
	}
	wg.Wait()
	b.StopTimer()
	reportWALMetrics(b, db)
}

// BenchmarkDurableWrite1Writers is the single-writer durable latency floor.
func BenchmarkDurableWrite1Writers(b *testing.B) { benchDurableWrite(b, 1) }

// BenchmarkDurableWrite8Writers measures group-commit coalescing at
// moderate concurrency.
func BenchmarkDurableWrite8Writers(b *testing.B) { benchDurableWrite(b, 8) }

// BenchmarkDurableWrite64Writers measures coalescing under heavy fan-in.
func BenchmarkDurableWrite64Writers(b *testing.B) { benchDurableWrite(b, 64) }

// benchConcurrentSetAttr measures in-memory SetAttr throughput with the
// given number of concurrent writers on a store with the given shard
// count, each writer mutating its own object so the contention measured
// is shard-lock contention, not data conflicts.
func benchConcurrentSetAttr(b *testing.B, writers, shards int) {
	db, err := cadcam.Open(paperschema.MustGates(), cadcam.Options{Shards: shards})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	pins := make([]cadcam.Surrogate, writers)
	for i := range pins {
		pin, err := db.NewObject(paperschema.TypePin, "")
		if err != nil {
			b.Fatal(err)
		}
		pins[i] = pin
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		n := b.N / writers
		if w < b.N%writers {
			n++
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := db.SetAttr(pins[w], "PinId", cadcam.Int(int64(i))); err != nil {
					b.Error(err)
					return
				}
			}
		}(w, n)
	}
	wg.Wait()
}

// BenchmarkConcurrentSetAttr1Writers is the uncontended single-writer
// floor on the default shard count.
func BenchmarkConcurrentSetAttr1Writers(b *testing.B) { benchConcurrentSetAttr(b, 1, 0) }

// BenchmarkConcurrentSetAttr8Writers measures moderate multi-writer
// contention on the default shard count.
func BenchmarkConcurrentSetAttr8Writers(b *testing.B) { benchConcurrentSetAttr(b, 8, 0) }

// BenchmarkConcurrentSetAttr64Writers measures heavy fan-in on the
// default shard count.
func BenchmarkConcurrentSetAttr64Writers(b *testing.B) { benchConcurrentSetAttr(b, 64, 0) }

// BenchmarkConcurrentSetAttrShards sweeps the shard count at fixed
// 8-writer concurrency; shards=1 approximates the pre-shard store with
// one global lock.
func BenchmarkConcurrentSetAttrShards(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchConcurrentSetAttr(b, 8, shards)
		})
	}
}

// BenchmarkE13_Simulate compiles and fully evaluates a half-adder circuit
// per iteration (the E13 extension workload).
func BenchmarkE13_Simulate(b *testing.B) {
	db := benchDB(b)
	// One behavior implementation per component, each on its own usage
	// interface so pins stay distinct.
	mk := func(fn string, delay int64) (usage cadcam.Surrogate) {
		var err error
		usage, err = bench.Interface(db, 2, 1, 4, 2)
		if err != nil {
			b.Fatal(err)
		}
		impl, err := db.NewObject(paperschema.TypeGateImplementation, "")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := db.Bind(paperschema.RelAllOfGateInterface, impl, usage); err != nil {
			b.Fatal(err)
		}
		table, err := sim.Table(fn, 2)
		if err != nil {
			b.Fatal(err)
		}
		if err := db.SetAttr(impl, "Function", table); err != nil {
			b.Fatal(err)
		}
		if err := db.SetAttr(impl, "TimeBehavior", cadcam.Int(delay)); err != nil {
			b.Fatal(err)
		}
		return usage
	}
	xorU, andU := mk("XOR", 4), mk("AND", 2)
	haIface, err := bench.Interface(db, 2, 2, 10, 6)
	if err != nil {
		b.Fatal(err)
	}
	ha, err := db.NewObject(paperschema.TypeGateImplementation, "")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := db.Bind(paperschema.RelAllOfGateInterface, ha, haIface); err != nil {
		b.Fatal(err)
	}
	var gatePins [][]cadcam.Surrogate
	for _, u := range []cadcam.Surrogate{xorU, andU} {
		sg, err := db.NewSubobject(ha, "SubGates")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := db.Bind(paperschema.RelAllOfGateInterface, sg, u); err != nil {
			b.Fatal(err)
		}
		pins, err := db.Members(sg, "Pins")
		if err != nil {
			b.Fatal(err)
		}
		gatePins = append(gatePins, pins)
	}
	ext, err := db.Members(ha, "Pins")
	if err != nil {
		b.Fatal(err)
	}
	for _, pair := range [][2]cadcam.Surrogate{
		{ext[0], gatePins[0][0]}, {ext[0], gatePins[1][0]},
		{ext[1], gatePins[0][1]}, {ext[1], gatePins[1][1]},
		{gatePins[0][2], ext[2]}, {gatePins[1][2], ext[3]},
	} {
		if _, err := db.RelateIn(ha, "Wires", cadcam.Participants{
			"Pin1": cadcam.RefOf(pair[0]), "Pin2": cadcam.RefOf(pair[1]),
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		circuit, err := sim.Compile(db.Store(), ha, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := circuit.TruthTable(); err != nil {
			b.Fatal(err)
		}
	}
}

// reportWALMetrics attaches journal-pipeline counters to a benchmark.
// (No-op before the group-commit pipeline existed; see git history.)
func reportWALMetrics(b *testing.B, db *cadcam.Database) {
	b.Helper()
	reportWALStats(b, db)
}

// envObjects sizes the recovery benchmarks (CADCAM_RECOVERY_OBJECTS
// overrides; EXPERIMENTS.md E15 runs 1_000_000).
func envObjects(def int) int {
	if s := os.Getenv("CADCAM_RECOVERY_OBJECTS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// buildRecoveryDir populates a database directory with n attributed pins
// spread over every shard, checkpoints it, and optionally appends a
// journal tail of extra attribute writes (tail ops replay on open).
func buildRecoveryDir(b *testing.B, n, tail int) string {
	b.Helper()
	dir, err := os.MkdirTemp("", "cadcam-recovery-*")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { os.RemoveAll(dir) })
	db, err := cadcam.Open(paperschema.MustGates(), cadcam.Options{Dir: dir, SyncEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	surs := make([]cadcam.Surrogate, n)
	for i := 0; i < n; i++ {
		sur, err := db.NewObject(paperschema.TypePin, "")
		if err != nil {
			b.Fatal(err)
		}
		if err := db.SetAttr(sur, "PinId", cadcam.Int(int64(i%64))); err != nil {
			b.Fatal(err)
		}
		surs[i] = sur
	}
	if err := db.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < tail; i++ {
		if err := db.SetAttr(surs[i%n], "PinId", cadcam.Int(int64(i%64))); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
	return dir
}

// reopen times one full recovery of dir with the given worker count and
// reports the recovery counters of the last open.
func reopen(b *testing.B, dir string, workers int) {
	b.Helper()
	var rec cadcam.RecoveryStats
	for i := 0; i < b.N; i++ {
		db, err := cadcam.Open(paperschema.MustGates(),
			cadcam.Options{Dir: dir, SyncEvery: -1, RecoveryWorkers: workers})
		if err != nil {
			b.Fatal(err)
		}
		rec = db.Stats().Recovery
		db.Close()
	}
	b.ReportMetric(float64(rec.DecodeNs)/1e6, "decode-ms")
	b.ReportMetric(float64(rec.ReplayNs)/1e6, "replay-ms")
	b.ReportMetric(float64(rec.ReplayOps), "replay-ops")
}

// BenchmarkRecoveryCold reopens a fully checkpointed store (empty
// journal): the cost is segment decode plus parallel import, so the
// worker sweep isolates the sharded-recovery speedup.
func BenchmarkRecoveryCold(b *testing.B) {
	dir := buildRecoveryDir(b, envObjects(100_000), 0)
	for _, w := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			reopen(b, dir, w)
		})
	}
}

// BenchmarkRecoveryIncremental reopens a checkpointed store with a
// journal tail of 10% extra attribute writes, exercising segment decode
// plus the shard-partitioned parallel tail replay.
func BenchmarkRecoveryIncremental(b *testing.B) {
	n := envObjects(100_000)
	dir := buildRecoveryDir(b, n, n/10)
	for _, w := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			reopen(b, dir, w)
		})
	}
}

// mvccBenchDB builds the writers-during-scan fixture: a flip-flop scene
// for the scanner to walk plus one private pin object per writer.
func mvccBenchDB(tb testing.TB, writers int) (*cadcam.Database, []cadcam.Surrogate) {
	tb.Helper()
	db := benchDB(tb)
	if _, err := bench.BuildFlipFlop(db, 8); err != nil {
		tb.Fatal(err)
	}
	pins := make([]cadcam.Surrogate, writers)
	for i := range pins {
		var err error
		if pins[i], err = db.NewObject(paperschema.TypePin, ""); err != nil {
			tb.Fatal(err)
		}
	}
	return db, pins
}

// mvccWriters runs b.N SetAttr operations split over the pin objects'
// writers and reports ns/op.
func mvccWriters(b *testing.B, db *cadcam.Database, pins []cadcam.Surrogate) {
	per := b.N/len(pins) + 1
	var wg sync.WaitGroup
	for w := range pins {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := db.SetAttr(pins[w], "PinId", cadcam.Int(int64(i))); err != nil {
					b.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkMVCC_SnapshotRead compares an inherited read on the live
// store (memoized route, lock-free hit path) with the same read through
// a pinned snapshot (version-chain traversal at the pin sequence).
func BenchmarkMVCC_SnapshotRead(b *testing.B) {
	db := benchDB(b)
	iface, err := bench.Interface(db, 2, 1, 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	impl, err := db.NewObject(paperschema.TypeGateImplementation, "")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := db.Bind(paperschema.RelAllOfGateInterface, impl, iface); err != nil {
		b.Fatal(err)
	}
	if _, err := db.GetAttr(impl, "Length"); err != nil {
		b.Fatal(err)
	}
	b.Run("live", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.GetAttr(impl, "Length"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("snapshot", func(b *testing.B) {
		v := db.SnapshotView()
		defer v.Release()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := v.GetAttr(impl, "Length"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWritersDuringScan measures 8-writer SetAttr latency with
// no readers (baseline) and with one continuous full-store closure scan
// pinning snapshots in a loop (with-scan). The MVCC design goal is the
// two sub-benchmarks staying within ~15% of each other: long scans never
// take the locks writers contend on.
func BenchmarkWritersDuringScan(b *testing.B) {
	const writers = 8
	b.Run("baseline", func(b *testing.B) {
		db, pins := mvccBenchDB(b, writers)
		b.ResetTimer()
		mvccWriters(b, db, pins)
	})
	b.Run("with-scan", func(b *testing.B) {
		db, pins := mvccBenchDB(b, writers)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := db.SnapshotView()
				for _, sur := range v.Surrogates() {
					if _, err := v.VisibleComponents(sur); err != nil {
						b.Error(err)
						v.Release()
						return
					}
				}
				v.Release()
			}
		}()
		b.ResetTimer()
		mvccWriters(b, db, pins)
		b.StopTimer()
		close(stop)
		wg.Wait()
	})
}

// TestWritersKeepThroughputDuringScan is the timing gate behind
// BenchmarkWritersDuringScan: 8 writers must keep at least 85% of their
// no-reader SetAttr throughput while one goroutine runs full-store
// closure scans on pinned snapshots in a loop, and every pin must drain.
// Each side is the best of 5 rounds of 4,000 ops per writer, so a
// transient stall cannot fake a slowdown. It is a ratio of wall times,
// and on a 2-vCPU host the scanner's share of the CPU alone puts it near
// the bound, so it runs only when -run names it (CI's paper-experiments
// step does).
func TestWritersKeepThroughputDuringScan(t *testing.T) {
	if !strings.Contains(flag.Lookup("test.run").Value.String(), t.Name()) {
		t.Skip("wall-time ratio: runs only when -run names it")
	}
	const writers, opsEach, rounds = 8, 4000, 5
	db, pins := mvccBenchDB(t, writers)
	best := func() time.Duration {
		var min time.Duration
		for r := 0; r < rounds; r++ {
			var wg sync.WaitGroup
			t0 := time.Now()
			for _, pin := range pins {
				wg.Add(1)
				go func(pin cadcam.Surrogate) {
					defer wg.Done()
					for i := 0; i < opsEach; i++ {
						if err := db.SetAttr(pin, "PinId", cadcam.Int(int64(i))); err != nil {
							t.Error(err)
							return
						}
					}
				}(pin)
			}
			wg.Wait()
			if d := time.Since(t0); min == 0 || d < min {
				min = d
			}
		}
		return min
	}
	baseline := best()

	stop := make(chan struct{})
	var scanner sync.WaitGroup
	scans := 0
	scanner.Add(1)
	go func() {
		defer scanner.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			v := db.SnapshotView()
			for _, sur := range v.Surrogates() {
				if _, err := v.VisibleComponents(sur); err != nil {
					t.Errorf("scan at seq %d: %v", v.Seq(), err)
					v.Release()
					return
				}
			}
			v.Release()
			scans++
		}
	}()
	withScan := best()
	close(stop)
	scanner.Wait()

	perOp := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / (writers * opsEach) }
	ratio := float64(baseline) / float64(withScan)
	t.Logf("writers %.0f ns/op alone, %.0f ns/op during %d scans: ratio %.2f",
		perOp(baseline), perOp(withScan), scans, ratio)
	if ratio < 0.85 {
		t.Errorf("writers kept %.2f of their throughput during scans, want >= 0.85", ratio)
	}
	if p := db.Stats().MVCC.Pins; p != 0 {
		t.Errorf("%d pins live after the scanner stopped, want 0", p)
	}
}

// ---- E17: indexed queries ----

// envQueryObjects sizes the query benchmarks (CADCAM_QUERY_OBJECTS
// overrides; EXPERIMENTS.md E17 runs 1_000_000).
func envQueryObjects(def int) int {
	if s := os.Getenv("CADCAM_QUERY_OBJECTS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// buildQueryDB fills a "gates" class with n SimpleGates, Width = i %
// 1000 (a point predicate matches 0.1% of the extent), and indexes
// Width.
func buildQueryDB(tb testing.TB, n int) *cadcam.Database {
	tb.Helper()
	db, err := cadcam.OpenMemory(paperschema.MustGates())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	if err := db.DefineClass("gates", paperschema.TypeSimpleGate); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		g, err := db.NewObject(paperschema.TypeSimpleGate, "gates")
		if err != nil {
			tb.Fatal(err)
		}
		if err := db.SetAttr(g, "Width", cadcam.Int(int64(i%1000))); err != nil {
			tb.Fatal(err)
		}
	}
	if err := db.CreateIndex("gates_w", "gates", "Width"); err != nil {
		tb.Fatal(err)
	}
	return db
}

// BenchmarkE17_QueryIndexed times the selective indexed query; compare
// against BenchmarkE17_QueryFullScan at the same CADCAM_QUERY_OBJECTS.
func BenchmarkE17_QueryIndexed(b *testing.B) {
	db := buildQueryDB(b, envQueryObjects(100_000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query("gates", "Width = 7"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE17_QueryFullScan is the naive interpreted full scan over the
// same extent and predicate (the planner's differential oracle).
func BenchmarkE17_QueryFullScan(b *testing.B) {
	db := buildQueryDB(b, envQueryObjects(100_000))
	where, err := expr.Parse("Width = 7")
	if err != nil {
		b.Fatal(err)
	}
	src := db.Store().View
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := query.Naive(src, "gates", where); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConcurrentSetAttrIndexesPresent8Writers is the satellite
// guard for the index write hook: 8 writers on unindexed attributes of
// plain objects while a populated index exists in the store. Compare
// against BenchmarkConcurrentSetAttr8Writers — the numbers must match,
// because the hook on this path is one atomic load and a nil check.
func BenchmarkConcurrentSetAttrIndexesPresent8Writers(b *testing.B) {
	db := buildQueryDB(b, 10_000)
	const writers = 8
	pins := make([]cadcam.Surrogate, writers)
	for i := range pins {
		pin, err := db.NewObject(paperschema.TypePin, "")
		if err != nil {
			b.Fatal(err)
		}
		pins[i] = pin
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		n := b.N / writers
		if w < b.N%writers {
			n++
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := db.SetAttr(pins[w], "PinId", cadcam.Int(int64(i))); err != nil {
					b.Error(err)
					return
				}
			}
		}(w, n)
	}
	wg.Wait()
}

// TestQueryIndexSpeedupLarge is the E17 acceptance check at scale: with
// CADCAM_QUERY_OBJECTS set (CI uses 1_000_000), the selective indexed
// query must be at least 10x faster than the naive full scan. Skipped
// without the env var — building the fixture is too heavy for the
// ordinary suite.
func TestQueryIndexSpeedupLarge(t *testing.T) {
	n := envQueryObjects(0)
	if n == 0 {
		t.Skip("set CADCAM_QUERY_OBJECTS to run (CI uses 1000000)")
	}
	db := buildQueryDB(t, n)
	where, err := expr.Parse("Width = 7")
	if err != nil {
		t.Fatal(err)
	}
	src := db.Store().View

	timeOne := func(rounds int, op func() error) float64 {
		best := 0.0
		for r := 0; r < rounds; r++ {
			t0 := time.Now()
			if err := op(); err != nil {
				t.Fatal(err)
			}
			if v := float64(time.Since(t0).Nanoseconds()); best == 0 || v < best {
				best = v
			}
		}
		return best
	}
	scanNs := timeOne(3, func() error {
		_, err := query.Naive(src, "gates", where)
		return err
	})
	indexNs := timeOne(20, func() error {
		_, err := db.Query("gates", "Width = 7")
		return err
	})
	speedup := scanNs / indexNs
	t.Logf("objects=%d scan=%.2fms index=%.2fms speedup=%.1fx",
		n, scanNs/1e6, indexNs/1e6, speedup)
	if speedup < 10 {
		t.Errorf("index speedup = %.1fx, want >= 10x", speedup)
	}
	// Both paths agree on the answer, element for element.
	fast, err := db.Query("gates", "Width = 7")
	if err != nil {
		t.Fatal(err)
	}
	slow, err := query.Naive(src, "gates", where)
	if err != nil {
		t.Fatal(err)
	}
	if len(fast) != len(slow) {
		t.Fatalf("planner %d matches, oracle %d", len(fast), len(slow))
	}
	for i := range fast {
		if fast[i] != slow[i] {
			t.Fatalf("mismatch at %d: %v vs %v", i, fast[i], slow[i])
		}
	}
}

// buildCorpus fills db with the benchmark/ corpus shape: chains of a
// GateInterface_I with 3 pins, its GateInterface and 4 bound
// GateImplementations in class Impls (14 objects per chain including
// bindings), with an index over the implementations' inherited Width.
func buildCorpus(tb testing.TB, db *cadcam.Database, chains int) {
	tb.Helper()
	check := func(err error) {
		if err != nil {
			tb.Fatal(err)
		}
	}
	sur := func(s cadcam.Surrogate, err error) cadcam.Surrogate {
		check(err)
		return s
	}
	check(db.DefineClass("Impls", paperschema.TypeGateImplementation))
	for j := 0; j < chains; j++ {
		root := sur(db.NewObject(paperschema.TypeGateInterfaceI, ""))
		for p := 1; p <= 3; p++ {
			pin := sur(db.NewSubobject(root, "Pins"))
			check(db.SetAttr(pin, "InOut", cadcam.Sym("IN")))
			check(db.SetAttr(pin, "PinId", cadcam.Int(int64(p))))
		}
		iface := sur(db.NewObject(paperschema.TypeGateInterface, ""))
		sur(db.Bind(paperschema.RelAllOfGateInterfaceI, iface, root))
		check(db.SetAttr(iface, "Length", cadcam.Int(int64(j%97))))
		check(db.SetAttr(iface, "Width", cadcam.Int(int64(j%1000))))
		for k := 0; k < 4; k++ {
			impl := sur(db.NewObject(paperschema.TypeGateImplementation, "Impls"))
			sur(db.Bind(paperschema.RelAllOfGateInterface, impl, iface))
			check(db.SetAttr(impl, "TimeBehavior", cadcam.Int(int64(k))))
		}
	}
	check(db.CreateIndex("impl_width", "Impls", "Width"))
}

// BenchmarkHeapPerObject reports the live heap per object of the
// benchmark/ corpus shape (buildCorpus, 5k chains: 70k objects) on an
// in-memory database. A report, not a gate; run it with -benchtime=1x.
func BenchmarkHeapPerObject(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		db, err := cadcam.OpenMemory(paperschema.MustGates())
		if err != nil {
			b.Fatal(err)
		}
		buildCorpus(b, db, 5000)
		runtime.GC()
		runtime.ReadMemStats(&after)
		objects := db.Store().Len()
		b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/float64(objects), "heap_B/object")
		b.ReportMetric(float64(objects), "objects")
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpenHeap reports what recovering a checkpoint of the corpus
// shape (buildCorpus, 5k chains: 70k objects, no journal tail) costs in
// memory: the bytes Open allocates per object and the live heap per
// object after it. The streamed loader keeps at most RecoveryWorkers
// segments decoded at once, so the first tracks the import's garbage and
// the second the store alone. A report, not a gate; run it with
// -benchtime=1x.
func BenchmarkOpenHeap(b *testing.B) {
	dir := b.TempDir()
	opts := cadcam.Options{Dir: dir, SyncEvery: -1}
	db, err := cadcam.Open(paperschema.MustGates(), opts)
	if err != nil {
		b.Fatal(err)
	}
	buildCorpus(b, db, 5000)
	if err := db.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var before, opened, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		db, err := cadcam.Open(paperschema.MustGates(), opts)
		if err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&opened)
		runtime.GC()
		runtime.ReadMemStats(&after)
		objects := float64(db.Store().Len())
		b.ReportMetric(float64(opened.TotalAlloc-before.TotalAlloc)/objects, "alloc_B/object")
		b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/objects, "heap_B/object")
		b.ReportMetric(float64(db.Stats().Recovery.PeakRecords), "peak_records")
		b.ReportMetric(objects, "objects")
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
