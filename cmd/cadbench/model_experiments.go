package main

import (
	"fmt"
	"time"

	"cadcam"
	"cadcam/internal/bench"
	"cadcam/internal/inherit"
	"cadcam/internal/paperschema"
)

// runE1 reproduces Figure 1 at parametric scale: a composite gate built
// from elementary components and cross-level wires, with the paper's pin
// constraints checked over the whole database.
func runE1() error {
	fmt.Println("claim: complex objects hold subobjects and cross-level wires; constraints hold")
	row("subgates", "objects", "wires", "build", "check", "violations")
	for _, nSub := range []int{2, 8, 32, 128} {
		db, err := bench.Gates()
		if err != nil {
			return err
		}
		start := time.Now()
		ff, err := bench.BuildFlipFlop(db, nSub)
		if err != nil {
			return err
		}
		build := time.Since(start)
		start = time.Now()
		violations := db.CheckAll()
		check := time.Since(start)
		row(nSub, db.Store().Len(), len(ff.Wires), build.Round(time.Microsecond),
			check.Round(time.Microsecond), len(violations))
		if len(violations) != 0 {
			return fmt.Errorf("unexpected violations: %v", violations)
		}
		db.Close()
	}
	// A wire to a foreign pin must be rejected by the where restriction.
	db, err := bench.Gates()
	if err != nil {
		return err
	}
	defer db.Close()
	ff, err := bench.BuildFlipFlop(db, 2)
	if err != nil {
		return err
	}
	foreign, err := bench.Interface(db, 2, 1, 4, 2)
	if err != nil {
		return err
	}
	foreignPins, _ := db.Members(foreign, "Pins")
	ownPins, _ := db.Members(ff.Impl, "Pins")
	_, err = db.RelateIn(ff.Impl, "Wires", cadcam.Participants{
		"Pin1": cadcam.RefOf(ownPins[0]),
		"Pin2": cadcam.RefOf(foreignPins[0]),
	})
	fmt.Printf("foreign wire rejected: %v\n", err != nil)
	if err == nil {
		return fmt.Errorf("where restriction failed to reject a foreign wire")
	}
	return nil
}

// runE2 verifies Figure 2: implementations inherit the interface's
// values by view — a transmitter update is instantly visible in every
// inheritor, write protection holds, and the binding bookkeeping counts
// the change.
func runE2() error {
	fmt.Println("claim: transmitter updates are instantly visible in all inheritors; inherited data is read-only")
	row("inheritors", "stale-after-update", "write-protected", "flagged", "read-direct", "read-inherited")
	for _, n := range []int{1, 16, 256} {
		db, err := bench.Gates()
		if err != nil {
			return err
		}
		iface, err := bench.Interface(db, 2, 1, 4, 2)
		if err != nil {
			return err
		}
		impls := make([]cadcam.Surrogate, n)
		for i := range impls {
			impl, err := db.NewObject(paperschema.TypeGateImplementation, "")
			if err != nil {
				return err
			}
			if _, err := db.Bind(paperschema.RelAllOfGateInterface, impl, iface); err != nil {
				return err
			}
			impls[i] = impl
		}
		if err := db.SetAttr(iface, "Length", cadcam.Int(9)); err != nil {
			return err
		}
		stale := 0
		for _, impl := range impls {
			v, err := db.GetAttr(impl, "Length")
			if err != nil {
				return err
			}
			if !v.Equal(cadcam.Int(9)) {
				stale++
			}
		}
		protected := false
		if err := db.SetAttr(impls[0], "Length", cadcam.Int(1)); err != nil {
			protected = true
		}
		flagged := len(db.PendingAdaptations())

		directT := readLatency(db, iface, "Length")
		inheritedT := readLatency(db, impls[0], "Length")
		row(n, stale, protected, flagged, directT, inheritedT)
		if stale != 0 || !protected || flagged != n {
			return fmt.Errorf("view semantics violated: stale=%d protected=%v flagged=%d", stale, protected, flagged)
		}
		db.Close()
	}
	return nil
}

// runE3 sweeps abstraction-hierarchy depth: resolution cost grows
// linearly with the number of hops, the paper's "as subtle as desired"
// hierarchies staying cheap.
func runE3() error {
	fmt.Println("claim: interfaces generalize to abstraction hierarchies of any depth")
	row("depth", "leaf-read", "value-ok", "ancestors")
	var stats cadcam.DBStats
	for _, depth := range []int{1, 2, 4, 8, 16, 32, 64} {
		cat, err := bench.ChainCatalog(depth)
		if err != nil {
			return err
		}
		db, err := cadcam.OpenMemory(cat)
		if err != nil {
			return err
		}
		chain, err := bench.BuildChain(db, depth)
		if err != nil {
			return err
		}
		leaf := chain[len(chain)-1]
		v, err := db.GetAttr(leaf, "X")
		if err != nil {
			return err
		}
		lat := readLatency(db, leaf, "X")
		anc := db.Ancestors(leaf)
		row(depth, lat, v.Equal(cadcam.Int(42)), len(anc))
		if !v.Equal(cadcam.Int(42)) || len(anc) != depth {
			return fmt.Errorf("depth %d: value=%s ancestors=%d", depth, v, len(anc))
		}
		stats = db.Stats()
		db.Close()
	}
	fmt.Printf("route cache at depth 64: hits=%d misses=%d invalidations=%d\n",
		stats.Hits, stats.Misses, stats.Invalidations)
	return nil
}

// runE4 reproduces Figures 3 and 4: one relationship type serves as both
// interface edge and component edge, and the component closure grows with
// the number of components.
func runE4() error {
	fmt.Println("claim: the same inheritance relationship models interface and component edges")
	row("subgates", "portions", "expansion", "closure-time")
	for _, nSub := range []int{2, 8, 32} {
		db, err := bench.Gates()
		if err != nil {
			return err
		}
		ff, err := bench.BuildFlipFlop(db, nSub)
		if err != nil {
			return err
		}
		start := time.Now()
		portions, err := db.VisibleComponents(ff.Impl)
		if err != nil {
			return err
		}
		dur := time.Since(start)
		exp, err := db.Expand(ff.Impl)
		if err != nil {
			return err
		}
		row(nSub, len(portions), exp.Size(), dur.Round(time.Microsecond))
		// Figure 4: the same rel type appears in the interface role (on
		// the implementation) and the component role (on subgates).
		ifaceEdge, _ := db.BindingOf(ff.Impl, paperschema.RelAllOfGateInterface)
		compEdge, _ := db.BindingOf(ff.SubGates[0], paperschema.RelAllOfGateInterface)
		if ifaceEdge == nil || compEdge == nil {
			return fmt.Errorf("dual-role bindings missing")
		}
		db.Close()
	}
	return nil
}

// runE5 verifies §4's permeability tailoring: SomeOf_Gate exports
// TimeBehavior past the interface while Function stays private, and the
// tailored view transfers less data than a full copy of the transmitter.
func runE5() error {
	fmt.Println("claim: permeability can be tailored per relationship (SomeOf_Gate)")
	db, err := bench.Gates()
	if err != nil {
		return err
	}
	defer db.Close()
	ff, err := bench.BuildFlipFlop(db, 2)
	if err != nil {
		return err
	}
	user, err := db.NewObject(paperschema.TypeTimedComposite, "")
	if err != nil {
		return err
	}
	if _, err := db.Bind(paperschema.RelSomeOfGate, user, ff.Impl); err != nil {
		return err
	}
	visible := func(attr string) bool {
		_, err := db.GetAttr(user, attr)
		return err == nil
	}
	row("attr", "visible-via-SomeOf_Gate")
	for _, attr := range []string{"Length", "Width", "TimeBehavior", "Pins", "Function", "SimSlot"} {
		if attr == "Pins" {
			pins, err := db.Members(user, "Pins")
			row(attr, err == nil && len(pins) > 0)
			continue
		}
		row(attr, visible(attr))
	}
	if visible("Function") {
		return fmt.Errorf("Function leaked through SomeOf_Gate")
	}
	if !visible("TimeBehavior") {
		return fmt.Errorf("TimeBehavior not exported by SomeOf_Gate")
	}
	// Space: the tailored import is smaller than the interface's full
	// import once the implementation carries more private data.
	full, err := inherit.ImportCopy(db.Store(), paperschema.RelSomeOfGate, ff.Impl)
	if err != nil {
		return err
	}
	ifaceCopy, err := inherit.ImportCopy(db.Store(), paperschema.RelAllOfGateInterface, ff.Iface)
	if err != nil {
		return err
	}
	fmt.Printf("copied bytes: SomeOf_Gate(impl)=%d AllOf_GateInterface(iface)=%d\n",
		full.Bytes, ifaceCopy.Bytes)
	return nil
}

// runE6 scales Figure 5: structures with many screwings, all ScrewingType
// constraints checked, and the shared-part update detected everywhere.
func runE6() error {
	fmt.Println("claim: relationship objects with internal components model assemblies; constraints catch bad parts")
	row("screwings", "objects", "build", "check-all", "violations-after-break")
	for _, n := range []int{1, 10, 100} {
		db, err := bench.Steel()
		if err != nil {
			return err
		}
		start := time.Now()
		st, err := bench.BuildStructure(db, n)
		if err != nil {
			return err
		}
		build := time.Since(start)
		start = time.Now()
		violations := db.CheckAll()
		checkDur := time.Since(start)
		if len(violations) != 0 {
			return fmt.Errorf("clean structure violates: %v", violations[0])
		}
		// Breaking the shared bolt breaks every screwing that uses it.
		if err := db.SetAttr(st.Bolt, "Diameter", cadcam.Int(99)); err != nil {
			return err
		}
		broken := db.CheckAll()
		row(n, db.Store().Len(), build.Round(time.Microsecond),
			checkDur.Round(time.Microsecond), len(broken))
		if len(broken) != n {
			return fmt.Errorf("expected %d violations, got %d", n, len(broken))
		}
		db.Close()
	}
	return nil
}

// readLatency measures the average GetAttr latency over a few thousand
// reads.
func readLatency(db *cadcam.Database, sur cadcam.Surrogate, attr string) time.Duration {
	const iters = 2000
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := db.GetAttr(sur, attr); err != nil {
			return 0
		}
	}
	return time.Since(start) / iters
}
