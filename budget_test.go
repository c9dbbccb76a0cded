package cadcam_test

import (
	"runtime"
	"testing"

	"cadcam"
	"cadcam/internal/paperschema"
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
)

// TestWorkBudgets gates the heap per object and the allocations of the
// hot store paths. It must not run in parallel with other tests: their
// garbage and goroutines would show up in the heap delta.
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

		next := 0
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
}
