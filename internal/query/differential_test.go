package query

// Differential harness: random workloads interleaving mutations, index
// churn and queries, with every planner execution checked element for
// element against the naive full scan — on the live store and
// on a pinned snapshot. Runs in the ordinary test suite, so CI executes
// it on every push.

import (
	"fmt"
	"math/rand"
	"testing"

	"cadcam/internal/domain"
	"cadcam/internal/expr"
	"cadcam/internal/object"
	"cadcam/internal/paperschema"
)

// diffDriver mutates a store of SimpleGates ("gates") and
// GateImplementations bound to interfaces ("impls"); errors from
// rejected operations are fine.
type diffDriver struct {
	rng    *rand.Rand
	s      *object.Store
	gates  []domain.Surrogate
	impls  []domain.Surrogate
	ifaces []domain.Surrogate
}

func newDiffDriver(t *testing.T, seed int64) *diffDriver {
	t.Helper()
	s := gateStore(t)
	for _, def := range [][2]string{{"gates", paperschema.TypeSimpleGate}, {"impls", paperschema.TypeGateImplementation}} {
		if err := s.DefineClass(def[0], def[1]); err != nil {
			t.Fatal(err)
		}
	}
	return &diffDriver{rng: rand.New(rand.NewSource(seed)), s: s}
}

func (d *diffDriver) pick(pool []domain.Surrogate) domain.Surrogate {
	if len(pool) == 0 {
		return 0
	}
	return pool[d.rng.Intn(len(pool))]
}

// val makes a random attribute value; occasionally null (which unindexes),
// never NaN (unindexable by design, and NaN breaks oracle comparisons).
func (d *diffDriver) val() domain.Value {
	switch d.rng.Intn(4) {
	case 0:
		return domain.NullValue
	case 1:
		return domain.Rl(float64(d.rng.Intn(40)) / 2)
	default:
		return domain.Int(int64(d.rng.Intn(20)))
	}
}

func (d *diffDriver) step() {
	switch d.rng.Intn(12) {
	case 0:
		if g, err := d.s.NewObject(paperschema.TypeSimpleGate, "gates"); err == nil {
			d.gates = append(d.gates, g)
		}
	case 1:
		if im, err := d.s.NewObject(paperschema.TypeGateImplementation, "impls"); err == nil {
			d.impls = append(d.impls, im)
		}
	case 2:
		if f, err := d.s.NewObject(paperschema.TypeGateInterface, ""); err == nil {
			d.ifaces = append(d.ifaces, f)
		}
	case 3, 4:
		attr := []string{"Width", "Length"}[d.rng.Intn(2)]
		_ = d.s.SetAttr(d.pick(d.gates), attr, d.val())
	case 5:
		// Transmitter write: propagates to bound impls through the notifier.
		attr := []string{"Width", "Length"}[d.rng.Intn(2)]
		_ = d.s.SetAttr(d.pick(d.ifaces), attr, d.val())
	case 6:
		_, _ = d.s.Bind(paperschema.RelAllOfGateInterface, d.pick(d.impls), d.pick(d.ifaces))
	case 7:
		_ = d.s.Unbind(paperschema.RelAllOfGateInterface, d.pick(d.impls))
	case 8:
		pool := [][]domain.Surrogate{d.gates, d.impls, d.ifaces}[d.rng.Intn(3)]
		_ = d.s.Delete(d.pick(pool))
	case 9:
		cls := []string{"gates", "impls"}[d.rng.Intn(2)]
		attr := []string{"Width", "Length"}[d.rng.Intn(2)]
		_ = d.s.CreateIndex(fmt.Sprintf("ix_%s_%s", cls, attr), cls, attr)
	case 10:
		cls := []string{"gates", "impls"}[d.rng.Intn(2)]
		attr := []string{"Width", "Length"}[d.rng.Intn(2)]
		_ = d.s.DropIndex(fmt.Sprintf("ix_%s_%s", cls, attr))
	default:
		_ = d.s.SetAttr(d.pick(d.gates), "Function", domain.Sym([]string{"AND", "OR", "NAND"}[d.rng.Intn(3)]))
	}
}

// predicate generates a random query predicate from a fixed grammar:
// comparisons over Width/Length/Function with and/or/not mixtures.
func (d *diffDriver) predicate() string {
	attr := func() string { return []string{"Width", "Length"}[d.rng.Intn(2)] }
	cmp := func() string {
		ops := []string{"=", "<", "<=", ">", ">="}
		switch d.rng.Intn(4) {
		case 0: // literal on the left
			return fmt.Sprintf("%d %s %s", d.rng.Intn(20), ops[d.rng.Intn(len(ops))], attr())
		case 1: // real literal
			return fmt.Sprintf("%s %s %.1f", attr(), ops[d.rng.Intn(len(ops))], float64(d.rng.Intn(40))/2)
		case 2: // path vs path (never sargable)
			return "Width " + ops[d.rng.Intn(len(ops))] + " Length"
		default:
			return fmt.Sprintf("%s %s %d", attr(), ops[d.rng.Intn(len(ops))], d.rng.Intn(20))
		}
	}
	switch d.rng.Intn(4) {
	case 0:
		return cmp()
	case 1:
		return cmp() + " and " + cmp()
	case 2:
		return cmp() + " or " + cmp()
	default:
		return "not (" + cmp() + ")"
	}
}

// checkOne runs a single predicate through the planner and the oracle on
// one source and compares element for element.
func checkOne(t *testing.T, src object.View, cls, where string, seed int64, step int) {
	t.Helper()
	got, plan, err := Run(src, cls, where)
	if err != nil {
		t.Fatalf("seed %d step %d: Run(%q, %q): %v", seed, step, cls, where, err)
	}
	e, err := expr.Parse(where)
	if err != nil {
		t.Fatalf("seed %d: parse %q: %v", seed, where, err)
	}
	want, err := Naive(src, cls, e)
	if err != nil {
		t.Fatalf("seed %d: Naive(%q, %q): %v", seed, cls, where, err)
	}
	if len(got) != len(want) {
		t.Fatalf("seed %d step %d: %q over %q via %s: planner %v, oracle %v",
			seed, step, where, cls, plan.Mode, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("seed %d step %d: %q over %q via %s: planner[%d]=%v, oracle=%v",
				seed, step, where, cls, plan.Mode, i, got[i], want[i])
		}
	}
}

func TestDifferentialPlannerVsNaive(t *testing.T) {
	for _, seed := range []int64{2, 13, 101, 1989} {
		d := newDiffDriver(t, seed)
		for i := 0; i < 300; i++ {
			d.step()
			if i%25 != 0 {
				continue
			}
			src := d.s.View
			sn := d.s.Snapshot()
			snSrc := sn.View
			for q := 0; q < 6; q++ {
				where := d.predicate()
				cls := []string{"gates", "impls"}[d.rng.Intn(2)]
				checkOne(t, src, cls, where, seed, i)
				checkOne(t, snSrc, cls, where, seed, i)
			}
			sn.Release()
		}
		if bad := d.s.CheckInvariants(); len(bad) != 0 {
			t.Fatalf("seed %d: store inconsistent after workload: %v", seed, bad)
		}
	}
}

// TestDifferentialSnapshotStability pins one snapshot, keeps mutating,
// and asserts the pinned query answer never moves while the live one
// tracks the naive oracle.
func TestDifferentialSnapshotStability(t *testing.T) {
	d := newDiffDriver(t, 7)
	for i := 0; i < 120; i++ {
		d.step()
	}
	sn := d.s.Snapshot()
	defer sn.Release()
	snSrc := sn.View
	const where = "Width >= 5 and Width <= 12"
	pinned, _, err := Run(snSrc, "gates", where)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		d.step()
		if i%20 != 0 {
			continue
		}
		again, _, err := Run(snSrc, "gates", where)
		if err != nil {
			t.Fatal(err)
		}
		if len(again) != len(pinned) {
			t.Fatalf("step %d: pinned answer moved: %v -> %v", i, pinned, again)
		}
		for j := range again {
			if again[j] != pinned[j] {
				t.Fatalf("step %d: pinned answer moved at %d", i, j)
			}
		}
		checkOne(t, d.s.View, "gates", where, 7, i)
	}
}
