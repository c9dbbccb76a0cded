package object_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"cadcam/internal/domain"
	"cadcam/internal/inherit"
	"cadcam/internal/model"
	"cadcam/internal/object"
	"cadcam/internal/oplog"
	"cadcam/internal/paperschema"
)

// Deterministic reproducers for snapshot publication races. Both drive a
// store through its step hook, so a reader or writer runs at an exact
// point inside an operation or a sweep instead of racing for it.

var (
	probeAttrs   = []string{"Length", "Width", "PinId", "TimeBehavior"}
	probeMembers = []string{"Pins", "SubGates", "Wires"}
)

// pinView is what a reader can observe of the non-relationship objects and
// database-level classes at one sequence point.
type pinView struct {
	Attrs   map[string]string
	Members map[string]string
	Classes map[string][]domain.Surrogate
}

func valueOrErr(v domain.Value, err error) string {
	if err != nil {
		return "error"
	}
	return fmt.Sprint(v)
}

func sursOrErr(surs []domain.Surrogate, err error) string {
	if err != nil {
		return "error"
	}
	return fmt.Sprint(surs)
}

func sortedSurs(surs []domain.Surrogate) []domain.Surrogate {
	out := append([]domain.Surrogate{}, surs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// modelView reads the oracle: the naive model fed by the journal.
func modelView(m *model.Model) pinView {
	st := m.Export()
	pv := pinView{Attrs: map[string]string{}, Members: map[string]string{}, Classes: map[string][]domain.Surrogate{}}
	for _, c := range st.Classes {
		pv.Classes[c.Name] = []domain.Surrogate{}
	}
	for _, o := range st.Objects {
		if o.OwnerClass != "" {
			pv.Classes[o.OwnerClass] = sortedSurs(append(pv.Classes[o.OwnerClass], o.Sur))
		}
		if o.IsRel {
			continue
		}
		for _, a := range probeAttrs {
			pv.Attrs[fmt.Sprint(o.Sur, ".", a)] = valueOrErr(m.ResolveAttr(o.Sur, a))
		}
		for _, n := range probeMembers {
			pv.Members[fmt.Sprint(o.Sur, ".", n)] = sursOrErr(m.ResolveMembers(o.Sur, n))
		}
	}
	return pv
}

// snapView reads the same things through a pinned snapshot.
func snapView(t *testing.T, sn *object.Snapshot) pinView {
	t.Helper()
	pv := pinView{Attrs: map[string]string{}, Members: map[string]string{}, Classes: map[string][]domain.Surrogate{}}
	for _, name := range sn.ClassNames() {
		ms, err := sn.Class(name)
		if err != nil {
			t.Fatalf("class %q at pin %d: %v", name, sn.Seq(), err)
		}
		pv.Classes[name] = sortedSurs(ms)
	}
	for _, sur := range sn.Surrogates() {
		o, err := sn.Get(sur)
		if err != nil {
			t.Fatalf("%s visible at pin %d but Get failed: %v", sur, sn.Seq(), err)
		}
		if o.IsRelationship() {
			continue
		}
		for _, a := range probeAttrs {
			pv.Attrs[fmt.Sprint(sur, ".", a)] = valueOrErr(sn.GetAttr(sur, a))
		}
		for _, n := range probeMembers {
			pv.Members[fmt.Sprint(sur, ".", n)] = sursOrErr(sn.Members(sur, n))
		}
	}
	return pv
}

// closures computes the component closure of every object visible at the
// pin; any error is a reader reaching state the pin cannot see.
func closures(t *testing.T, sn *object.Snapshot) map[domain.Surrogate][]inherit.Portion {
	t.Helper()
	out := map[domain.Surrogate][]inherit.Portion{}
	for _, sur := range sn.Surrogates() {
		ps, err := inherit.VisibleComponents(sn.View, sur)
		if err != nil {
			t.Fatalf("closure of %s at pin %d: %v", sur, sn.Seq(), err)
		}
		out[sur] = ps
	}
	return out
}

// TestSnapshotMidOpClassChurn pins a snapshot before every operation and,
// at the step point between each class-churn operation's live mutation
// and its commit, requires the pin to read exactly the journal-fed model
// as of the pin: class extents, local and inherited members, attributes
// and component closures. It covers database-level and local class
// membership through creation into a class, lazy subclass and
// sub-relationship materialization, a rolled-back RelateIn and delete
// cascades.
func TestSnapshotMidOpClassChurn(t *testing.T) {
	cat := paperschema.MustGates()
	s, err := object.NewStore(cat)
	if err != nil {
		t.Fatal(err)
	}
	m := model.New(cat)
	s.SetJournal(func(op *oplog.Op) {
		if err := m.Apply(op); err != nil {
			t.Errorf("model rejected journaled op %d: %v", op.Kind, err)
		}
	})

	var (
		sn     *object.Snapshot
		want   pinView
		wantCl map[domain.Surrogate][]inherit.Portion
		fired  int
	)
	check := func(when string) {
		t.Helper()
		if got := snapView(t, sn); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: pin %d reads\n%+v\nmodel at pin reads\n%+v", when, sn.Seq(), got, want)
		}
		if got := closures(t, sn); !reflect.DeepEqual(got, wantCl) {
			t.Fatalf("%s: closures at pin %d moved:\n%v\nwant\n%v", when, sn.Seq(), got, wantCl)
		}
	}
	object.SetStepHook(s, func(point string) {
		if point == "class-commit" && sn != nil {
			fired++
			check("mid-operation")
		}
	})
	// step runs op with a pin taken just before it; churn says whether
	// the op mutates class membership (so the step point must fire).
	step := func(name string, churn bool, op func() error) {
		t.Helper()
		sn = s.Snapshot()
		want, wantCl = modelView(m), closures(t, sn)
		before := fired
		if err := op(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if churn && fired == before {
			t.Fatalf("%s: class-commit step point never fired", name)
		}
		check("after " + name)
		sn.Release()
		sn = nil
	}
	var root, root2, pin1, pin2, pin3, iface, impl, sub domain.Surrogate
	newSur := func(dst *domain.Surrogate, f func() (domain.Surrogate, error)) func() error {
		return func() error {
			sur, err := f()
			*dst = sur
			return err
		}
	}

	step("define class", false, func() error { return s.DefineClass("C", paperschema.TypeGateInterfaceI) })
	step("first member of a class", true, newSur(&root, func() (domain.Surrogate, error) {
		return s.NewObject(paperschema.TypeGateInterfaceI, "C")
	}))
	step("lazy subclass", true, newSur(&pin1, func() (domain.Surrogate, error) { return s.NewSubobject(root, "Pins") }))
	step("second subobject", true, newSur(&pin2, func() (domain.Surrogate, error) { return s.NewSubobject(root, "Pins") }))
	step("set pin ids", false, func() error {
		if err := s.SetAttr(pin1, "PinId", domain.Int(1)); err != nil {
			return err
		}
		return s.SetAttr(pin2, "PinId", domain.Int(2))
	})
	step("second member of a class", true, newSur(&root2, func() (domain.Surrogate, error) {
		return s.NewObject(paperschema.TypeGateInterfaceI, "C")
	}))
	step("foreign pin", true, newSur(&pin3, func() (domain.Surrogate, error) { return s.NewSubobject(root2, "Pins") }))
	step("interface", false, func() error {
		var err error
		if iface, err = s.NewObject(paperschema.TypeGateInterface, ""); err != nil {
			return err
		}
		if _, err = s.Bind(paperschema.RelAllOfGateInterfaceI, iface, root); err != nil {
			return err
		}
		return s.SetAttr(iface, "Length", domain.Int(4))
	})
	step("implementation", false, func() error {
		var err error
		if impl, err = s.NewObject(paperschema.TypeGateImplementation, ""); err != nil {
			return err
		}
		_, err = s.Bind(paperschema.RelAllOfGateInterface, impl, iface)
		return err
	})
	step("lazy inline subclass", true, newSur(&sub, func() (domain.Surrogate, error) { return s.NewSubobject(impl, "SubGates") }))
	step("lazy sub-relationship", true, func() error {
		_, err := s.RelateIn(impl, "Wires", object.Participants{"Pin1": domain.Ref(pin1), "Pin2": domain.Ref(pin2)})
		return err
	})
	step("rolled-back RelateIn", false, func() error {
		if _, err := s.RelateIn(impl, "Wires", object.Participants{"Pin1": domain.Ref(pin1), "Pin2": domain.Ref(pin3)}); err == nil {
			return fmt.Errorf("where-restriction violation accepted")
		}
		return nil
	})
	step("top-level relationship", false, func() error {
		_, err := s.Relate(paperschema.TypeWire, object.Participants{"Pin1": domain.Ref(pin1), "Pin2": domain.Ref(pin3)})
		return err
	})
	step("delete a subobject", true, func() error { return s.Delete(pin2) })
	s.SetDeletePolicy(object.DeleteUnbind)
	step("delete a class member and its cascade", true, func() error { return s.Delete(root) })
	step("delete an inline subobject", true, func() error { return s.Delete(sub) })
	step("delete an implementation", false, func() error { return s.Delete(impl) })
}

// TestSnapshotPinDuringSweep takes a pin while a sweep is under way —
// before the first shard, between shards, before the class stripes and
// before the index partitions — and at once mutates every kind of
// versioned slot the pin can read: attributes, modification sequences,
// binding bookkeeping, both binding index sides, local and database-level
// class membership, index postings and object liveness. When the sweep
// finishes, the pin must still read everything as it did when it was
// taken.
func TestSnapshotPinDuringSweep(t *testing.T) {
	for _, at := range []struct {
		point string
		nth   int
	}{{"sweep-shard", 0}, {"sweep-shard", 5}, {"sweep-stripe", 0}, {"sweep-index", 3}} {
		t.Run(fmt.Sprintf("%s#%d", at.point, at.nth), func(t *testing.T) {
			pinDuringSweep(t, at.point, at.nth)
		})
	}
}

// pinRead is everything pinDuringSweep reads at its pin.
type pinRead struct {
	Export                 *object.StoreState
	TypeOf                 map[domain.Surrogate]string
	ModSeq                 map[domain.Surrogate]uint64
	Attrs, Members, Closes map[string]string
	Class                  []domain.Surrogate
	In                     map[string]domain.Surrogate
	Out                    []domain.Surrogate
	Probe                  []domain.Surrogate
}

func pinDuringSweep(t *testing.T, point string, nth int) {
	s, err := object.NewStore(paperschema.MustGates())
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	sur := func(v domain.Surrogate, err error) domain.Surrogate {
		t.Helper()
		must(err)
		return v
	}
	must(s.DefineClass("Ifaces", paperschema.TypeGateInterface))
	must(s.CreateIndex("width", "Ifaces", "Width"))
	root := sur(s.NewObject(paperschema.TypeGateInterfaceI, ""))
	var pins []domain.Surrogate
	for i := 1; i <= 3; i++ {
		p := sur(s.NewSubobject(root, "Pins"))
		must(s.SetAttr(p, "PinId", domain.Int(int64(i))))
		pins = append(pins, p)
	}
	iface := sur(s.NewObject(paperschema.TypeGateInterface, "Ifaces"))
	sur(s.Bind(paperschema.RelAllOfGateInterfaceI, iface, root))
	must(s.SetAttr(iface, "Length", domain.Int(4)))
	must(s.SetAttr(iface, "Width", domain.Int(2)))
	victim := sur(s.NewObject(paperschema.TypeGateInterface, "Ifaces"))
	must(s.SetAttr(victim, "Width", domain.Int(2)))
	impl := sur(s.NewObject(paperschema.TypeGateImplementation, ""))
	bsur := sur(s.Bind(paperschema.RelAllOfGateInterface, impl, iface))
	must(s.SetAttr(iface, "Length", domain.Int(5))) // one bookkeeping update

	read := func(sn *object.Snapshot) pinRead {
		r := pinRead{
			Export: sn.Export(),
			TypeOf: map[domain.Surrogate]string{},
			ModSeq: map[domain.Surrogate]uint64{},
			Attrs:  map[string]string{}, Members: map[string]string{}, Closes: map[string]string{},
			In: map[string]domain.Surrogate{},
		}
		for rel, b := range sn.BindingsOfInheritor(impl) {
			r.In[rel] = b.Obj.Surrogate()
		}
		for _, b := range sn.BindingsOfTransmitter(iface) {
			r.Out = append(r.Out, b.Obj.Surrogate())
		}
		for _, x := range append([]domain.Surrogate{root, iface, victim, impl, bsur}, pins...) {
			tn, err := sn.TypeOf(x)
			if err != nil {
				t.Fatalf("%s TypeOf at pin %d: %v", x, sn.Seq(), err)
			}
			r.TypeOf[x] = tn
			if r.ModSeq[x], err = sn.ModSeq(x); err != nil {
				t.Fatal(err)
			}
			ps, err := inherit.VisibleComponents(sn.View, x)
			r.Closes[fmt.Sprint(x)] = fmt.Sprint(ps, err)
		}
		for _, x := range []domain.Surrogate{iface, victim, impl} {
			for _, a := range []string{"Length", "Width"} {
				r.Attrs[fmt.Sprint(x, ".", a)] = valueOrErr(sn.GetAttr(x, a))
			}
		}
		r.Attrs["updates"] = valueOrErr(sn.GetAttr(bsur, object.AttrTransmitterUpdates))
		for _, x := range []domain.Surrogate{root, iface, impl} {
			r.Members[fmt.Sprint(x)] = sursOrErr(sn.Members(x, "Pins"))
		}
		r.Class, _ = sn.Class("Ifaces")
		r.Probe, _ = sn.IndexProbe("Ifaces", "Width", domain.Int(2), domain.Int(2))
		return r
	}

	var (
		sn   *object.Snapshot
		want pinRead
		seen int
	)
	object.SetStepHook(s, func(p string) {
		if p != point || sn != nil {
			return
		}
		if seen++; seen <= nth {
			return
		}
		sn = s.Snapshot()
		want = read(sn)
		must(s.SetAttr(iface, "Length", domain.Int(9)))
		must(s.SetAttr(iface, "Width", domain.Int(7)))
		must(s.Acknowledge(paperschema.RelAllOfGateInterface, impl))
		must(s.Unbind(paperschema.RelAllOfGateInterface, impl))
		must(s.Delete(pins[1]))
		must(s.Delete(victim))
	})
	s.SweepVersions()
	if sn == nil {
		t.Fatalf("step point %s#%d never fired", point, nth)
	}
	defer sn.Release()
	if len(want.Probe) != 2 || len(want.Class) != 2 || len(want.In) != 1 {
		t.Fatalf("fixture did not set up the pinned state: %+v", want)
	}
	got := read(sn)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pin %d moved across the sweep:\n got %+v\nwant %+v", sn.Seq(), got, want)
	}
	// The live store moved on.
	if s.Exists(victim) || s.Exists(pins[1]) {
		t.Fatal("deleted objects still live")
	}
}
