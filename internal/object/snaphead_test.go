package object_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cadcam/internal/domain"
	"cadcam/internal/object"
	"cadcam/internal/paperschema"
	"cadcam/internal/schema"
)

// readNames lists the names of a type that GetAttr and Members serve:
// attributes (own and inherited, participant roles and the binding
// bookkeeping on relationship objects) and member names (subclasses and
// sub-relationships), plus one unknown name in each list.
func readNames(cat *schema.Catalog, typeName string) (attrs, members []string) {
	attrs = []string{"Surrogate", "NoSuchName"}
	members = []string{"NoSuchName"}
	if eff, ok := cat.Effective(typeName); ok {
		for _, a := range eff.Attrs {
			attrs = append(attrs, a.Name)
		}
		for _, sc := range eff.Subclasses {
			members = append(members, sc.Name)
		}
		for _, sr := range eff.Type.SubRels {
			members = append(members, sr.Name)
		}
	}
	if rt, ok := cat.RelType(typeName); ok {
		for _, p := range rt.Participants {
			attrs = append(attrs, p.Name)
		}
		for _, a := range rt.Attributes {
			attrs = append(attrs, a.Name)
		}
		for _, sc := range rt.Subclasses {
			members = append(members, sc.Name)
		}
		for _, sr := range rt.SubRels {
			members = append(members, sr.Name)
		}
	}
	if it, ok := cat.InherRelType(typeName); ok {
		attrs = append(attrs, "Transmitter", "Inheritor",
			object.AttrTransmitterUpdates, object.AttrLastUpdateSeq, object.AttrAcknowledgedSeq)
		for _, a := range it.Attributes {
			attrs = append(attrs, a.Name)
		}
	}
	return attrs, members
}

// sameRead compares two reads: equal values, or errors with equal text.
func sameRead(a any, aErr error, b any, bErr error) bool {
	if (aErr == nil) != (bErr == nil) {
		return false
	}
	if aErr != nil {
		return aErr.Error() == bErr.Error()
	}
	return reflect.DeepEqual(a, b)
}

// compareHead pins a snapshot at head and checks it answers every read
// exactly as the live store does.
func compareHead(t *testing.T, s *object.Store, at string) {
	t.Helper()
	sn := s.Snapshot()
	defer sn.Release()
	surs := s.Surrogates()
	if got := sn.Surrogates(); !reflect.DeepEqual(got, surs) {
		t.Fatalf("%s: Surrogates live %v, snapshot %v", at, surs, got)
	}
	for _, sur := range surs {
		typ, err := s.TypeOf(sur)
		if st, serr := sn.TypeOf(sur); !sameRead(typ, err, st, serr) {
			t.Fatalf("%s: TypeOf(%s) live %q %v, snapshot %q %v", at, sur, typ, err, st, serr)
		}
		m, err := s.ModSeq(sur)
		if sm, serr := sn.ModSeq(sur); !sameRead(m, err, sm, serr) {
			t.Fatalf("%s: ModSeq(%s) live %d %v, snapshot %d %v", at, sur, m, err, sm, serr)
		}
		attrs, members := readNames(s.Catalog(), typ)
		for _, name := range attrs {
			v, err := s.GetAttr(sur, name)
			if sv, serr := sn.GetAttr(sur, name); !sameRead(v, err, sv, serr) {
				t.Fatalf("%s: GetAttr(%s, %s) live %v %v, snapshot %v %v", at, sur, name, v, err, sv, serr)
			}
		}
		for _, name := range members {
			ms, err := s.Members(sur, name)
			if sms, serr := sn.Members(sur, name); !sameRead(ms, err, sms, serr) {
				t.Fatalf("%s: Members(%s, %s) live %v %v, snapshot %v %v", at, sur, name, ms, err, sms, serr)
			}
		}
		if a, b := s.BindingsOfInheritor(sur), sn.BindingsOfInheritor(sur); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: BindingsOfInheritor(%s) live %v, snapshot %v", at, sur, a, b)
		}
		if a, b := s.BindingsOfTransmitter(sur), sn.BindingsOfTransmitter(sur); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: BindingsOfTransmitter(%s) live %v, snapshot %v", at, sur, a, b)
		}
	}
	names := s.ClassNames()
	if got := sn.ClassNames(); !reflect.DeepEqual(got, names) {
		t.Fatalf("%s: ClassNames live %v, snapshot %v", at, names, got)
	}
	for _, name := range append(names, "NoSuchClass") {
		c, err := s.Class(name)
		if sc, serr := sn.Class(name); !sameRead(c, err, sc, serr) {
			t.Fatalf("%s: Class(%s) live %v %v, snapshot %v %v", at, name, c, err, sc, serr)
		}
	}
	if a, b := s.Export(), sn.Export(); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: Export differs:\nlive     %+v\nsnapshot %+v", at, a, b)
	}
}

// wiredGate builds an implementation bound through an interface to a pin
// owner, with a subgate and a wire between their inherited pins: the
// shapes (sub-relationships, participant roles, inherited subclasses)
// the random operations rarely produce.
func wiredGate(t *testing.T, s *object.Store) {
	t.Helper()
	must := func(sur domain.Surrogate, err error) domain.Surrogate {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return sur
	}
	root := must(s.NewObject(paperschema.TypeGateInterfaceI, ""))
	must(s.NewSubobject(root, "Pins"))
	must(s.NewSubobject(root, "Pins"))
	iface := must(s.NewObject(paperschema.TypeGateInterface, ""))
	must(s.Bind(paperschema.RelAllOfGateInterfaceI, iface, root))
	impl := must(s.NewObject(paperschema.TypeGateImplementation, ""))
	must(s.Bind(paperschema.RelAllOfGateInterface, impl, iface))
	sub := must(s.NewSubobject(impl, "SubGates"))
	must(s.Bind(paperschema.RelAllOfGateInterface, sub, iface))
	pins, err := s.Members(impl, "Pins")
	if err != nil || len(pins) != 2 {
		t.Fatalf("inherited pins %v, %v", pins, err)
	}
	must(s.RelateIn(impl, "Wires", object.Participants{"Pin1": domain.Ref(pins[0]), "Pin2": domain.Ref(pins[1])}))
}

// TestSnapshotAtHeadEqualsLive drives the random-op harness over a wired
// gate and, after every operation, checks that a snapshot pinned at head
// equals the live store: a live read is a read at liveSeq through the
// same path as a pinned one. Pins are released as they go, so the store
// ends unpinned and a sweep leaves no extra version.
func TestSnapshotAtHeadEqualsLive(t *testing.T) {
	for _, seed := range []int64{5, 1989} {
		s, err := object.NewStore(paperschema.MustGates())
		if err != nil {
			t.Fatal(err)
		}
		wiredGate(t, s)
		compareHead(t, s, fmt.Sprintf("seed %d wired gate", seed))
		d := &randomDriver{rng: rand.New(rand.NewSource(seed)), s: s}
		for i := 0; i < 300; i++ {
			label := d.step()
			compareHead(t, s, fmt.Sprintf("seed %d step %d (%s)", seed, i, label))
		}
		s.SweepVersions()
		st := s.Stats().MVCC
		if st.Pins != 0 || st.ExtraVersions != 0 {
			t.Fatalf("seed %d: after the run pins %d extra versions %d, want 0/0", seed, st.Pins, st.ExtraVersions)
		}
	}
}
