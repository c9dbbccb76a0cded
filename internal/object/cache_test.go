package object

import (
	"testing"

	"cadcam/internal/domain"
	"cadcam/internal/paperschema"
)

// TestRouteCacheHitsAndLiveness pins down the cache contract: the second
// read of an inherited attribute is a route hit, and a plain transmitter
// write neither invalidates the cache nor goes stale through it.
func TestRouteCacheHitsAndLiveness(t *testing.T) {
	s := gateStore(t)
	iface := mustSur(t)(s.NewObject(paperschema.TypeGateInterface, ""))
	impl := mustSur(t)(s.NewObject(paperschema.TypeGateImplementation, ""))
	set(t, s, iface, "Length", domain.Int(9))
	if _, err := s.Bind(paperschema.RelAllOfGateInterface, impl, iface); err != nil {
		t.Fatal(err)
	}

	get(t, s, impl, "Length") // miss: memoizes the route
	base := s.Stats()
	if base.Misses == 0 {
		t.Fatal("first inherited read should be a cache miss")
	}

	if v := get(t, s, impl, "Length"); !v.Equal(domain.Int(9)) {
		t.Fatalf("inherited read: %v", v)
	}
	after := s.Stats()
	if after.Hits != base.Hits+1 || after.Misses != base.Misses {
		t.Fatalf("second read should hit: hits %d -> %d, misses %d -> %d",
			base.Hits, after.Hits, base.Misses, after.Misses)
	}

	// A plain write must not invalidate, and must be visible through the
	// already-memoized route (routes cache the path, never the value).
	set(t, s, iface, "Length", domain.Int(11))
	if v := get(t, s, impl, "Length"); !v.Equal(domain.Int(11)) {
		t.Fatalf("cached route served a stale value: %v", v)
	}
	if st := s.Stats(); st.Hits != after.Hits+1 || st.Misses != after.Misses || st.Invalidations != after.Invalidations {
		t.Fatalf("read after SetAttr should hit: %+v -> %+v", after, st)
	}
}

// expectMiss reads name on sur and checks the read walked (one more miss,
// no hit) and returned want; refused reports whether a memoized route was
// refused on the way (Invalidations moved).
func expectMiss(t *testing.T, s *Store, sur domain.Surrogate, name string, want domain.Value) (refused bool) {
	t.Helper()
	before := s.Stats()
	if v := get(t, s, sur, name); !v.Equal(want) {
		t.Fatalf("read of %s.%s: %v, want %v", sur, name, v, want)
	}
	after := s.Stats()
	if after.Hits != before.Hits || after.Misses != before.Misses+1 {
		t.Fatalf("read of %s.%s should miss: hits %d -> %d, misses %d -> %d",
			sur, name, before.Hits, after.Hits, before.Misses, after.Misses)
	}
	return after.Invalidations > before.Invalidations
}

// TestRouteCacheInvalidation walks the structural operations that must
// invalidate a memoized route, checking the next read misses and returns
// what the changed chain resolves to.
func TestRouteCacheInvalidation(t *testing.T) {
	s := gateStore(t)
	a := mustSur(t)(s.NewObject(paperschema.TypeGateInterface, ""))
	b := mustSur(t)(s.NewObject(paperschema.TypeGateInterface, ""))
	impl := mustSur(t)(s.NewObject(paperschema.TypeGateImplementation, ""))
	set(t, s, a, "Length", domain.Int(1))
	set(t, s, b, "Length", domain.Int(2))

	// Null route while unbound.
	expectMiss(t, s, impl, "Length", domain.NullValue)

	// Bind invalidates the memoized null route.
	if _, err := s.Bind(paperschema.RelAllOfGateInterface, impl, a); err != nil {
		t.Fatal(err)
	}
	if !expectMiss(t, s, impl, "Length", domain.Int(1)) {
		t.Fatal("Bind: the null route was not refused")
	}
	chain, stamp, err := s.ResolveChainStamped(impl, "Length")
	if err != nil || len(chain) != 2 || chain[1] != a || !s.StampValid(stamp) {
		t.Fatalf("chain %v (%v), stamp valid %v", chain, err, s.StampValid(stamp))
	}

	// Rebinding to a different transmitter redirects the route: the stale
	// route is refused (Invalidations rises) and the walk follows b.
	if err := s.Unbind(paperschema.RelAllOfGateInterface, impl); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Bind(paperschema.RelAllOfGateInterface, impl, b); err != nil {
		t.Fatal(err)
	}
	if !expectMiss(t, s, impl, "Length", domain.Int(2)) {
		t.Fatal("rebind: the stale route was not refused")
	}
	if s.StampValid(stamp) {
		t.Fatal("rebind: the chain stamp through a is still valid")
	}

	// Deleting the transmitter (DeleteUnbind) kills the route.
	s.SetDeletePolicy(DeleteUnbind)
	if err := s.Delete(b); err != nil {
		t.Fatal(err)
	}
	if !expectMiss(t, s, impl, "Length", domain.NullValue) {
		t.Fatal("delete: the stale route was not refused")
	}
}

// TestRouteCacheMembersInvalidation covers the subclass-route cache: a
// memoized membership route must follow rebinds and reflect live adds.
func TestRouteCacheMembersInvalidation(t *testing.T) {
	s := gateStore(t)
	rootI := mustSur(t)(s.NewObject(paperschema.TypeGateInterfaceI, ""))
	iface := mustSur(t)(s.NewObject(paperschema.TypeGateInterface, ""))
	impl := mustSur(t)(s.NewObject(paperschema.TypeGateImplementation, ""))
	addPin(t, s, rootI, "IN", 1)
	if _, err := s.Bind(paperschema.RelAllOfGateInterfaceI, iface, rootI); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Bind(paperschema.RelAllOfGateInterface, impl, iface); err != nil {
		t.Fatal(err)
	}
	if pins, err := s.Members(impl, "Pins"); err != nil || len(pins) != 1 {
		t.Fatalf("members: %v (%v)", pins, err)
	}
	// Adding a pin is a membership change on the live class — visible
	// through the cached two-hop route without any epoch bump.
	addPin(t, s, rootI, "IN", 2)
	if pins, err := s.Members(impl, "Pins"); err != nil || len(pins) != 2 {
		t.Fatalf("after add: %v (%v)", pins, err)
	}
	if err := s.Unbind(paperschema.RelAllOfGateInterface, impl); err != nil {
		t.Fatal(err)
	}
	if pins, err := s.Members(impl, "Pins"); err != nil || len(pins) != 0 {
		t.Fatalf("route survived unbind: %v (%v)", pins, err)
	}
}
