package object

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cadcam/internal/domain"
	"cadcam/internal/paperschema"
)

// TestRouteDifferential drives seeded random structural churn — bind,
// unbind, rebind, delete under either policy, subobject creation (which
// materializes subclasses), transmitter writes, snapshot pins — and after
// every operation checks each GetAttr, Members, collection and ChainOwner
// answer, live and at every open pin, against a fresh walk that memoizes
// nothing. Routes memoized by one round are read back by the next, so a
// stale route that the hop rule failed to refuse shows as a wrong answer.
// Live, it also checks ResolveChainStamped against the fresh chain, and
// that a stamp from the previous round that StampValid still accepts
// describes the chain as it is now. Meanwhile a second goroutine pins its own
// snapshots and checks them the same way, so pinned hits race the
// operations, the memos and the sweeps its releases trigger.
func TestRouteDifferential(t *testing.T) {
	for _, seed := range []int64{3, 1989} {
		s := gateStore(t)
		stop, pinned := make(chan struct{}), make(chan error, 1)
		go func() { pinned <- readPinned(s, stop) }()
		d := &routeDriver{rng: rand.New(rand.NewSource(seed)), s: s, stamps: map[routeName]stamped{}}
		var err error
		for i := 0; i < 300 && err == nil; i++ {
			at := fmt.Sprintf("seed %d step %d (%s)", seed, i, d.step())
			err = d.check(s.View, at)
			for _, sn := range d.pins {
				if err == nil {
					err = d.check(sn.View, fmt.Sprintf("%s at pin %d", at, sn.Seq()))
				}
			}
		}
		close(stop)
		if perr := <-pinned; err == nil {
			err = perr
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, sn := range d.pins {
			sn.Release()
		}
		st := s.Stats()
		t.Logf("seed %d: %d objects, hits %d misses %d invalidations %d", seed, s.Len(), st.Hits, st.Misses, st.Invalidations)
		if st.Hits == 0 || st.Invalidations == 0 {
			t.Fatalf("seed %d: no route traffic to check: %+v", seed, st)
		}
	}
}

// readPinned checks every read at a snapshot it pins itself, over and
// over, until stop closes.
func readPinned(s *Store, stop <-chan struct{}) error {
	d := &routeDriver{s: s}
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		sn := s.Snapshot()
		err := d.check(sn.View, fmt.Sprintf("pinned reader at %d", sn.Seq()))
		sn.Release()
		if err != nil {
			return err
		}
	}
}

type routeName struct {
	sur  domain.Surrogate
	name string
}

// routeRead is one name read on an object: an attribute or a subclass.
type routeRead struct {
	name    string
	members bool
}

type stamped struct {
	chain []domain.Surrogate
	stamp ChainStamp
}

type routeDriver struct {
	rng    *rand.Rand
	s      *Store
	pins   []*Snapshot
	stamps map[routeName]stamped
}

// pick returns a random live object of the type, or 0.
func (d *routeDriver) pick(typ string) domain.Surrogate {
	var of []domain.Surrogate
	for _, sur := range d.s.Surrogates() {
		if tn, _ := d.s.TypeOf(sur); tn == typ {
			of = append(of, sur)
		}
	}
	if len(of) == 0 {
		return 0
	}
	return of[d.rng.Intn(len(of))]
}

// inheritors lists the relationship types and the inheritor and
// transmitter types they bind.
var inheritors = []struct{ rel, inh, tr string }{
	{paperschema.RelAllOfGateInterfaceI, paperschema.TypeGateInterface, paperschema.TypeGateInterfaceI},
	{paperschema.RelAllOfGateInterface, paperschema.TypeGateImplementation, paperschema.TypeGateInterface},
	{paperschema.RelAllOfGateInterface, paperschema.TypeSubGates, paperschema.TypeGateInterface},
	{paperschema.RelSomeOfGate, paperschema.TypeTimedComposite, paperschema.TypeGateImplementation},
}

// step performs one random operation; store errors are fine.
func (d *routeDriver) step() string {
	s, rng := d.s, d.rng
	b := inheritors[rng.Intn(len(inheritors))]
	switch rng.Intn(14) {
	case 0, 1:
		typ := []string{paperschema.TypeGateInterfaceI, paperschema.TypeGateInterface,
			paperschema.TypeGateImplementation, paperschema.TypeTimedComposite}[rng.Intn(4)]
		_, _ = s.NewObject(typ, "")
		return "new " + typ
	case 2:
		_, _ = s.NewSubobject(d.pick(paperschema.TypeGateImplementation), "SubGates")
		return "new subgate"
	case 3:
		_, _ = s.NewSubobject(d.pick(paperschema.TypeGateInterfaceI), "Pins")
		return "new pin"
	case 4, 5, 6:
		_, _ = s.Bind(b.rel, d.pick(b.inh), d.pick(b.tr))
		return "bind " + b.rel
	case 7:
		_ = s.Unbind(b.rel, d.pick(b.inh))
		return "unbind " + b.rel
	case 8, 9:
		inh := d.pick(b.inh)
		_ = s.Unbind(b.rel, inh)
		_, _ = s.Bind(b.rel, inh, d.pick(b.tr))
		return "rebind " + b.rel
	case 10:
		policy := DeletePolicy(rng.Intn(2))
		s.SetDeletePolicy(policy)
		typ := []string{b.inh, b.tr}[rng.Intn(2)]
		_ = s.Delete(d.pick(typ))
		return fmt.Sprintf("delete %s (policy %d)", typ, policy)
	case 11:
		_ = s.SetAttr(d.pick(paperschema.TypeGateInterface), []string{"Length", "Width"}[rng.Intn(2)],
			domain.Int(int64(rng.Intn(100))))
		return "set"
	case 12:
		if len(d.pins) < 3 {
			d.pins = append(d.pins, s.Snapshot())
			return "pin"
		}
		fallthrough
	default:
		if len(d.pins) == 0 {
			return "no-op"
		}
		i := rng.Intn(len(d.pins))
		d.pins[i].Release()
		d.pins = append(d.pins[:i], d.pins[i+1:]...)
		return "release"
	}
}

// fresh walks name on o at v's read point without the cache: the route a
// walk records there (nil for a name that is not inherited) and the read
// it answers.
func fresh(v View, o *Object, name string, members bool) (rt *route, read any, err error) {
	rt = &route{members: members}
	if members {
		var cls *Class
		if cls, err = v.subclassWalk(o, name, rt); err == errNoMembersYet {
			return nil, []domain.Surrogate(nil), nil
		}
		read = copySurs(cls.membersAt(v.at))
	} else {
		var slot *vchain[domain.Value]
		slot, err = v.attrWalk(o, name, rt)
		read = v.slot(slot)
	}
	if len(rt.hops) == 0 && (!members || rt.owner == o) {
		rt = nil // own attribute or own subclass: not a chain
	}
	return rt, read, err
}

// check compares every read at v's point with a fresh walk; a live
// check also compares chains and stamps.
func (d *routeDriver) check(v View, at string) error {
	for _, sur := range v.Surrogates() {
		o, _ := v.obj(sur)
		if o.lay.isRel {
			continue
		}
		var names []routeRead
		for _, a := range o.lay.eff.Attrs {
			names = append(names, routeRead{a.Name, false})
		}
		for _, sd := range o.lay.eff.Subclasses {
			names = append(names, routeRead{sd.Name, true})
		}
		for _, n := range names {
			rt, want, werr := fresh(v, o, n.name, n.members)
			var got any
			var err error
			if n.members {
				got, err = v.Members(sur, n.name)
				if coll, ok := v.collectionOf(sur, n.name); !ok || !reflect.DeepEqual(coll, refs(want.([]domain.Surrogate))) {
					return fmt.Errorf("%s: collection %s.%s = %v, fresh walk %v", at, sur, n.name, coll, want)
				}
			} else {
				got, err = v.GetAttr(sur, n.name)
			}
			if !reflect.DeepEqual(got, want) || (err == nil) != (werr == nil) {
				return fmt.Errorf("%s: read %s.%s = %v (%v), fresh walk %v (%v)", at, sur, n.name, got, err, want, werr)
			}
			wantChain := []domain.Surrogate{sur}
			if rt != nil {
				wantChain = rt.chain()
			}
			if owner, ok := v.ChainOwner(sur, n.name); !ok || owner != wantChain[len(wantChain)-1] {
				return fmt.Errorf("%s: ChainOwner(%s, %s) = %s, fresh walk %v", at, sur, n.name, owner, wantChain)
			}
			if !v.isLive() {
				continue
			}
			key := routeName{sur, n.name}
			if old, ok := d.stamps[key]; ok && d.s.StampValid(old.stamp) && !reflect.DeepEqual(old.chain, wantChain) {
				return fmt.Errorf("%s: stale stamp of %s.%s accepted: chain %v, now %v", at, sur, n.name, old.chain, wantChain)
			}
			// A fresh stamp may already be refused here: a sweep the pinned
			// reader's Release triggers republishes trimmed binding lists.
			chain, stamp, err := d.s.ResolveChainStamped(sur, n.name)
			if err != nil || !reflect.DeepEqual(chain, wantChain) {
				return fmt.Errorf("%s: ResolveChainStamped(%s, %s) = %v (%v), fresh walk %v", at, sur, n.name, chain, err, wantChain)
			}
			d.stamps[key] = stamped{chain, stamp}
		}
	}
	return nil
}
