package object

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"cadcam/internal/domain"
)

// One read path. Every read of the store is a read at a sequence point: a
// Snapshot reads at its pin, and the live store is the point liveSeq, at
// which every version chain reads its head and every object is visible
// from its creation (still pending inside the creating operation) to its
// deletion. The read context rd carries the point. Its object lookup, its
// two inheritance walks — one for attributes, one for subclasses — and
// getAttr, members and collection built on them serve live reads,
// snapshot reads, ResolveChainStamped, the expression environment and
// index maintenance alike.
//
// Live reads differ from snapshot reads in three places only: a live read
// outside a store operation takes the object's shard read lock on a route
// miss (a snapshot reads lock-free); a route hit is checked against the
// current shard epochs (a snapshot checks its pin's); and a live
// resolution memoizes the route it walked (a snapshot's describes the
// pinned past and is never memoized).

// liveSeq is the sequence point of the live store: every chain reads its
// head there.
const liveSeq = ^uint64(0)

// rd is a read at sequence point at.
type rd struct {
	s  *Store
	at uint64
	// pin is the snapshot read at (nil for live reads); route hits are
	// checked against its pin-time epochs instead of the current ones.
	pin *Snapshot
}

// live returns the read context of the live store.
func (s *Store) live() rd { return rd{s: s, at: liveSeq} }

// rd returns the read context at the snapshot's pin.
func (sn *Snapshot) rd() rd { return rd{s: sn.s, at: sn.seq, pin: sn} }

// isLive reports whether r reads the live store.
func (r rd) isLive() bool { return r.pin == nil }

// obj returns the object with surrogate sur visible at the read point.
// Lock-free: the table's slots publish atomically. Live callers hold a
// shard lock, which keeps a concurrent store-exclusive operation out.
func (r rd) obj(sur domain.Surrogate) (*Object, bool) {
	o := r.s.shardOf(sur).objs.load(r.s.slot(sur))
	if o == nil || !o.visibleAt(r.at) {
		return nil, false
	}
	return o, true
}

// obj looks up a live object. Callers hold at least one shard lock (any
// shard: topology is frozen store-wide, see shard).
func (s *Store) obj(sur domain.Surrogate) (*Object, bool) { return s.live().obj(sur) }

// transmitter returns o's transmitter under relType at the read point, or
// nil when o was unbound there.
func (r rd) transmitter(o *Object, relType string) *Object {
	l, _ := o.bindIn.at(r.at)
	if b := byRel(l, relType); b != nil {
		if t, ok := r.obj(b.Transmitter); ok {
			return t
		}
	}
	return nil
}

// attrWalk follows attribute name's inheritance bindings from o to the
// object whose own slot holds the value. owner is nil when the chain ends
// unbound: the read is null (type-level inheritance only). A non-nil chain
// gets every transmitter visited appended. This is the only walk of an
// attribute's bindings.
func (r rd) attrWalk(o *Object, name string, chain []domain.Surrogate) (owner *Object, _ []domain.Surrogate, err error) {
	for cur := o; ; {
		eff, err := r.s.effectiveLocked(cur)
		if err != nil {
			return nil, nil, err
		}
		a, ok := eff.Attr(name)
		if !ok {
			return nil, nil, fmt.Errorf("%w: %s.%s", ErrNoSuchAttribute, cur.typeName, name)
		}
		if !a.Inherited() {
			return cur, chain, nil
		}
		if cur = r.transmitter(cur, a.Via); cur == nil {
			return nil, chain, nil
		}
		if chain != nil {
			chain = append(chain, cur.sur)
		}
	}
}

// errNoMembersYet marks a declared sub-relationship without members: it
// reads empty, and no route is memoized for it, because materializing it
// bumps no epoch.
var errNoMembersYet = errors.New("object: sub-relationship has no members yet")

// subclassWalk follows subclass name's inheritance bindings from o to the
// object owning it and returns the owner's materialized class: nil when
// the chain ends unbound or the class is not materialized yet (the read is
// empty; materialization bumps the owner's shard epoch). chain is as in
// attrWalk. This is the only walk of a subclass's bindings.
func (r rd) subclassWalk(o *Object, name string, chain []domain.Surrogate) (*Class, []domain.Surrogate, error) {
	for cur := o; ; {
		eff, err := r.s.effectiveLocked(cur)
		if err != nil {
			return nil, nil, err
		}
		sd, ok := eff.SubclassByName(name)
		if !ok {
			for _, sr := range eff.Type.SubRels {
				if sr.Name == name {
					return nil, nil, errNoMembersYet
				}
			}
			return nil, nil, fmt.Errorf("%w: %s has no subclass %q", ErrNoSuchClass, cur.typeName, name)
		}
		if !sd.Inherited() {
			return cur.subMap()[name], chain, nil
		}
		if cur = r.transmitter(cur, sd.Via); cur == nil {
			return nil, chain, nil
		}
		if chain != nil {
			chain = append(chain, cur.sur)
		}
	}
}

// chainFrom starts the route chain of a resolution rooted at o: live reads
// track it for memoization, snapshot reads do not.
func (r rd) chainFrom(o *Object) []domain.Surrogate {
	if r.isLive() {
		return []domain.Surrogate{o.sur}
	}
	return nil
}

// slot reads owner's own attribute slot at the read point: null when
// owner is nil (unbound) or the slot is absent there.
func (r rd) slot(owner *Object, name string) domain.Value {
	if owner != nil {
		if b, ok := owner.attrMap()[name]; ok {
			if v, ok := b.valueAt(r.at); ok {
				return v
			}
		}
	}
	return domain.NullValue
}

// resolve reads an object attribute through its inheritance bindings
// without memoizing a route. Index maintenance uses it: it may run for an
// object on a shard the caller does not hold.
func (r rd) resolve(o *Object, name string) (domain.Value, error) {
	owner, _, err := r.attrWalk(o, name, nil)
	if err != nil {
		return nil, err
	}
	return r.slot(owner, name), nil
}

// getAttr reads name on o with the paper's resolution rule: own
// attributes from the object itself, inherited ones through the binding
// from the transmitter (view semantics — never a copy), null while
// unbound. A live read memoizes the route it walked; the caller holds a
// shard lock, which freezes topology store-wide, so the stamps are exact.
func (r rd) getAttr(o *Object, name string) (domain.Value, error) {
	if name == "Surrogate" {
		return domain.Ref(o.sur), nil
	}
	if o.isRel {
		return r.relAttr(o, name)
	}
	owner, chain, err := r.attrWalk(o, name, r.chainFrom(o))
	if err != nil {
		return nil, err
	}
	if chain != nil {
		r.s.memoAttr(o.sur, name, owner, chain)
	}
	return r.slot(owner, name), nil
}

// relAttr reads a relationship object's attribute: participant roles
// (immutable), the binding bookkeeping, then user-declared attributes.
func (r rd) relAttr(o *Object, name string) (domain.Value, error) {
	if v, ok := o.participants[name]; ok {
		return v, nil
	}
	if o.binding != nil {
		k, _ := o.binding.book.at(r.at)
		switch name {
		case AttrTransmitterUpdates:
			return domain.Int(k.upd), nil
		case AttrLastUpdateSeq:
			return domain.Int(k.last), nil
		case AttrAcknowledgedSeq:
			return domain.Int(k.ack), nil
		}
	}
	if b, ok := o.attrMap()[name]; ok {
		if v, ok := b.valueAt(r.at); ok {
			return v, nil
		}
	}
	// Verify the name is declared before returning null (O(1) via the
	// catalog's precomputed attribute index).
	if _, ok := r.s.cat.RelAttr(o.typeName, name); ok {
		return domain.NullValue, nil
	}
	if _, ok := r.s.cat.InherRelType(o.typeName); ok {
		switch name {
		case AttrTransmitterUpdates, AttrLastUpdateSeq, AttrAcknowledgedSeq:
			return domain.Int(0), nil
		}
	}
	return nil, fmt.Errorf("%w: %s.%s", ErrNoSuchAttribute, o.typeName, name)
}

// members lists a local subclass or sub-relationship of o, following
// inheritance for subclasses o's type inherits (the interface's Pins seen
// from the implementation). A live read memoizes the subclass route.
func (r rd) members(o *Object, name string) ([]domain.Surrogate, error) {
	if cls, ok := o.relMap()[name]; ok {
		return copySurs(cls.membersAt(r.at)), nil
	}
	if o.isRel {
		if cls, ok := o.subMap()[name]; ok {
			return copySurs(cls.membersAt(r.at)), nil
		}
		if r.s.cat.RelMemberName(o.typeName, name) {
			return nil, nil // declared but empty
		}
		return nil, fmt.Errorf("%w: %s has no subclass %q", ErrNoSuchClass, o.typeName, name)
	}
	cls, chain, err := r.subclassWalk(o, name, r.chainFrom(o))
	if err == errNoMembersYet {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if chain != nil {
		r.s.memoMembers(o.sur, name, cls, chain)
	}
	return copySurs(cls.membersAt(r.at)), nil
}

// collection resolves name as a collection on o: a participant role (a
// set-of role's elements, a single role as one element), a local subclass
// or sub-relationship (following inheritance), or a set/list-valued
// attribute.
func (r rd) collection(o *Object, name string) ([]domain.Value, bool) {
	if o.isRel {
		if v, ok := o.participants[name]; ok {
			if set, isSet := v.(*domain.Set); isSet {
				return set.Elems(), true
			}
			return []domain.Value{v}, true
		}
	}
	if ms, err := r.members(o, name); err == nil {
		return refs(ms), true
	}
	if v, err := r.getAttr(o, name); err == nil {
		return elems(v)
	}
	return nil, false
}

// ---- entry points: route hit first ----

// route returns the memoized route for (sur, name) in m if it held at the
// read point — every shard its chain crosses has the recorded epoch now
// (live) or had it at the pin (snapshot), so the route describes that
// topology exactly — and counts the hit. Lock-free.
func (r rd) route(sh *shard, m *atomic.Pointer[sync.Map], sur domain.Surrogate, name string) *route {
	v, ok := m.Load().Load(routeKey{sur, name})
	if !ok {
		return nil
	}
	rt := v.(*route)
	if r.pin == nil {
		for _, st := range rt.stamps {
			if r.s.shards[st.shard].epoch.Load() != st.epoch {
				return nil
			}
		}
	} else {
		for _, st := range rt.stamps {
			if r.pin.epochs[st.shard] != st.epoch {
				return nil
			}
		}
	}
	sh.hits.Add(1)
	return rt
}

// enter looks sur's object up for a route miss; a live read takes the
// shard read lock, which the caller releases with leave.
func (r rd) enter(sh *shard, sur domain.Surrogate) (*Object, bool) {
	if r.isLive() {
		sh.mu.RLock()
	}
	return r.obj(sur)
}

func (r rd) leave(sh *shard) {
	if r.isLive() {
		sh.mu.RUnlock()
	}
}

// attrOf is the entry point of attribute reads: a valid memoized route
// names the object whose own slot holds the value, read at the point, so
// a transmitter update is visible to a live read right after a hit, while
// any structural change forces the resolution path via the epoch check.
func (r rd) attrOf(sur domain.Surrogate, name string) (domain.Value, error) {
	sh := r.s.shardOf(sur)
	if rt := r.route(sh, &sh.routes.attrs, sur, name); rt != nil {
		return r.slot(rt.owner, name), nil
	}
	return r.attrMiss(sh, sur, name)
}

func (r rd) attrMiss(sh *shard, sur domain.Surrogate, name string) (domain.Value, error) {
	o, ok := r.enter(sh, sur)
	defer r.leave(sh)
	if !ok {
		return nil, noObject(sur)
	}
	return r.getAttr(o, name)
}

// membersOf is the entry point of member reads. Routes exist only for
// names that resolve as (possibly inherited) subclasses, so a hit never
// shadows a sub-relationship or a relationship object's member.
func (r rd) membersOf(sur domain.Surrogate, name string) ([]domain.Surrogate, error) {
	sh := r.s.shardOf(sur)
	if rt := r.route(sh, &sh.routes.members, sur, name); rt != nil {
		return copySurs(rt.cls.membersAt(r.at)), nil
	}
	return r.membersMiss(sh, sur, name)
}

func (r rd) membersMiss(sh *shard, sur domain.Surrogate, name string) ([]domain.Surrogate, error) {
	o, ok := r.enter(sh, sur)
	defer r.leave(sh)
	if !ok {
		return nil, noObject(sur)
	}
	return r.members(o, name)
}

// collectionOf is the entry point of collection reads. A members route
// proves name a subclass of an object, an attribute route an attribute of
// one; either answers without resolving.
func (r rd) collectionOf(sur domain.Surrogate, name string) ([]domain.Value, bool) {
	sh := r.s.shardOf(sur)
	if rt := r.route(sh, &sh.routes.members, sur, name); rt != nil {
		return refs(rt.cls.membersAt(r.at)), true
	}
	if rt := r.route(sh, &sh.routes.attrs, sur, name); rt != nil {
		return elems(r.slot(rt.owner, name))
	}
	o, ok := r.enter(sh, sur)
	defer r.leave(sh)
	if !ok {
		return nil, false
	}
	return r.collection(o, name)
}

func refs(surs []domain.Surrogate) []domain.Value {
	out := make([]domain.Value, len(surs))
	for i, m := range surs {
		out[i] = domain.Ref(m)
	}
	return out
}

// elems returns a set or list value's elements.
func elems(v domain.Value) ([]domain.Value, bool) {
	switch x := v.(type) {
	case *domain.Set:
		return x.Elems(), true
	case *domain.List:
		return x.Elems(), true
	}
	return nil, false
}

// get returns the object visible at the read point; a live read takes
// its shard read lock for the lookup.
func (r rd) get(sur domain.Surrogate) (*Object, error) {
	sh := r.s.shardOf(sur)
	o, ok := r.enter(sh, sur)
	r.leave(sh)
	if !ok {
		return nil, noObject(sur)
	}
	return o, nil
}

func (r rd) typeOf(sur domain.Surrogate) (string, error) {
	o, err := r.get(sur)
	if err != nil {
		return "", err
	}
	return o.typeName, nil
}

func (r rd) modSeq(sur domain.Surrogate) (uint64, error) {
	o, err := r.get(sur)
	if err != nil {
		return 0, err
	}
	return o.modAt(r.at), nil
}

// bindingsOfInheritor returns sur's bindings as inheritor at the read
// point, keyed by relationship type name (empty when sur is not visible).
func (r rd) bindingsOfInheritor(sur domain.Surrogate) map[string]*Binding {
	var l []*Binding
	if o, err := r.get(sur); err == nil {
		l, _ = o.bindIn.at(r.at)
	}
	return relMapOf(l)
}

// bindingsOfTransmitter returns sur's bindings as transmitter at the read
// point.
func (r rd) bindingsOfTransmitter(sur domain.Surrogate) []*Binding {
	var l []*Binding
	if o, err := r.get(sur); err == nil {
		l, _ = o.bindOut.at(r.at)
	}
	return append([]*Binding(nil), l...)
}

// ---- whole-store reads ----

// surrogates lists the surrogates visible at the read point, ascending.
func (r rd) surrogates() []domain.Surrogate {
	var out []domain.Surrogate
	r.s.walk(func(o *Object) error {
		if o.visibleAt(r.at) {
			out = append(out, o.sur)
		}
		return nil
	})
	return out
}

// shardSurrogates lists the surrogates of shard k visible at the read
// point, ascending.
func (r rd) shardSurrogates(k int) []domain.Surrogate {
	var out []domain.Surrogate
	n := uint64(len(r.s.shards))
	for i := uint64(0); i < r.s.shards[k].objs.slots(); i++ {
		if sur := domain.Surrogate(i*n + uint64(k)); sur != 0 {
			if _, ok := r.obj(sur); ok {
				out = append(out, sur)
			}
		}
	}
	return out
}

// class returns the database-level class visible at the read point.
// Lock-free: stripe maps are copy-on-write and classes are never removed.
func (r rd) class(name string) (*Class, bool) {
	c, ok := r.s.stripeOf(name).classMap()[name]
	if !ok || c.createdSeq > r.at {
		return nil, false
	}
	return c, true
}

// classes lists the database-level classes visible at the read point,
// keyed by name.
func (r rd) classes() map[string]*Class {
	out := make(map[string]*Class)
	for i := range r.s.stripes {
		for name, c := range r.s.stripes[i].classMap() {
			if c.createdSeq <= r.at {
				out[name] = c
			}
		}
	}
	return out
}

// classMembers lists a database-level class extent at the read point.
func (r rd) classMembers(name string) ([]domain.Surrogate, error) {
	c, ok := r.class(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchClass, name)
	}
	return copySurs(c.membersAt(r.at)), nil
}

func copySurs(surs []domain.Surrogate) []domain.Surrogate {
	if len(surs) == 0 {
		return nil
	}
	return append([]domain.Surrogate(nil), surs...)
}
