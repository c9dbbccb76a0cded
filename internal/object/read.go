package object

import (
	"errors"
	"fmt"

	"cadcam/internal/domain"
	"cadcam/internal/schema"
)

// One read path. Every read of the store is a read at a sequence point: a
// Snapshot reads at its pin, and the live store is the point liveSeq, at
// which every version chain reads its head and every object is visible
// from its creation (still pending inside the creating operation) to its
// deletion. A View carries the point. Its object lookup, its two
// inheritance walks — one for attributes, one for subclasses — and
// getAttr, members and collection built on them serve live reads,
// snapshot reads, ResolveChainStamped, the expression environment and
// index maintenance alike.
//
// Live reads differ from snapshot reads in two places only: a live read
// outside a store operation takes locks when it cannot answer lock-free
// (the object's shard read lock to walk, the class stripe for an extent,
// every shard for a full listing; a snapshot reads lock-free); and a live
// resolution memoizes the route it walked (a snapshot's describes the
// pinned past and is never memoized). A route hit is checked at the read
// point alike: the binding lists it recorded must be the ones read there
// (cache.go).

// liveSeq is the sequence point of the live store: every chain reads its
// head there.
const liveSeq = ^uint64(0)

// View is a read of the store at one sequence point: the live store (a
// Store embeds its View at liveSeq) or a pinned Snapshot (which embeds
// its View at the pin). Its exported methods are the store's whole read
// surface, with the same semantics live and pinned.
type View struct {
	s  *Store
	at uint64
	// pin is the snapshot read at (nil for live reads).
	pin *Snapshot
}

// isLive reports whether r reads the live store.
func (r View) isLive() bool { return r.pin == nil }

// obj returns the object with surrogate sur visible at the read point.
// Lock-free: the table's slots publish atomically. Live callers hold a
// shard lock, which keeps a concurrent store-exclusive operation out.
func (r View) obj(sur domain.Surrogate) (*Object, bool) {
	o := r.s.shardOf(sur).objs.load(r.s.slot(sur))
	if o == nil || !o.visibleAt(r.at) {
		return nil, false
	}
	return o, true
}

// settled returns the object with surrogate sur if a lock-free read may
// answer from it: visible at the read point and, for a live read, created
// by a committed operation (a running one may still roll back).
func (r View) settled(sur domain.Surrogate) (*Object, bool) {
	o, ok := r.obj(sur)
	if !ok || o.createdSeq.Load() == pending {
		return nil, false
	}
	return o, true
}

// transmitter returns the transmitter under relType in the binding list
// node in, or nil when there is none visible at the read point.
func (r View) transmitter(in *vnode[[]*Binding], relType string) *Object {
	if in == nil {
		return nil
	}
	if b := byRel(in.v, relType); b != nil {
		if t, ok := r.obj(b.Transmitter); ok {
			return t
		}
	}
	return nil
}

// attrWalk follows attribute name's inheritance bindings from o to the
// own attribute slot that holds the value: slot is nil when the chain ends
// unbound, and the read is null (type-level inheritance only). A non-nil
// rt records the walk: every binding list read and the owner. This is the
// only walk of an attribute's bindings.
func (r View) attrWalk(o *Object, name string, rt *route) (slot *vchain[domain.Value], err error) {
	for cur := o; ; {
		if i, ok := cur.lay.ord[name]; ok {
			if rt != nil {
				rt.owner, rt.slot = cur, &cur.attrs[i]
			}
			return &cur.attrs[i], nil
		}
		eff, err := r.s.effectiveLocked(cur)
		if err != nil {
			return nil, err
		}
		a, ok := eff.Attr(name)
		if !ok {
			return nil, fmt.Errorf("%w: %s.%s", ErrNoSuchAttribute, cur.lay.name, name)
		}
		in := cur.bindIn.node(r.at)
		rt.visit(cur, in)
		if cur = r.transmitter(in, a.Via); cur == nil {
			return nil, nil
		}
	}
}

// errNoMembersYet marks a declared sub-relationship without members: it
// reads empty, and no route is memoized for it.
var errNoMembersYet = errors.New("object: sub-relationship has no members yet")

// subclassWalk follows subclass name's inheritance bindings from o to the
// object owning it and returns the owner's materialized class: nil when
// the chain ends unbound or the class is not materialized yet (the read is
// empty). rt is as in attrWalk, and records the owner's subclass maps.
// This is the only walk of a subclass's bindings.
func (r View) subclassWalk(o *Object, name string, rt *route) (*Class, error) {
	for cur := o; ; {
		eff, err := r.s.effectiveLocked(cur)
		if err != nil {
			return nil, err
		}
		sd, ok := eff.SubclassByName(name)
		if !ok {
			for _, sr := range eff.Type.SubRels {
				if sr.Name == name {
					return nil, errNoMembersYet
				}
			}
			return nil, fmt.Errorf("%w: %s has no subclass %q", ErrNoSuchClass, cur.lay.name, name)
		}
		if !sd.Inherited() {
			subs := cur.subs.Load()
			var cls *Class
			if subs != nil {
				cls = subs.sub[name]
			}
			if rt != nil {
				rt.owner, rt.subs, rt.cls = cur, subs, cls
			}
			return cls, nil
		}
		in := cur.bindIn.node(r.at)
		rt.visit(cur, in)
		if cur = r.transmitter(in, sd.Via); cur == nil {
			return nil, nil
		}
	}
}

// recorder returns rec for a live walk to record its route into, nil for
// a pinned walk, whose route is never memoized.
func (r View) recorder(rec *route) *route {
	if r.isLive() {
		return rec
	}
	return nil
}

// slot reads an own attribute slot at the read point: null when slot is
// nil (unbound) or empty there.
func (r View) slot(slot *vchain[domain.Value]) domain.Value {
	if slot != nil {
		if v, _ := slot.at(r.at); v != nil {
			return v
		}
	}
	return domain.NullValue
}

// resolve reads an object attribute through its inheritance bindings
// without memoizing a route. Index maintenance uses it: it may run for an
// object on a shard the caller does not hold.
func (r View) resolve(o *Object, name string) (domain.Value, error) {
	slot, err := r.attrWalk(o, name, nil)
	if err != nil {
		return nil, err
	}
	return r.slot(slot), nil
}

// getAttr reads name on o with the paper's resolution rule: own
// attributes from the object itself, inherited ones through the binding
// from the transmitter (view semantics — never a copy), null while
// unbound. A live read memoizes the route it walked; the caller holds a
// shard lock, which freezes topology store-wide, so the route is exact.
func (r View) getAttr(o *Object, name string) (domain.Value, error) {
	if name == "Surrogate" {
		return domain.Ref(o.sur), nil
	}
	if o.lay.isRel {
		return r.relAttr(o, name)
	}
	var rec route
	slot, err := r.attrWalk(o, name, r.recorder(&rec))
	if err != nil {
		return nil, err
	}
	r.memo(o, name, &rec)
	return r.slot(slot), nil
}

// relAttr reads a relationship object's attribute: participant roles
// (immutable), the binding bookkeeping, then user-declared attributes.
func (r View) relAttr(o *Object, name string) (domain.Value, error) {
	if v, ok := o.role(name); ok {
		return v, nil
	}
	if b := o.binding; b != nil {
		k, _ := b.book.at(r.at)
		switch name {
		case AttrTransmitterUpdates:
			return domain.Int(k.upd), nil
		case AttrLastUpdateSeq:
			return domain.Int(k.last), nil
		case AttrAcknowledgedSeq:
			return domain.Int(k.ack), nil
		}
	}
	if i, ok := o.lay.ord[name]; ok {
		return r.slot(&o.attrs[i]), nil
	}
	return nil, fmt.Errorf("%w: %s.%s", ErrNoSuchAttribute, o.lay.name, name)
}

// members lists a local subclass or sub-relationship of o, following
// inheritance for subclasses o's type inherits (the interface's Pins seen
// from the implementation). A live read memoizes the subclass route.
func (r View) members(o *Object, name string) ([]domain.Surrogate, error) {
	if cls, ok := o.relMap()[name]; ok {
		return copySurs(cls.membersAt(r.at)), nil
	}
	if o.lay.isRel {
		if cls, ok := o.subMap()[name]; ok {
			return copySurs(cls.membersAt(r.at)), nil
		}
		if r.s.cat.RelMemberName(o.lay.name, name) {
			return nil, nil // declared but empty
		}
		return nil, fmt.Errorf("%w: %s has no subclass %q", ErrNoSuchClass, o.lay.name, name)
	}
	rec := route{members: true}
	cls, err := r.subclassWalk(o, name, r.recorder(&rec))
	if err == errNoMembersYet {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	r.memo(o, name, &rec)
	return copySurs(cls.membersAt(r.at)), nil
}

// collection resolves name as a collection on o: a participant role (a
// set-of role's elements, a single role as one element), a local subclass
// or sub-relationship (following inheritance), or a set/list-valued
// attribute.
func (r View) collection(o *Object, name string) ([]domain.Value, bool) {
	if o.lay.isRel {
		if v, ok := o.role(name); ok {
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

// ---- entry points: answer lock-free first ----

// enter looks sur's object up for a read that walks; a live read takes
// the shard read lock, which the caller releases with leave.
func (r View) enter(sh *shard, sur domain.Surrogate) (*Object, bool) {
	if r.isLive() {
		sh.mu.RLock()
	}
	return r.obj(sur)
}

func (r View) leave(sh *shard) {
	if r.isLive() {
		sh.mu.RUnlock()
	}
}

// GetAttr reads an attribute with the paper's resolution rule (see
// getAttr). It is the entry point of attribute reads, lock-free for an
// own attribute and on a route hit: a route valid at the read point names
// the object whose own slot holds the value, read at the point, so a
// transmitter update is visible to a live read right after a hit, while
// any structural change on the route forces the resolution path.
func (r View) GetAttr(sur domain.Surrogate, name string) (domain.Value, error) {
	if o, ok := r.settled(sur); ok && !o.lay.isRel && name != "Surrogate" {
		if i, ok := o.lay.ord[name]; ok {
			return r.slot(&o.attrs[i]), nil
		}
		if rt := r.hit(o, name, false); rt != nil {
			return r.slot(rt.slot), nil
		}
	}
	return r.attrMiss(sur, name)
}

func (r View) attrMiss(sur domain.Surrogate, name string) (domain.Value, error) {
	sh := r.s.shardOf(sur)
	o, ok := r.enter(sh, sur)
	defer r.leave(sh)
	if !ok {
		return nil, noObject(sur)
	}
	return r.getAttr(o, name)
}

// Members returns the member surrogates of a local subclass or
// relationship subclass, following inheritance for subclasses the object's
// type inherits (the interface's Pins seen from the implementation). It is
// the entry point of member reads, lock-free on a hit like GetAttr. Routes
// exist only for names that resolve as (possibly inherited) subclasses,
// so a hit never shadows a sub-relationship or a relationship object's
// member.
func (r View) Members(sur domain.Surrogate, name string) ([]domain.Surrogate, error) {
	if o, ok := r.settled(sur); ok {
		if rt := r.hit(o, name, true); rt != nil {
			return copySurs(rt.cls.membersAt(r.at)), nil
		}
	}
	return r.membersMiss(sur, name)
}

func (r View) membersMiss(sur domain.Surrogate, name string) ([]domain.Surrogate, error) {
	sh := r.s.shardOf(sur)
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
func (r View) collectionOf(sur domain.Surrogate, name string) ([]domain.Value, bool) {
	if o, ok := r.settled(sur); ok {
		if rt := r.hit(o, name, true); rt != nil {
			return refs(rt.cls.membersAt(r.at)), true
		}
		if rt := r.hit(o, name, false); rt != nil {
			return elems(r.slot(rt.slot))
		}
	}
	sh := r.s.shardOf(sur)
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

// Get returns the object visible at the read point; a live read takes
// its shard read lock for the lookup. The result must be treated as
// read-only, and on a pinned read only its immutable identity accessors
// (Surrogate, TypeName, IsRelationship, Parent, ParentSubclass) are
// meaningful: attribute state is read through the View.
func (r View) Get(sur domain.Surrogate) (*Object, error) {
	sh := r.s.shardOf(sur)
	o, ok := r.enter(sh, sur)
	r.leave(sh)
	if !ok {
		return nil, noObject(sur)
	}
	return o, nil
}

// Exists reports whether sur denotes an object visible at the read point.
func (r View) Exists(sur domain.Surrogate) bool {
	_, err := r.Get(sur)
	return err == nil
}

// TypeOf returns the type name of an object visible at the read point.
func (r View) TypeOf(sur domain.Surrogate) (string, error) {
	o, err := r.Get(sur)
	if err != nil {
		return "", err
	}
	return o.lay.name, nil
}

// ModSeq returns the store sequence of the object's last direct mutation
// as of the read point; 0 if it was never mutated since creation. Long
// transactions use it for optimistic checkin validation.
func (r View) ModSeq(sur domain.Surrogate) (uint64, error) {
	o, err := r.Get(sur)
	if err != nil {
		return 0, err
	}
	return o.modAt(r.at), nil
}

// BindingsOfInheritor returns sur's bindings as inheritor at the read
// point, keyed by relationship type name (empty when sur is not visible).
func (r View) BindingsOfInheritor(sur domain.Surrogate) map[string]*Binding {
	var l []*Binding
	if o, err := r.Get(sur); err == nil {
		l, _ = o.bindIn.at(r.at)
	}
	return relMapOf(l)
}

// BindingsOfTransmitter returns sur's bindings as transmitter (its
// inheritors) at the read point.
func (r View) BindingsOfTransmitter(sur domain.Surrogate) []*Binding {
	var l []*Binding
	if o, err := r.Get(sur); err == nil {
		l, _ = o.bindOut.at(r.at)
	}
	return append([]*Binding(nil), l...)
}

// ---- whole-store reads ----

// Catalog returns the schema catalog (immutable, shared by every view).
func (r View) Catalog() *schema.Catalog { return r.s.cat }

// Surrogates lists the surrogates visible at the read point, ascending. A
// live read takes every shard read lock, so the listing is one state.
func (r View) Surrogates() []domain.Surrogate {
	if r.isLive() {
		r.s.rlockAll()
		defer r.s.runlockAll()
	}
	return r.surrogates()
}

// surrogates lists the surrogates visible at the read point, ascending.
// Live callers hold the locks that make the listing consistent.
func (r View) surrogates() []domain.Surrogate {
	var out []domain.Surrogate
	r.s.walk(func(o *Object) error {
		if o.visibleAt(r.at) {
			out = append(out, o.sur)
		}
		return nil
	})
	return out
}

// class returns the database-level class visible at the read point.
// Lock-free: stripe maps are copy-on-write and classes are never removed.
// Live callers that go on to read the membership hold its stripe lock.
func (r View) class(name string) (*Class, bool) {
	c, ok := r.s.stripeOf(name).classMap()[name]
	if !ok || c.createdSeq > r.at {
		return nil, false
	}
	return c, true
}

// classes lists the database-level classes visible at the read point,
// keyed by name.
func (r View) classes() map[string]*Class {
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

// ClassNames lists the database-level classes visible at the read point,
// sorted.
func (r View) ClassNames() []string { return sortedNames(r.classes()) }

// Class lists a database-level class extent at the read point.
func (r View) Class(name string) ([]domain.Surrogate, error) {
	ms, ok := r.extent(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchClass, name)
	}
	return copySurs(ms), nil
}

// ClassSize returns the member count of a database-level class without
// copying the extent, or -1 if no such class is visible: the query
// planner's costing probe.
func (r View) ClassSize(name string) int {
	ms, ok := r.extent(name)
	if !ok {
		return -1
	}
	return len(ms)
}

// extent returns a class's membership at the read point; a live read
// takes the class's stripe read lock for the lookup. A published
// membership slice is never written within its length, so the result may
// be read after the unlock.
func (r View) extent(name string) ([]domain.Surrogate, bool) {
	if r.isLive() {
		st := r.s.stripeOf(name)
		st.mu.RLock()
		defer st.mu.RUnlock()
	}
	c, ok := r.class(name)
	if !ok {
		return nil, false
	}
	return c.membersAt(r.at), true
}

func copySurs(surs []domain.Surrogate) []domain.Surrogate {
	if len(surs) == 0 {
		return nil
	}
	return append([]domain.Surrogate(nil), surs...)
}
