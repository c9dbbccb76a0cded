// Package object implements the runtime of the object model: objects with
// system-managed surrogates, classes, complex objects (local subobject and
// relationship subclasses, §3), relationship objects, and the inheritance
// bindings that give composite objects and interface/implementation pairs
// their view semantics (§4).
//
// The Store is the unit of consistency: all operations go through it and
// it is safe for concurrent use. Higher layers add transactions
// (internal/txn), versioning (internal/version), persistence
// (internal/storage) and snapshot isolation for long reads (mvcc.go).
package object

import (
	"sort"
	"sync/atomic"

	"cadcam/internal/domain"
	"cadcam/internal/schema"
)

// Object is one object or relationship object. All mutation goes through
// the Store; the accessor methods here are read-only snapshots and must
// only be used while the caller is certain no concurrent mutation runs
// (the Store's public API copies what it returns).
type Object struct {
	sur domain.Surrogate
	// lay is the object's type layout: its type name and kind, and the
	// ordinals of its own attributes.
	lay *layout

	// attrs holds the own attribute slots, indexed by the layout's
	// ordinals. The array is allocated at creation and never replaced; an
	// empty chain means the attribute is absent, a nil head value a
	// tombstone. Slots are written in place under the owning shard's lock,
	// and a lock-free reader sees complete values, never partial writes.
	attrs []vchain[domain.Value]
	// participants holds a general relationship object's roles (role ->
	// Ref or *Set). Inheritance bindings leave it nil: their roles come
	// from binding, so role reads go through role or roleValues.
	participants map[string]domain.Value

	// subs holds the local-subclass and relationship-subclass maps, nil
	// until the first class is materialized. Both maps are copy-on-write:
	// a class, once materialized, is never removed from them. A class
	// materialized after a pin starts with an empty membership chain whose
	// first node is stamped pending and then the materializing operation's
	// sequence, so a snapshot reader that finds it reads an empty
	// membership at its pin — the same answer as not finding it.
	subs atomic.Pointer[subMaps]

	// binding backlinks the Binding on inheritance binding objects (its
	// roles and bookkeeping chain; snapshot export classifies records
	// through it); nil otherwise. Set once under the all-shard lock before
	// the object is published.
	binding *Binding

	// bindIn and bindOut version the object's binding lists as inheritor
	// and as transmitter. Published lists are immutable and change only
	// under the all-shard lock. The head is the live list, read under any
	// shard lock; a snapshot reads the list at its pin.
	bindIn, bindOut vchain[[]*Binding]

	parent     domain.Surrogate // 0 for top-level objects
	parentSub  string           // subclass of the parent that holds this object
	ownerClass *Class           // top-level class, nil if none

	// mod versions the store sequence of the last direct mutation
	// (attribute write, subclass membership change), used for optimistic
	// checkin; each node's value is its own stamp.
	mod vchain[struct{}]

	// createdSeq is the sequence of the creating operation: pending while
	// that operation runs, re-stamped at its commit (0 for imported base
	// state). deletedSeq is set by the deleting operation; a read at S
	// sees the object iff createdSeq <= S < deletedSeq (deletedSeq 0: not
	// deleted), so the live store (S = liveSeq) sees it from creation on.
	createdSeq atomic.Uint64
	deletedSeq atomic.Uint64

	// routes holds the object's memoized resolution routes, indexed by the
	// layout's route ordinals; nil until the first is memoized. Slots are
	// written under a shard read lock and read lock-free (cache.go).
	routes atomic.Pointer[[]atomic.Pointer[route]]
}

// layout is a type's fixed object layout, computed once per type from the
// validated catalog, which cannot change afterwards. It lists the type's
// own attributes — the ones its objects store — in declaration order, and
// an object's attribute slots are indexed by these ordinals. Inherited
// attributes have no slot: they are read through the bindings, along a
// route memoized in the object's route slot for the name. Subclasses,
// own or inherited, have a route slot too: their read depends on
// materialization.
type layout struct {
	name  string
	isRel bool                  // relationship or inheritance relationship type
	eff   *schema.EffectiveType // object types only
	attrs []*schema.Attribute   // own attributes by ordinal
	ord   map[string]int        // own attribute name -> ordinal

	attrRoutes map[string]int // inherited attribute name -> route ordinal
	subRoutes  map[string]int // subclass name -> route ordinal, after attrRoutes'
}

// newLayouts computes the layout of every object, relationship and
// inheritance relationship type of a validated catalog.
func newLayouts(cat *schema.Catalog) map[string]*layout {
	m := make(map[string]*layout)
	add := func(name string, isRel bool, eff *schema.EffectiveType, attrs []schema.Attribute) {
		l := &layout{name: name, isRel: isRel, eff: eff, ord: make(map[string]int, len(attrs))}
		for i := range attrs {
			l.ord[attrs[i].Name] = i
			l.attrs = append(l.attrs, &attrs[i])
		}
		if eff != nil {
			l.attrRoutes, l.subRoutes = make(map[string]int), make(map[string]int)
			for _, a := range eff.Attrs {
				if a.Inherited() {
					l.attrRoutes[a.Name] = len(l.attrRoutes)
				}
			}
			for _, sd := range eff.Subclasses {
				l.subRoutes[sd.Name] = len(l.attrRoutes) + len(l.subRoutes)
			}
		}
		m[name] = l
	}
	for _, n := range cat.ObjectTypeNames() {
		t, _ := cat.ObjectType(n)
		eff, _ := cat.Effective(n)
		add(n, false, eff, t.Attributes)
	}
	for _, n := range cat.RelTypeNames() {
		t, _ := cat.RelType(n)
		add(n, true, nil, t.Attributes)
	}
	for _, n := range cat.InherRelTypeNames() {
		t, _ := cat.InherRelType(n)
		add(n, true, nil, t.Attributes)
	}
	return m
}

// newObject returns an object of the layout's type with empty attribute
// slots.
func (l *layout) newObject(sur domain.Surrogate) *Object {
	o := &Object{sur: sur, lay: l}
	if len(l.attrs) > 0 {
		o.attrs = make([]vchain[domain.Value], len(l.attrs))
	}
	return o
}

// Participant role names of an inheritance binding.
const (
	roleTransmitter = "Transmitter"
	roleInheritor   = "Inheritor"
)

// role reads a relationship object's participant role: an inheritance
// binding's from its Binding, a general relationship's from participants.
func (o *Object) role(name string) (domain.Value, bool) {
	if b := o.binding; b != nil {
		switch name {
		case roleTransmitter:
			return domain.Ref(b.Transmitter), true
		case roleInheritor:
			return domain.Ref(b.Inheritor), true
		}
		return nil, false
	}
	v, ok := o.participants[name]
	return v, ok
}

// roleValues returns the values of a relationship object's participant
// roles, in no particular order (none for an object).
func (o *Object) roleValues() []domain.Value {
	if b := o.binding; b != nil {
		return []domain.Value{domain.Ref(b.Transmitter), domain.Ref(b.Inheritor)}
	}
	vs := make([]domain.Value, 0, len(o.participants))
	for _, v := range o.participants {
		vs = append(vs, v)
	}
	return vs
}

// bindingsIn returns the live bindings in which o is the inheritor.
func (o *Object) bindingsIn() []*Binding {
	l, _ := o.bindIn.live()
	return l
}

// bindingsOut returns the live bindings in which o is the transmitter.
func (o *Object) bindingsOut() []*Binding {
	l, _ := o.bindOut.live()
	return l
}

// attrAt returns own attribute slot i's value at sequence point s (absent
// if the slot was empty, or held a tombstone, at s).
func (o *Object) attrAt(i int, s uint64) (domain.Value, bool) {
	v, _ := o.attrs[i].at(s)
	return v, v != nil
}

// subMaps is one published pair of an object's subclass maps.
type subMaps struct {
	sub, rel map[string]*Class
}

// subMap returns the current local-subclass map (immutable; COW).
func (o *Object) subMap() map[string]*Class {
	if p := o.subs.Load(); p != nil {
		return p.sub
	}
	return nil
}

// relMap returns the current relationship-subclass map (immutable; COW).
func (o *Object) relMap() map[string]*Class {
	if p := o.subs.Load(); p != nil {
		return p.rel
	}
	return nil
}

// putSub publishes a newly materialized local subclass (COW swap, under
// the all-shard lock).
func (o *Object) putSub(name string, c *Class) {
	o.subs.Store(&subMaps{sub: withClass(o.subMap(), name, c), rel: o.relMap()})
}

// putSubrel publishes a newly materialized relationship subclass.
func (o *Object) putSubrel(name string, c *Class) {
	o.subs.Store(&subMaps{sub: o.subMap(), rel: withClass(o.relMap(), name, c)})
}

// withClass returns a copy of old with name mapped to c.
func withClass(old map[string]*Class, name string, c *Class) map[string]*Class {
	m := make(map[string]*Class, len(old)+1)
	for k, v := range old {
		m[k] = v
	}
	m[name] = c
	return m
}

// setAttr sets own attribute slot i to v at the given operation sequence;
// ceil is the current pin ceiling. A null value pushes a tombstone when a
// snapshot pin may still read the old value, and otherwise empties the
// slot (keeping snapshots free of null entries). Callers hold the owning
// shard's write lock. Reports whether a version node was retained for
// pins.
func (o *Object) setAttr(i int, v domain.Value, at, ceil uint64) bool {
	c := &o.attrs[i]
	if domain.IsNull(v) {
		h := c.head.Load()
		if h == nil {
			return false
		}
		if h.at > ceil && h.prev == nil {
			c.head.Store(nil)
			return false
		}
		// A pin may read the current value — or the chain carries retained
		// tail nodes a pin still needs: tombstone the slot.
		v = nil
	}
	return c.put(at, v, ceil)
}

// Surrogate returns the system-wide identifier.
func (o *Object) Surrogate() domain.Surrogate { return o.sur }

// TypeName returns the object's (or relationship's) type name.
func (o *Object) TypeName() string { return o.lay.name }

// IsRelationship reports whether the object represents a relationship.
func (o *Object) IsRelationship() bool { return o.lay.isRel }

// Parent returns the owning complex object's surrogate, or 0.
func (o *Object) Parent() domain.Surrogate { return o.parent }

// className returns the name of the object's top-level class, "" if none.
func (o *Object) className() string {
	if o.ownerClass == nil {
		return ""
	}
	return o.ownerClass.name
}

// ParentSubclass returns the parent subclass holding this subobject.
func (o *Object) ParentSubclass() string { return o.parentSub }

// Class is an ordered set of member objects: either a database-level
// class or a local subclass of a complex object.
type Class struct {
	name     string
	elemType string
	// members versions the membership; its head is the live slice.
	// Published slices are immutable: add/remove build a new slice and
	// push it, so the lock-free Members hit path reads membership without
	// locking. The index map is only touched by writers holding the store
	// write locks.
	members vchain[[]domain.Surrogate]
	index   map[domain.Surrogate]int

	// createdSeq stamps database-level class creation.
	createdSeq uint64
}

func newClass(name, elemType string) *Class {
	return &Class{name: name, elemType: elemType, index: make(map[domain.Surrogate]int)}
}

// Name returns the class name.
func (c *Class) Name() string { return c.name }

// ElemType returns the member object type ("" for unrestricted classes).
func (c *Class) ElemType() string { return c.elemType }

// items returns the live membership slice; callers must not mutate it.
func (c *Class) items() []domain.Surrogate {
	m, _ := c.members.live()
	return m
}

// Members returns the member surrogates in insertion order (a copy).
func (c *Class) Members() []domain.Surrogate {
	return append([]domain.Surrogate(nil), c.items()...)
}

// Contains reports membership. Only valid under the store lock (the index
// is writer-maintained).
func (c *Class) Contains(sur domain.Surrogate) bool {
	_, ok := c.index[sur]
	return ok
}

// add appends sur, publishing the new membership stamped at: pending for
// live churn (the operation commits it), 0 for imported base state. The
// ceiling passed equals the stamp, so a pending push keeps the committed
// head below it (commit then applies the real ceiling) and replaces an
// earlier pending one.
func (c *Class) add(sur domain.Surrogate, at uint64) {
	if _, dup := c.index[sur]; dup {
		return
	}
	cur := c.items()
	var next []domain.Surrogate
	if cap(cur) > len(cur) {
		// Amortized append: there is a single mutator (membership changes
		// run store-exclusive), and every published header — the head and
		// older versions alike — is shorter than or equal to cur, so
		// nothing ever reads the spare slot being filled. remove always
		// allocates a fresh array, so no longer header can share this one.
		next = cur[:len(cur)+1]
	} else {
		next = make([]domain.Surrogate, len(cur)+1, 1+2*len(cur))
		copy(next, cur)
	}
	next[len(cur)] = sur
	c.index[sur] = len(cur)
	c.members.put(at, next, at)
}

// remove drops sur, publishing the new membership stamped pending.
func (c *Class) remove(sur domain.Surrogate) {
	i, ok := c.index[sur]
	if !ok {
		return
	}
	cur := c.items()
	next := make([]domain.Surrogate, 0, len(cur)-1)
	next = append(next, cur[:i]...)
	next = append(next, cur[i+1:]...)
	delete(c.index, sur)
	for j := i; j < len(next); j++ {
		c.index[next[j]] = j
	}
	c.members.put(pending, next, pending)
}

// Binding is one inheritance relationship object: it relates an inheritor
// to its transmitter under an inher-rel-type and carries the relationship
// object (with the system bookkeeping attributes and any user-declared
// attributes).
//
// System attributes maintained on the relationship object (§2: "the
// attributes of the relationship can be used" to inform about transmitter
// changes):
//
//	TransmitterUpdates — number of permeable transmitter updates so far
//	LastUpdateSeq      — store sequence number of the latest such update
//	AcknowledgedSeq    — sequence the inheritor side has adapted to
type Binding struct {
	Obj         *Object
	Rel         *schema.InherRelType
	Transmitter domain.Surrogate
	Inheritor   domain.Surrogate

	book vchain[bookkeeping]
}

// System attribute names on binding relationship objects.
const (
	AttrTransmitterUpdates = "TransmitterUpdates"
	AttrLastUpdateSeq      = "LastUpdateSeq"
	AttrAcknowledgedSeq    = "AcknowledgedSeq"
)

// NeedsAdaptation reports whether the transmitter changed since the
// inheritor last acknowledged (the consistency-control reading of the
// binding attributes).
func (b *Binding) NeedsAdaptation() bool {
	k, _ := b.book.live()
	return k.last > k.ack
}

// sortedNames returns map keys in sorted order for deterministic output.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
