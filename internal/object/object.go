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
	sur      domain.Surrogate
	typeName string
	isRel    bool // relationship object (including inheritance bindings)

	// attrs points at the current attribute slot map. Published maps are
	// immutable; adding or removing a key replaces the map copy-on-write
	// under the owning shard's lock, while writing an existing attribute
	// pushes a new version onto the slot's chain in place. Either way a
	// lock-free reader sees complete values, never partial writes.
	attrs        atomic.Pointer[map[string]*attrBox]
	participants map[string]domain.Value // rel objects: role -> Ref or *Set

	// subclasses and subrels are copy-on-write maps: a class, once
	// materialized, is never removed from them. A class materialized after
	// a pin starts with an empty membership chain whose first node is
	// stamped pending and then the materializing operation's sequence, so
	// a snapshot reader that finds it reads an empty membership at its
	// pin — the same answer as not finding it.
	subclasses atomic.Pointer[map[string]*Class]
	subrels    atomic.Pointer[map[string]*Class]

	// binding backlinks the Binding on inheritance binding objects (its
	// bookkeeping chain; snapshot export classifies records through it);
	// nil otherwise. Set once under the all-shard lock before the object
	// is published.
	binding *Binding

	// bindIn and bindOut version the object's binding lists as inheritor
	// and as transmitter. Published lists are immutable and change only
	// under the all-shard lock. The head is the live list, read under any
	// shard lock; a snapshot reads the list at its pin.
	bindIn, bindOut vchain[[]*Binding]

	parent     domain.Surrogate // 0 for top-level objects
	parentSub  string           // subclass of the parent that holds this object
	ownerClass string           // top-level class name, "" if none

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

// attrMap returns the current attribute slot map; callers must treat the
// map itself as immutable.
func (o *Object) attrMap() map[string]*attrBox {
	if p := o.attrs.Load(); p != nil {
		return *p
	}
	return nil
}

// initAttrs publishes the initial attribute map of a new object, stamped
// at the given creation sequence (0 for imported base state).
func (o *Object) initAttrs(m map[string]domain.Value, at uint64) {
	boxes := make(map[string]*attrBox, len(m))
	for k, v := range m {
		boxes[k] = newAttrBox(v, at)
	}
	o.attrs.Store(&boxes)
}

// initClasses publishes empty subclass/subrel maps.
func (o *Object) initClasses() {
	sub := make(map[string]*Class)
	rel := make(map[string]*Class)
	o.subclasses.Store(&sub)
	o.subrels.Store(&rel)
}

func newAttrBox(v domain.Value, at uint64) *attrBox {
	b := &attrBox{}
	b.head.Store(&vnode[domain.Value]{at: at, v: v})
	return b
}

// subMap returns the current local-subclass map (immutable; COW).
func (o *Object) subMap() map[string]*Class {
	if p := o.subclasses.Load(); p != nil {
		return *p
	}
	return nil
}

// relMap returns the current relationship-subclass map (immutable; COW).
func (o *Object) relMap() map[string]*Class {
	if p := o.subrels.Load(); p != nil {
		return *p
	}
	return nil
}

// putSub publishes a newly materialized local subclass (COW map swap,
// under the all-shard lock).
func (o *Object) putSub(name string, c *Class) {
	old := o.subMap()
	m := make(map[string]*Class, len(old)+1)
	for k, v := range old {
		m[k] = v
	}
	m[name] = c
	o.subclasses.Store(&m)
}

// putSubrel publishes a newly materialized relationship subclass.
func (o *Object) putSubrel(name string, c *Class) {
	old := o.relMap()
	m := make(map[string]*Class, len(old)+1)
	for k, v := range old {
		m[k] = v
	}
	m[name] = c
	o.subrels.Store(&m)
}

// setAttr sets name to v at the given operation sequence. Setting an
// existing attribute pushes a version onto the slot's chain in place;
// adding a key publishes a map copy; a null value pushes a tombstone when
// a snapshot pin may still read the old value, otherwise deletes the key
// (keeping snapshots free of null entries). ceil is the current pin
// ceiling. Callers hold the owning shard's write lock. Reports how many
// version nodes were retained for pins.
func (o *Object) setAttr(name string, v domain.Value, at, ceil uint64) int {
	old := o.attrMap()
	if domain.IsNull(v) {
		b, ok := old[name]
		if !ok {
			return 0
		}
		if h := b.head.Load(); h != nil && (h.at <= ceil || h.prev != nil) {
			// A pin may read the current value — or the chain carries
			// retained tail nodes a pin still needs: tombstone the slot
			// instead of dropping the box.
			if b.put(at, nil, ceil) {
				return 1
			}
			return 0
		}
		m := make(map[string]*attrBox, len(old))
		for k, x := range old {
			if k != name {
				m[k] = x
			}
		}
		o.attrs.Store(&m)
		return 0
	}
	if b, ok := old[name]; ok {
		if b.put(at, v, ceil) {
			return 1
		}
		return 0
	}
	m := make(map[string]*attrBox, len(old)+1)
	for k, x := range old {
		m[k] = x
	}
	m[name] = newAttrBox(v, at)
	o.attrs.Store(&m)
	return 0
}

// Surrogate returns the system-wide identifier.
func (o *Object) Surrogate() domain.Surrogate { return o.sur }

// TypeName returns the object's (or relationship's) type name.
func (o *Object) TypeName() string { return o.typeName }

// IsRelationship reports whether the object represents a relationship.
func (o *Object) IsRelationship() bool { return o.isRel }

// Parent returns the owning complex object's surrogate, or 0.
func (o *Object) Parent() domain.Surrogate { return o.parent }

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

// Len reports the member count.
func (c *Class) Len() int { return len(c.items()) }

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
