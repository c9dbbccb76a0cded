package object

import (
	"fmt"

	"cadcam/internal/domain"
	"cadcam/internal/oplog"
)

// SetAttr sets an attribute on an object or relationship object.
//
// Write protection (§2): attributes that reach the object through an
// inheritance relationship are read-only here and can only change on the
// transmitter side; attempting to set them returns ErrInheritedAttribute.
//
// Every successful update of an object that is a transmitter bumps the
// bookkeeping of all bindings through which the change is visible and
// fires registered update hooks (after the lock is released),
// transitively along inheritance chains.
//
// SetAttr is the hot single-shard path: it locks only the shard owning
// sur. Chain validation and notification read other shards' topology,
// which any single shard lock freezes (see the shard type); binding
// bookkeeping on other shards advances through commuting atomics.
func (s *Store) SetAttr(sur domain.Surrogate, name string, v domain.Value) error {
	sh := s.shardOf(sur)
	sh.mu.Lock()
	dispatch, err := s.setAttrShard(sh, sur, name, v, 0)
	sh.mu.Unlock()
	if dispatch {
		s.dispatchEvents()
	}
	return err
}

// SetAttrAt applies a journaled attribute write with its recorded
// sequence number — the parallel-recovery form of SetAttr. It neither
// consumes the store's sequence counter nor journals, so recovery may
// apply per-shard partitions of the journal concurrently: each goroutine
// holds its own shard's lock, topology is frozen (structural ops are
// replay barriers), and cross-shard binding bookkeeping advances through
// commuting atomics, reproducing the live outcome regardless of the
// goroutine interleaving. Only recovery may call it.
func (s *Store) SetAttrAt(sur domain.Surrogate, name string, v domain.Value, seq uint64) error {
	sh := s.shardOf(sur)
	sh.mu.Lock()
	dispatch, err := s.setAttrShard(sh, sur, name, v, seq)
	sh.mu.Unlock()
	if dispatch {
		s.dispatchEvents()
	}
	return err
}

// setAttrShard performs an attribute write under the owning shard's lock.
// replaySeq == 0 is the live path: the write consumes a fresh sequence
// number and is journaled. replaySeq != 0 is the recovery path: the
// journaled sequence is applied verbatim and nothing is re-journaled.
func (s *Store) setAttrShard(sh *shard, sur domain.Surrogate, name string, v domain.Value, replaySeq uint64) (bool, error) {
	o, ok := s.obj(sur)
	if !ok {
		return false, noObject(sur)
	}
	if err := s.guardLocked(sur); err != nil {
		return false, err
	}
	if o.isRel {
		return false, s.setRelAttrLocked(o, name, v, replaySeq)
	}
	// Fast path: overwriting an already-validated slot. The memoized
	// declaration proves the attribute is declared and non-inherited, so
	// only the value itself needs checking.
	if b, ok := o.attrMap()[name]; ok && b.decl != nil && !domain.IsNull(v) {
		if err := b.decl.Domain.Validate(v); err != nil {
			return false, fmt.Errorf("%w: %s.%s: %v", ErrTypeMismatch, o.typeName, name, err)
		}
		if err := s.checkRefValueLocked(b.decl.Domain, v); err != nil {
			return false, err
		}
		seq := replaySeq
		if seq == 0 {
			seq = s.seq.Add(1)
		}
		ceil := s.ceiling()
		if b.put(seq, v, ceil) {
			sh.retained.Add(1)
		}
		if o.pushModSeq(seq, ceil) {
			sh.retained.Add(1)
		}
		s.markDirty(sur)
		s.idxOwn(o, name, v, seq)
		n := notifier{s: s, seq: seq}
		n.notify(o, name)
		n.notifyParent(o)
		if replaySeq == 0 && s.journal != nil {
			s.emit(&oplog.Op{Kind: oplog.KindSetAttr, Sur: sur, Name: name, Value: v, Seq: seq})
		}
		return n.queue(), nil
	}
	eff, err := s.effectiveLocked(o)
	if err != nil {
		return false, err
	}
	a, ok := eff.Attr(name)
	if !ok {
		return false, fmt.Errorf("%w: %s.%s", ErrNoSuchAttribute, o.typeName, name)
	}
	if a.Inherited() {
		return false, fmt.Errorf("%w: %s.%s (from %s via %s)", ErrInheritedAttribute, o.typeName, name, a.Source, a.Via)
	}
	if err := a.Domain.Validate(v); err != nil {
		return false, fmt.Errorf("%w: %s.%s: %v", ErrTypeMismatch, o.typeName, name, err)
	}
	if err := s.checkRefValueLocked(a.Domain, v); err != nil {
		return false, err
	}
	seq := replaySeq
	if seq == 0 {
		seq = s.seq.Add(1)
	}
	ceil := s.ceiling()
	if n := o.setAttr(name, v, seq, ceil); n > 0 {
		sh.retained.Add(uint64(n))
	}
	if b, ok := o.attrMap()[name]; ok {
		b.decl = a // arm the fast path for subsequent writes
	}
	if o.pushModSeq(seq, ceil) {
		sh.retained.Add(1)
	}
	s.markDirty(sur)
	s.idxOwn(o, name, v, seq)
	n := notifier{s: s, seq: seq}
	n.notify(o, name)
	n.notifyParent(o)
	if replaySeq == 0 && s.journal != nil { // guard here so an in-memory store never allocates the op
		s.emit(&oplog.Op{Kind: oplog.KindSetAttr, Sur: sur, Name: name, Value: v, Seq: seq})
	}
	return n.queue(), nil
}

// setRelAttrLocked updates a user-declared attribute of a relationship
// object. Participant roles and the binding bookkeeping attributes are not
// assignable. Declaration lookups use the catalog's precomputed per-type
// indexes rather than scanning the declaration slices. replaySeq follows
// the setAttrShard convention.
func (s *Store) setRelAttrLocked(o *Object, name string, v domain.Value, replaySeq uint64) error {
	if _, ok := s.cat.RelType(o.typeName); ok {
		if s.cat.RelRole(o.typeName, name) {
			return fmt.Errorf("%w: participant role %q is fixed at creation", ErrTypeMismatch, name)
		}
	} else if _, ok := s.cat.InherRelType(o.typeName); ok {
		switch name {
		case AttrTransmitterUpdates, AttrLastUpdateSeq, AttrAcknowledgedSeq:
			return fmt.Errorf("%w: %q is maintained by the system", ErrTypeMismatch, name)
		}
	} else {
		return fmt.Errorf("%w: %q", ErrNoSuchType, o.typeName)
	}
	a, ok := s.cat.RelAttr(o.typeName, name)
	if !ok {
		return fmt.Errorf("%w: %s.%s", ErrNoSuchAttribute, o.typeName, name)
	}
	if err := a.Domain.Validate(v); err != nil {
		return fmt.Errorf("%w: %s.%s: %v", ErrTypeMismatch, o.typeName, name, err)
	}
	seq := replaySeq
	if seq == 0 {
		seq = s.seq.Add(1)
	}
	ceil := s.ceiling()
	sh := s.shardOf(o.sur)
	if n := o.setAttr(name, v, seq, ceil); n > 0 {
		sh.retained.Add(uint64(n))
	}
	if o.pushModSeq(seq, ceil) {
		sh.retained.Add(1)
	}
	s.markDirty(o.sur)
	if replaySeq == 0 {
		s.emit(&oplog.Op{Kind: oplog.KindSetAttr, Sur: o.sur, Name: name, Value: v, Seq: seq})
	}
	return nil
}

// checkRefValueLocked verifies that object references inside v point to
// live objects of the domain's required type. Lookups may cross shards;
// the caller's shard lock freezes topology store-wide.
func (s *Store) checkRefValueLocked(d *domain.Domain, v domain.Value) error {
	if domain.IsNull(v) {
		return nil
	}
	switch x := v.(type) {
	case domain.Ref:
		ro, ok := s.obj(domain.Surrogate(x))
		if !ok {
			return fmt.Errorf("%w: reference %s", ErrNoSuchObject, x)
		}
		if want := d.ObjectType(); want != "" && ro.typeName != want {
			return fmt.Errorf("%w: reference %s is %q, want %q", ErrTypeMismatch, x, ro.typeName, want)
		}
	case *domain.Set:
		if d.Kind() == domain.KindSet {
			for _, e := range x.Elems() {
				if err := s.checkRefValueLocked(d.Elem(), e); err != nil {
					return err
				}
			}
		}
	case *domain.List:
		if d.Kind() == domain.KindList {
			for _, e := range x.Elems() {
				if err := s.checkRefValueLocked(d.Elem(), e); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// GetAttr reads an attribute with the paper's resolution rule (see
// rd.getAttr). The hot path is lock-free: a memoized route valid against
// the current epochs of the shards it crosses names the object whose own
// attribute slot holds the value, and that slot is read live.
func (s *Store) GetAttr(sur domain.Surrogate, name string) (domain.Value, error) {
	return s.live().attrOf(sur, name)
}

// Members returns the member surrogates of a local subclass or
// relationship subclass, following inheritance for subclasses the object's
// type inherits (the interface's Pins seen from the implementation). Like
// GetAttr, the hot path is a lock-free route hit.
func (s *Store) Members(sur domain.Surrogate, name string) ([]domain.Surrogate, error) {
	return s.live().membersOf(sur, name)
}

// notifier walks the inheritance fan-out from changed transmitters,
// updating binding bookkeeping and collecting UpdateEvents for every
// binding through which a change is visible. Chains re-transmit: if an
// implementation inherits Pins from its interface and a composite
// inherits Pins from the implementation, an interface update notifies
// both bindings. The walk reads binding lists across shards (topology
// is frozen under the caller's shard lock); bookkeeping advances through
// the commuting atomics on the binding objects, so a single-shard caller
// may touch bindings owned by other shards.
type notifier struct {
	s       *Store
	seq     uint64
	unbound bool
	visited map[visitKey]bool
	events  []UpdateEvent
}

// visitKey cycle-breaks the notification walk per (transmitter, member)
// pair, not per transmitter: one operation may notify several members
// (an attribute plus the parent's subclass), and a transmitter reached
// for one member must still fan out for the other — keying by surrogate
// alone would make the outcome depend on notification order.
type visitKey struct {
	transmitter domain.Surrogate
	member      string
}

func (n *notifier) notify(t *Object, member string) {
	bindings := t.bindingsOut()
	if len(bindings) == 0 {
		return
	}
	if n.visited == nil {
		n.visited = make(map[visitKey]bool)
	}
	transmitter := t.sur
	k := visitKey{transmitter, member}
	if n.visited[k] {
		return
	}
	n.visited[k] = true
	for _, b := range bindings {
		if !b.Rel.Inherits(member) {
			continue
		}
		if b.noteUpdate(n.seq, n.s.ceiling()) {
			n.s.shardOf(b.Obj.sur).retained.Add(1)
		}
		// The bookkeeping is durable state of the binding object, which may
		// live in a shard other than the caller's: its segment must be
		// re-encoded at the next checkpoint.
		n.s.markDirty(b.Obj.sur)
		n.events = append(n.events, UpdateEvent{
			Rel:         b.Rel.Name,
			Binding:     b.Obj.sur,
			Transmitter: transmitter,
			Inheritor:   b.Inheritor,
			Member:      member,
			Seq:         n.seq,
			Unbound:     n.unbound,
		})
		// An index over the member sees the change through the inheritor.
		n.s.idxInherited(b.Inheritor, member, n.seq)
		// The inheritor's own inheritors may see the member through it.
		if io, ok := n.s.obj(b.Inheritor); ok {
			n.notify(io, member)
		}
	}
}

// notifyParent informs the inheritors of a subobject's parent: a
// subobject update also changes what the parent's subclass shows.
func (n *notifier) notifyParent(o *Object) {
	if o.parent == 0 {
		return
	}
	if po, ok := n.s.obj(o.parent); ok {
		n.notify(po, o.parentSub)
	}
}

// queue hands the collected events to the dispatch queue (still under the
// caller's locks, preserving order). It returns whether the caller must
// run dispatchEvents after unlocking.
func (n *notifier) queue() bool {
	if len(n.events) == 0 {
		return false
	}
	n.s.queueEvents(n.events)
	return true
}
