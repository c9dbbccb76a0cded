package object

import (
	"fmt"

	"cadcam/internal/domain"
	"cadcam/internal/oplog"
)

// Bind creates an inheritance relationship object relating inheritor to
// transmitter under the named inher-rel-type (§4.1). After a successful
// Bind, the inheritor's inherited attributes and subclasses read through
// to the transmitter's current data.
//
// Preconditions enforced:
//   - the transmitter object has exactly the relationship's transmitter
//     type;
//   - the inheritor's type declares `inheritor-in` for the relationship
//     (§4.1: inheritor types are declared explicitly);
//   - the inheritor is not already bound under this relationship type
//     (one transmitter per relationship);
//   - the binding keeps value inheritance acyclic at the object level.
//
// Bind mutates binding lists and objects on up to three shards
// (inheritor, transmitter, binding object), so it runs store-wide
// exclusive.
func (s *Store) Bind(relType string, inheritor, transmitter domain.Surrogate) (domain.Surrogate, error) {
	s.lockAll()
	defer s.unlockAll()
	rel, ok := s.cat.InherRelType(relType)
	if !ok {
		return 0, fmt.Errorf("%w: inheritance relationship %q", ErrNoSuchType, relType)
	}
	io, ok := s.obj(inheritor)
	if !ok {
		return 0, noObject(inheritor)
	}
	if err := s.guardLocked(inheritor); err != nil {
		return 0, err
	}
	to, ok := s.obj(transmitter)
	if !ok {
		return 0, noObject(transmitter)
	}
	if to.lay.name != rel.Transmitter {
		return 0, fmt.Errorf("%w: transmitter %s is %q, relationship %s requires %q",
			ErrTypeMismatch, transmitter, to.lay.name, relType, rel.Transmitter)
	}
	if io.lay.isRel {
		return 0, fmt.Errorf("%w: %s is a relationship object", ErrTypeMismatch, inheritor)
	}
	it, _ := s.cat.ObjectType(io.lay.name)
	if !declaresInheritorIn(it.InheritorIn, relType) {
		return 0, fmt.Errorf("%w: type %q, relationship %q", ErrNotInheritor, io.lay.name, relType)
	}
	if byRel(io.bindingsIn(), relType) != nil {
		return 0, fmt.Errorf("%w: %s in %s", ErrAlreadyBound, inheritor, relType)
	}
	if inheritor == transmitter || s.reachesLocked(transmitter, inheritor) {
		return 0, fmt.Errorf("%w: %s -> %s via %s", ErrInheritanceCycle, inheritor, transmitter, relType)
	}

	sur := domain.Surrogate(s.nextSur.Add(1))
	obj := s.layouts[relType].newObject(sur)
	b := &Binding{Obj: obj, Rel: rel, Transmitter: transmitter, Inheritor: inheritor}
	obj.binding = b
	s.putObj(obj, pending)
	s.markDirty(sur)
	seq := s.seq.Add(1)
	s.publishObj(obj, seq)
	s.indexBinding(b, seq, with)
	// Inherited values the inheritor (and everything downstream) now
	// reads through the new binding enter the secondary indexes at seq.
	s.idxTouch(inheritor)
	s.idxCommit(seq)
	if s.journal != nil { // guard here so an in-memory store never allocates the op
		s.emit(&oplog.Op{Kind: oplog.KindBind, Name: relType, Sur: inheritor, Sur2: transmitter, Out: obj.sur, Seq: seq})
	}
	return obj.sur, nil
}

func declaresInheritorIn(list []string, relType string) bool {
	for _, r := range list {
		if r == relType {
			return true
		}
	}
	return false
}

// reachesLocked reports whether `to` is reachable from `from` by walking
// transmitter edges upward (from inheritor to transmitter). The walk
// crosses shards; any held shard lock freezes the binding lists.
func (s *Store) reachesLocked(from, to domain.Surrogate) bool {
	for _, b := range s.bindingsIn(from) {
		if b.Transmitter == to || s.reachesLocked(b.Transmitter, to) {
			return true
		}
	}
	return false
}

// Unbind removes the inheritor's binding under the named relationship
// type. The inheritor keeps its type-level inheritance (structure) but
// loses the transmitter's values.
func (s *Store) Unbind(relType string, inheritor domain.Surrogate) error {
	s.lockAll()
	defer s.unlockAll()
	b := s.bindingLocked(inheritor, relType)
	if b == nil {
		return fmt.Errorf("%w: %s in %s", ErrNotBound, inheritor, relType)
	}
	if err := s.guardLocked(inheritor); err != nil {
		return err
	}
	seq := s.seq.Add(1)
	s.removeBindingLocked(b, seq)
	s.idxCommit(seq)
	s.emit(&oplog.Op{Kind: oplog.KindUnbind, Name: relType, Sur: inheritor, Seq: seq})
	return nil
}

// removeBindingLocked dissolves a binding from both indexes and drops its
// relationship object, at the dissolving operation's sequence. Callers
// hold all shard write locks.
func (s *Store) removeBindingLocked(b *Binding, seq uint64) {
	s.indexBinding(b, seq, without)
	// The binding object dies at seq.
	s.retireObj(b.Obj, seq)
	// The binding object disappears from its shard's durable state.
	s.markDirty(b.Obj.sur)
	// The inheritor's inherited values changed with the route; queue its
	// index recomputation for the operation's idxCommit.
	s.idxTouch(b.Inheritor)
}

// indexBinding publishes b's inheritor-side and transmitter-side binding
// lists, edited by with or without, at seq. Both endpoints are live.
// Callers hold all shard write locks.
func (s *Store) indexBinding(b *Binding, seq uint64, edit func([]*Binding, *Binding) []*Binding) {
	io, _ := s.obj(b.Inheritor)
	to, _ := s.obj(b.Transmitter)
	ceil := s.ceiling()
	if io.bindIn.put(seq, edit(io.bindingsIn(), b), ceil) {
		s.shardOf(io.sur).retained.Add(1)
	}
	if to.bindOut.put(seq, edit(to.bindingsOut(), b), ceil) {
		s.shardOf(to.sur).retained.Add(1)
	}
}

// bindingsIn returns the live bindings in which sur is the inheritor.
// Callers hold at least one shard lock.
func (s *Store) bindingsIn(sur domain.Surrogate) []*Binding {
	if o, ok := s.obj(sur); ok {
		return o.bindingsIn()
	}
	return nil
}

// bindingsOut returns the live bindings in which sur is the transmitter.
// Callers hold at least one shard lock.
func (s *Store) bindingsOut(sur domain.Surrogate) []*Binding {
	if o, ok := s.obj(sur); ok {
		return o.bindingsOut()
	}
	return nil
}

// with and without return copies of a published binding list.
func with(list []*Binding, b *Binding) []*Binding {
	return append(append(make([]*Binding, 0, len(list)+1), list...), b)
}

func without(list []*Binding, b *Binding) []*Binding {
	out := make([]*Binding, 0, len(list))
	for _, x := range list {
		if x != b {
			out = append(out, x)
		}
	}
	return out
}

// byRel finds the binding under a relationship type in an inheritor's list.
func byRel(list []*Binding, relType string) *Binding {
	for _, b := range list {
		if b.Rel.Name == relType {
			return b
		}
	}
	return nil
}

// relMapOf keys an inheritor's binding list by relationship type name.
func relMapOf(list []*Binding) map[string]*Binding {
	out := make(map[string]*Binding, len(list))
	for _, b := range list {
		out[b.Rel.Name] = b
	}
	return out
}

// BindingOf returns the inheritor's binding under a relationship type.
func (s *Store) BindingOf(inheritor domain.Surrogate, relType string) (*Binding, bool) {
	sh := s.shardOf(inheritor)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	b := s.bindingLocked(inheritor, relType)
	if b == nil {
		return nil, false
	}
	return b, true
}

// bindingLocked finds the inheritor's binding; callers hold at least one
// shard lock.
func (s *Store) bindingLocked(inheritor domain.Surrogate, relType string) *Binding {
	return byRel(s.bindingsIn(inheritor), relType)
}

// Acknowledge records that the inheritor side has adapted to the latest
// transmitter change: AcknowledgedSeq catches up with LastUpdateSeq on
// the binding object. It locks only the inheritor's shard; the resolved
// sequence value is journaled explicitly (op.Num), so replay reproduces
// the same acknowledgement even if a concurrent transmitter update lands
// next to it in the journal in either order.
func (s *Store) Acknowledge(relType string, inheritor domain.Surrogate) error {
	sh := s.shardOf(inheritor)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	b := s.bindingLocked(inheritor, relType)
	if b == nil {
		return fmt.Errorf("%w: %s in %s", ErrNotBound, inheritor, relType)
	}
	k, _ := b.book.live()
	ack := k.last
	seq := s.seq.Add(1)
	if b.acknowledge(seq, s.ceiling(), ack) {
		s.shardOf(b.Obj.sur).retained.Add(1)
	}
	s.markDirty(b.Obj.sur)
	s.emit(&oplog.Op{Kind: oplog.KindAcknowledge, Name: relType, Sur: inheritor, Num: ack, Seq: seq})
	return nil
}

// AcknowledgeAt applies a journaled acknowledgement: AcknowledgedSeq is
// raised to at least ack, as op sequence opSeq (0 for legacy journals
// that did not record one). Recovery uses it to replay Acknowledge ops
// with the value they resolved to live.
func (s *Store) AcknowledgeAt(relType string, inheritor domain.Surrogate, ack int64, opSeq uint64) error {
	sh := s.shardOf(inheritor)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	b := s.bindingLocked(inheritor, relType)
	if b == nil {
		return fmt.Errorf("%w: %s in %s", ErrNotBound, inheritor, relType)
	}
	if b.acknowledge(opSeq, s.ceiling(), ack) {
		s.shardOf(b.Obj.sur).retained.Add(1)
	}
	s.markDirty(b.Obj.sur)
	return nil
}

// TransmitterOf resolves the transmitter an inheritor is bound to, or 0.
func (s *Store) TransmitterOf(inheritor domain.Surrogate, relType string) domain.Surrogate {
	sh := s.shardOf(inheritor)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if b := s.bindingLocked(inheritor, relType); b != nil {
		return b.Transmitter
	}
	return 0
}
