package object

// Multi-version concurrency control: one copy-on-write version chain type.
//
// Every mutable slot that a snapshot reader may traverse — attribute
// slots, per-object modification sequences, binding bookkeeping, the
// objects' binding lists and class membership — is a vchain: a list of immutable
// nodes stamped with the operation's global sequence number
// (oplog.Op.Seq). The head IS the live value, so a live read loads the
// head and nothing else stores it. A Snapshot pins a store-wide sequence
// point S; a reader at S walks from the head to the first node with
// at <= S, lock-free, while writers keep prepending new heads.
//
// Chains stay short without pins: a writer consults the pin ceiling (the
// highest pinned sequence) and *replaces* the head when no pin can still
// read it (head.at > ceiling), reusing the head's tail — so with zero pins
// every chain is exactly one node. With k live pins a slot accumulates at
// most one retained node per distinct pin sequence. A low-water-mark sweep
// (SweepVersions) trims retained nodes and unlinks deleted objects once
// the pins that needed them release.
//
// Correctness of "first node with at <= S": a pin's sequence S is read
// under all shard read locks, so every operation is entirely before the
// pin (seq <= S, fully published) or entirely after (seq > S). Chains may
// interleave nodes of commuting cross-shard operations out of sequence
// order, but all nodes a reader at S skips were published after its pin
// and all nodes at or below its stop point were published before it.
// Store-exclusive operations learn their sequence only at commit, so they
// publish class-membership heads stamped pending (above every pin) and
// re-stamp them in commitClassHist: an uncommitted head is never returned
// by at(S) for any pin. New objects follow the same protocol: they enter
// the shard's object table with createdSeq pending and publishObj
// re-stamps it, so the live store (which reads at liveSeq, at or above
// pending) sees them at once and no pin does before the commit.

import (
	"math"
	"sync"
	"sync/atomic"

	"cadcam/internal/domain"
)

// pending stamps a head published by a running store-exclusive operation
// before its sequence is known; no pin reads it.
const pending = math.MaxUint64

// vnode is one version of a slot. Nodes are immutable once published
// (through the chain head), so readers walk them without synchronization;
// the sweep cuts a tail by republishing a copy of the readable prefix.
type vnode[T any] struct {
	at   uint64
	v    T
	prev *vnode[T]
}

// vchain is a version chain whose head is the live value.
type vchain[T any] struct {
	head atomic.Pointer[vnode[T]]
}

// live returns the head value; ok is false on an empty chain.
func (c *vchain[T]) live() (v T, ok bool) {
	if h := c.head.Load(); h != nil {
		return h.v, true
	}
	return v, false
}

// node returns the newest node visible at sequence point s, or nil if the
// slot held nothing at s. Lock-free.
func (c *vchain[T]) node(s uint64) *vnode[T] {
	for n := c.head.Load(); n != nil; n = n.prev {
		if n.at <= s {
			return n
		}
	}
	return nil
}

// at returns the value visible at sequence point s.
func (c *vchain[T]) at(s uint64) (v T, ok bool) {
	if n := c.node(s); n != nil {
		return n.v, true
	}
	return v, false
}

// link attaches n on top of the previous head old under the ceiling rule:
// old stays on the chain only if a pin may still read it (old.at <= ceil)
// and n supersedes it (old.at < n.at); otherwise n reuses old's tail.
// Reports whether the chain grew. This is the only place the rule lives.
func (n *vnode[T]) link(old *vnode[T], ceil uint64) bool {
	switch {
	case old == nil:
		n.prev = nil
	case old.at <= ceil && old.at < n.at:
		n.prev = old
		return true
	default:
		n.prev = old.prev
	}
	return false
}

// put publishes v stamped at; ceil is the current pin ceiling.
func (c *vchain[T]) put(at uint64, v T, ceil uint64) bool {
	return c.push(&vnode[T]{at: at, v: v}, ceil, nil)
}

// apply publishes f(live value) stamped at.
func (c *vchain[T]) apply(at, ceil uint64, f func(T) T) bool {
	return c.push(&vnode[T]{at: at}, ceil, f)
}

// push publishes the unpublished node n, first deriving its value from
// the live one when f is set. It is a CAS loop, so pushes from writers
// holding different shard locks commute: each retry re-derives the value
// from the current head, and concurrent pushes reach the same final head
// in any order (binding bookkeeping depends on this).
func (c *vchain[T]) push(n *vnode[T], ceil uint64, f func(T) T) bool {
	for {
		h := c.head.Load()
		if f != nil {
			var old T
			if h != nil {
				old = h.v
			}
			n.v = f(old)
		}
		grew := n.link(h, ceil)
		if c.head.CompareAndSwap(h, n) {
			return grew
		}
	}
}

// commit re-stamps a pending head at seq and applies the ceiling rule to
// the node below it. Reports whether the chain grew.
func (c *vchain[T]) commit(seq, ceil uint64) bool {
	h := c.head.Load()
	if h == nil || h.at != pending {
		return false
	}
	n := &vnode[T]{at: seq, v: h.v}
	grew := n.link(h.prev, ceil)
	c.head.Store(n)
	return grew
}

// abort pops a pending head, restoring the committed one.
func (c *vchain[T]) abort() {
	if h := c.head.Load(); h != nil && h.at == pending {
		c.head.Store(h.prev)
	}
}

// trim cuts the chain below the newest node at or below low (every
// remaining pin has S >= low, so nothing deeper is reachable). Returns
// the non-head nodes that survive and the nodes cut. The cut republishes
// a copy of the surviving prefix, retrying if a commuting push moved the
// head meanwhile.
func (c *vchain[T]) trim(low uint64) (extras, rec uint64) {
	for {
		h := c.head.Load()
		if h == nil {
			return 0, 0
		}
		b := h
		for extras = 0; b.at > low && b.prev != nil; extras++ {
			b = b.prev
		}
		if b.at > low || b.prev == nil {
			return extras, 0
		}
		rec = 0
		for x := b.prev; x != nil; x = x.prev {
			rec++
		}
		if c.head.CompareAndSwap(h, copyTo(h, b)) {
			return extras, rec
		}
	}
}

// copyTo copies the nodes from n down to b, ending the copy at b.
func copyTo[T any](n, b *vnode[T]) *vnode[T] {
	c := &vnode[T]{at: n.at, v: n.v}
	if n != b {
		c.prev = copyTo(n.prev, b)
	}
	return c
}

// ---------------------------------------------------------------------------
// Slot kinds

// pushModSeq advances the object's modification sequence to seq.
func (o *Object) pushModSeq(seq, ceil uint64) bool {
	return o.mod.put(seq, struct{}{}, ceil)
}

// modAt returns the modification sequence visible at s (the value of a
// modSeq node is its stamp).
func (o *Object) modAt(s uint64) uint64 {
	if n := o.mod.node(s); n != nil {
		return n.at
	}
	return 0
}

// bookkeeping is the system bookkeeping of one inheritance binding, as
// absolutes (not deltas) so concurrent cross-shard pushes commute.
type bookkeeping struct {
	upd, last, ack int64
}

// noteUpdate records one permeable transmitter update at seq.
func (b *Binding) noteUpdate(seq, ceil uint64) bool {
	return b.book.apply(seq, ceil, func(k bookkeeping) bookkeeping {
		if int64(seq) > k.last {
			k.last = int64(seq)
		}
		k.upd++
		return k
	})
}

// acknowledge raises AcknowledgedSeq to at least ack, at op sequence seq.
func (b *Binding) acknowledge(seq, ceil uint64, ack int64) bool {
	return b.book.apply(seq, ceil, func(k bookkeeping) bookkeeping {
		if ack > k.ack {
			k.ack = ack
		}
		return k
	})
}

// membersAt returns the class membership visible at s. A class
// materialized after s has no node at or below s and reads empty, as does
// a nil class (an unbound or unmaterialized subclass).
func (c *Class) membersAt(s uint64) []domain.Surrogate {
	if c == nil {
		return nil
	}
	m, _ := c.members.at(s)
	return m
}

// touchClass records a class whose membership the running store-exclusive
// operation mutates (its head is pending); commitClassHist stamps it with
// the operation's sequence. Guarded by the all-shard lock (single
// mutator).
func (s *Store) touchClass(c *Class) {
	for _, t := range s.touched {
		if t == c {
			return
		}
	}
	s.touched = append(s.touched, c)
}

// commitClassHist commits the running operation's pending class heads and
// queued index maintenance at seq.
func (s *Store) commitClassHist(seq uint64) {
	if len(s.touched) != 0 {
		s.stepPoint("class-commit")
		ceil := s.ceiling()
		for _, c := range s.touched {
			if c.members.commit(seq, ceil) {
				s.mvcc.classRetained.Add(1)
			}
		}
		s.touched = s.touched[:0]
	}
	s.idxCommit(seq)
}

// abortClassTouches drops the pending heads of a rolled-back operation and
// the queued index maintenance with it. The only rollback (a failed
// where-restriction) touches a sub-relationship class, which lock-free
// live readers never traverse, so no reader holds the popped head.
func (s *Store) abortClassTouches() {
	for _, c := range s.touched {
		c.members.abort()
	}
	s.touched = s.touched[:0]
	s.idxAbort()
}

// stepPoint fires the test step hook, if any.
func (s *Store) stepPoint(name string) {
	if s.step != nil {
		s.step(name)
	}
}

// putObj enters a new object in its shard's table stamped created at at:
// pending for live creation, whose commit re-stamps it (publishObj), 0 for
// imported base state. The creating operation can look the object up at
// liveSeq at once; no pin sees it before the commit. Callers hold the
// owning shard's write lock.
func (s *Store) putObj(o *Object, at uint64) {
	o.createdSeq.Store(at)
	sh := s.shardOf(o.sur)
	sh.objs.store(s.slot(o.sur), o)
	sh.live++
}

// slot maps a surrogate to its slot in the owning shard's table.
func (s *Store) slot(sur domain.Surrogate) uint64 {
	return uint64(sur) / uint64(len(s.shards))
}

// publishObj stamps a newly created object with its creating sequence,
// making it visible to snapshots pinned from then on. Called at the
// operation's commit point, under the locks the creation ran under.
func (s *Store) publishObj(o *Object, seq uint64) {
	o.createdSeq.Store(seq)
}

// retireObj removes o from the live store at seq. While a pin may still
// read it, it stays in its slot stamped deleted until the sweep clears it;
// with no pin (or for the rollback of an unpublished object, seq == 0) the
// slot is cleared at once: nothing can read it and any later pin sees a
// higher sequence. Retiring a retired object is a no-op (deleting a
// binding's object dissolves the binding, which retires it first).
// Callers hold the store-exclusive lock.
func (s *Store) retireObj(o *Object, seq uint64) {
	if o.deletedSeq.Load() != 0 {
		return
	}
	sh := s.shardOf(o.sur)
	sh.live--
	o.deletedSeq.Store(seq)
	if seq == 0 || s.ceiling() == 0 {
		sh.objs.store(s.slot(o.sur), nil)
		return
	}
	sh.retained.Add(1)
}

// visibleAt reports whether the object existed at sequence point s. At
// liveSeq that is from creation (pending included) until deletion.
func (o *Object) visibleAt(s uint64) bool {
	if o.createdSeq.Load() > s {
		return false
	}
	d := o.deletedSeq.Load()
	return d == 0 || d > s
}

// ---------------------------------------------------------------------------
// Snapshot pins

// mvccState is the store's pin registry and GC bookkeeping.
type mvccState struct {
	mu   sync.Mutex
	pins map[*Snapshot]uint64

	// ceilA is the highest pinned sequence (0: none) — the write-side
	// "keep the old head" test. lowA is the lowest pinned sequence
	// (MaxUint64: none) — the sweep's low-water mark.
	ceilA atomic.Uint64
	lowA  atomic.Uint64

	taken    atomic.Uint64
	released atomic.Uint64

	gcMu          sync.Mutex // admits one sweep; TryLock paces overlapping triggers
	gcRuns        atomic.Uint64
	reclaimed     atomic.Uint64
	classRetained atomic.Uint64
	sweepStamp    atomic.Uint64 // retention counter total at the last sweep
	extraGauge    atomic.Uint64 // residual non-head version nodes at the last sweep
	deadGauge     atomic.Uint64 // residual dead (deleted but pinned) objects at the last sweep
}

func (m *mvccState) recalcLocked() {
	var ceil uint64
	low := uint64(math.MaxUint64)
	for _, s := range m.pins {
		if s > ceil {
			ceil = s
		}
		if s < low {
			low = s
		}
	}
	m.ceilA.Store(ceil)
	m.lowA.Store(low)
}

// ceiling returns the highest pinned sequence (0 when nothing is pinned).
// Writers consult it on every chain put; reads are a single atomic load.
func (s *Store) ceiling() uint64 { return s.mvcc.ceilA.Load() }

// lowWater returns the lowest pinned sequence (MaxUint64 when nothing is
// pinned): versions only a lower sequence point could read are garbage.
// The sweep reads it under each lock it holds: a pin registers under all
// shard and stripe locks, so it cannot slip in between the read and the
// trim of anything that lock guards.
func (s *Store) lowWater() uint64 { return s.mvcc.lowA.Load() }

// Snapshot is a pinned store-wide sequence point. All read methods
// traverse version chains lock-free at the pinned sequence; writers are
// never blocked by a live snapshot, they only retain old versions for it.
// Release the snapshot to let the sweep reclaim them.
type Snapshot struct {
	// View is the read surface at the pinned sequence point.
	View
	nextSur  uint64
	released atomic.Bool
}

// Snapshot pins the current sequence point. It briefly takes all shard
// read locks (the same order every writer uses), so the pin lands between
// operations: every op is entirely visible or entirely invisible.
func (s *Store) Snapshot() *Snapshot {
	s.rlockAll()
	sn := s.pinLocked()
	s.runlockAll()
	return sn
}

// Seq returns the pinned sequence point.
func (sn *Snapshot) Seq() uint64 { return sn.at }

// Release unpins the sequence point and, if no other pin remains,
// triggers a version sweep when retained garbage exists. A second Release
// is a no-op.
func (sn *Snapshot) Release() {
	if !sn.released.CompareAndSwap(false, true) {
		return
	}
	s := sn.s
	m := &s.mvcc
	m.mu.Lock()
	delete(m.pins, sn)
	m.released.Add(1)
	m.recalcLocked()
	remaining := len(m.pins)
	m.mu.Unlock()
	if remaining == 0 && s.retainedTotal() != m.sweepStamp.Load() {
		s.SweepVersions()
	}
}

func (s *Store) retainedTotal() uint64 {
	n := s.mvcc.classRetained.Load() + s.idxRetainedTotal()
	for i := range s.shards {
		n += s.shards[i].retained.Load()
	}
	return n
}

// MVCCStats reports the snapshot-pin and version-chain counters.
type MVCCStats struct {
	Pins          int64  `json:"pins"`           // live pins right now
	Taken         uint64 `json:"taken"`          // snapshots pinned, lifetime
	Released      uint64 `json:"released"`       // snapshots fully released, lifetime
	Retained      uint64 `json:"retained"`       // version nodes kept alive for a pin, lifetime
	Reclaimed     uint64 `json:"reclaimed"`      // nodes and dead objects freed by sweeps
	GCRuns        uint64 `json:"gc_runs"`        // completed sweeps
	ExtraVersions uint64 `json:"extra_versions"` // non-head version nodes left after the last sweep
	DeadObjects   uint64 `json:"dead_objects"`   // deleted-but-pinned objects left after the last sweep
	LowWater      uint64 `json:"low_water"`      // current sweep low-water mark (MaxUint64: no pins)
}

func (s *Store) mvccStats() MVCCStats {
	m := &s.mvcc
	m.mu.Lock()
	pins := int64(len(m.pins))
	m.mu.Unlock()
	return MVCCStats{
		Pins:          pins,
		Taken:         m.taken.Load(),
		Released:      m.released.Load(),
		Retained:      s.retainedTotal(),
		Reclaimed:     m.reclaimed.Load(),
		GCRuns:        m.gcRuns.Load(),
		ExtraVersions: m.extraGauge.Load(),
		DeadObjects:   m.deadGauge.Load(),
		LowWater:      m.lowA.Load(),
	}
}

// ---------------------------------------------------------------------------
// Version sweep (GC)

// sweepTally accumulates one sweep's counts.
type sweepTally struct{ extras, dead, rec uint64 }

// trimChain trims c to low into the tally and reports whether the head is
// the chain's only node and no pin can see past it — the slot then reads
// the same at every pin, so a caller may drop it when the head is empty.
func trimChain[T any](t *sweepTally, c *vchain[T], low uint64) (alone bool) {
	e, r := c.trim(low)
	t.extras += e
	t.rec += r
	h := c.head.Load()
	return e == 0 && h != nil && h.at <= low
}

// SweepVersions trims every version chain to the low-water mark over the
// live pins and unlinks deleted objects no pin can still see. With no
// pins it restores the single-version-per-slot steady state. It takes one
// shard, stripe or index-partition lock at a time (never the
// store-exclusive lock) and reads the low-water mark afresh under each,
// so a pin taken mid-sweep keeps everything it can read. Returns the
// number of reclaimed nodes/objects; 0 if another sweep is running.
func (s *Store) SweepVersions() uint64 {
	if !s.mvcc.gcMu.TryLock() {
		return 0
	}
	defer s.mvcc.gcMu.Unlock()
	stamp := s.retainedTotal()
	var t sweepTally
	for i := range s.shards {
		s.stepPoint("sweep-shard")
		sh := &s.shards[i]
		sh.mu.Lock()
		low := s.lowWater()
		sh.objs.each(func(j uint64, o *Object) {
			if d := o.deletedSeq.Load(); d != 0 {
				if d <= low {
					sh.objs.store(j, nil)
					t.rec++
					return
				}
				t.dead++
			}
			for i := range o.attrs {
				// A tombstone-only slot of a live object reads as absent:
				// empty it (attribute slots change only under this lock).
				c := &o.attrs[i]
				if trimChain(&t, c, low) && c.head.Load().v == nil && o.deletedSeq.Load() == 0 {
					c.head.Store(nil)
					t.rec++
				}
			}
			trimChain(&t, &o.mod, low)
			trimChain(&t, &o.bindIn, low)
			trimChain(&t, &o.bindOut, low)
			if o.binding != nil {
				trimChain(&t, &o.binding.book, low)
			}
			for _, m := range [...]map[string]*Class{o.subMap(), o.relMap()} {
				for _, c := range m {
					trimChain(&t, &c.members, low)
				}
			}
		})
		sh.mu.Unlock()
	}
	for i := range s.stripes {
		s.stepPoint("sweep-stripe")
		st := &s.stripes[i]
		st.mu.Lock()
		low := s.lowWater()
		for _, c := range st.classMap() {
			trimChain(&t, &c.members, low)
		}
		st.mu.Unlock()
	}
	t.rec += s.idxSweep()
	m := &s.mvcc
	m.extraGauge.Store(t.extras)
	m.deadGauge.Store(t.dead)
	m.reclaimed.Add(t.rec)
	m.gcRuns.Add(1)
	m.sweepStamp.Store(stamp)
	return t.rec
}
