package object

import (
	"fmt"
	"hash/maphash"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"cadcam/internal/domain"
	"cadcam/internal/fault"
	"cadcam/internal/oplog"
	"cadcam/internal/schema"
)

// fpPreJournal crashes between the shard mutation (already applied in
// memory) and the journal append. Creation and topology ops emit while
// holding every lock they mutated under, so no concurrent writer can
// journal an op depending on the lost one: recovery always sees a
// dependency-closed prefix. Exit-kind armings only — emit has no error
// channel, so an error action is evaluated and discarded.
var fpPreJournal = fault.New("object/pre-journal")

// DeletePolicy controls what deleting a transmitter does to its bound
// inheritors. The paper leaves this open; both behaviours are useful.
type DeletePolicy uint8

const (
	// DeleteRestrict refuses to delete a transmitter with live inheritors.
	DeleteRestrict DeletePolicy = iota
	// DeleteUnbind detaches inheritors (they fall back to type-level
	// inheritance: structure without values) and flags them for
	// adaptation via the update hook.
	DeleteUnbind
)

// UpdateEvent describes a permeable transmitter change observed by a
// binding. Events are collected inside the critical section (so their
// order matches the journal) and delivered after the locks are released;
// hooks may therefore call back into the store, including the mutation
// API.
type UpdateEvent struct {
	Rel         string // inher-rel-type name
	Binding     domain.Surrogate
	Transmitter domain.Surrogate
	Inheritor   domain.Surrogate
	Member      string // attribute or subclass that changed
	Seq         uint64
	// Unbound marks the transmitter-side deletion under DeleteUnbind.
	Unbound bool
}

// UpdateHook observes permeable transmitter updates (the trigger
// mechanism the paper defers to future work, §2/§4.1). Hooks run after
// the emitting operation has released its locks, in store-sequence order,
// on the goroutine that performed the mutation (or one racing with it);
// they are allowed to call store methods.
type UpdateHook func(UpdateEvent)

// DefaultShards is the shard count used when none is configured.
const DefaultShards = 16

// classStripes is the fixed stripe count for database-level classes.
const classStripes = 16

// shard owns a surrogate-hashed partition of the store: its object table
// (each object carrying its own version chains, binding lists and
// memoized resolution routes) and the route-cache counters of its
// surrogates.
//
// The object table is the only store of the shard's objects. Live reads
// and snapshot reads both look objects up in it, at a sequence point: the
// live store is the point liveSeq, where an object is visible from its
// creation (still pending inside the creating operation) until its
// deletion. Deleted objects stay in their slots while a pin may still
// read them.
//
// Locking protocol (the shard-ordering invariant):
//
//   - Topology — the object table, binding lists, participant index,
//     class membership and parent links — is only mutated while holding
//     ALL shard write locks (and all class stripes), acquired in
//     ascending index order. Consequently, holding any ONE shard lock
//     (read or write) freezes topology store-wide, so single-shard
//     operations may follow inheritance chains through other shards
//     without further locking. Snapshot readers take no lock: they read
//     the table and the version chains at their pin.
//   - Per-object data (attribute slots, modSeq) is mutated under the
//     owning object's shard write lock only; binding bookkeeping uses
//     commuting atomics and may be touched under any shard lock.
//
// This keeps the hot single-shard paths (SetAttr, reads) on one mutex
// while multi-shard structural operations serialize deterministically.
type shard struct {
	mu sync.RWMutex

	objs objTable
	// live counts the objects visible at liveSeq; guarded by mu.
	live int
	// relsByParticipant indexes relationship objects by participants owned
	// by this shard, for cascading deletes.
	relsByParticipant map[domain.Surrogate]map[domain.Surrogate]bool

	// dirty counts logical mutations of durable state owned by this shard:
	// object and binding creation or removal, attribute writes, and binding
	// bookkeeping advances. The incremental checkpointer compares it
	// against the value captured at the last committed checkpoint to decide
	// whether the shard's snapshot segment must be re-encoded. It plays no
	// part in route invalidation. It is an atomic because cross-shard effects
	// (binding bookkeeping, acknowledgements) mutate objects owned by other
	// shards while holding only one shard lock.
	dirty atomic.Uint64

	// retained counts version nodes and dead objects kept alive for pins;
	// the sweep pacing compares its total against the last sweep.
	retained atomic.Uint64

	hits, misses, invalidations atomic.Uint64

	_ [64]byte // avoid false sharing between neighbouring shards
}

// chunkBits sizes the object table's chunks (512 slots, 4 KiB).
const chunkBits = 9

type objChunk [1 << chunkBits]atomic.Pointer[Object]

// objTable maps a shard's slot numbers (surrogate / shard count) to
// objects. Surrogates are dense and sequential, so it is a copy-on-write
// directory of fixed-size chunks of atomic slots: a lookup is two loads
// and an index. Chunks from maxDenseChunks on live in the copy-on-write
// far map, so a surrogate far past the rest costs one chunk, not a
// directory reaching it. Writers hold the shard's write lock.
type objTable struct {
	dir atomic.Pointer[[]*objChunk]
	far atomic.Pointer[map[uint64]*objChunk]
}

// maxDenseChunks bounds the directory at 512 KiB a shard: 2^25 slots.
const maxDenseChunks = 1 << 16

// chunk returns chunk c, or nil.
func (t *objTable) chunk(c uint64) *objChunk {
	if d := t.dir.Load(); d != nil && c < uint64(len(*d)) {
		return (*d)[c]
	}
	if f := t.far.Load(); f != nil {
		return (*f)[c]
	}
	return nil
}

// load returns the object in slot i, or nil.
func (t *objTable) load(i uint64) *Object {
	if c := t.chunk(i >> chunkBits); c != nil {
		return c[i&(1<<chunkBits-1)].Load()
	}
	return nil
}

// store sets slot i (nil clears it). A missing chunk is added by
// publishing a grown copy of the directory or the far map; published
// ones are never written.
func (t *objTable) store(i uint64, o *Object) {
	c := i >> chunkBits
	ch := t.chunk(c)
	if ch == nil {
		if o == nil {
			return
		}
		ch = new(objChunk)
		if c < maxDenseChunks {
			var d []*objChunk
			if p := t.dir.Load(); p != nil {
				d = *p
			}
			next := make([]*objChunk, max(uint64(len(d)), c+1))
			copy(next, d)
			next[c] = ch
			t.dir.Store(&next)
		} else {
			next := map[uint64]*objChunk{c: ch}
			if f := t.far.Load(); f != nil {
				maps.Copy(next, *f)
			}
			t.far.Store(&next)
		}
	}
	ch[i&(1<<chunkBits-1)].Store(o)
}

// rows lists the numbers of the allocated chunks, ascending.
func (t *objTable) rows() []uint64 {
	var out []uint64
	if p := t.dir.Load(); p != nil {
		for c, ch := range *p {
			if ch != nil {
				out = append(out, uint64(c))
			}
		}
	}
	if f := t.far.Load(); f != nil {
		n := len(out)
		for c := range *f {
			out = append(out, c)
		}
		slices.Sort(out[n:])
	}
	return out
}

// each calls f on every occupied slot in ascending order. It visits the
// allocated chunks only, so it costs the slots held, not the surrogate
// range. Lock-free like a lookup; f may clear the slot it is given.
func (t *objTable) each(f func(i uint64, o *Object)) {
	for _, c := range t.rows() {
		ch := t.chunk(c)
		for j := range ch {
			if o := ch[j].Load(); o != nil {
				f(c<<chunkBits|uint64(j), o)
			}
		}
	}
}

// walk calls f on every object in the shard tables, visible or not, in
// ascending surrogate order, stopping at the first error. Slot i of shard
// k holds surrogate i*len(shards)+k, so chunk rows go outermost, slots
// next and shards innermost; only rows some shard has allocated are
// visited, so the walk costs the allocated slots, not the surrogate
// range. Lock-free like a lookup.
func (s *Store) walk(f func(*Object) error) error {
	var rows []uint64
	for k := range s.shards {
		rows = append(rows, s.shards[k].objs.rows()...)
	}
	slices.Sort(rows)
	row := make([]*objChunk, len(s.shards))
	for _, c := range slices.Compact(rows) {
		for k := range s.shards {
			row[k] = s.shards[k].objs.chunk(c)
		}
		for j := 0; j < 1<<chunkBits; j++ {
			for _, ch := range row {
				if ch == nil {
					continue
				}
				if o := ch[j].Load(); o != nil {
					if err := f(o); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// classStripe owns a name-hashed partition of the database-level classes.
// Stripe locks order after all shard locks: multi-shard operations take
// shards ascending, then stripes ascending; DefineClass and class reads
// take only the stripe.
//
// The stripe's class map is copy-on-write: DefineClass publishes a copy
// under the stripe lock, and classes are never removed, so snapshot
// readers load it without a lock and gate each class by its createdSeq.
type classStripe struct {
	mu      sync.RWMutex
	classes atomic.Pointer[map[string]*Class]
	_       [64]byte
}

// classMap returns the stripe's published class map (immutable).
func (st *classStripe) classMap() map[string]*Class {
	if p := st.classes.Load(); p != nil {
		return *p
	}
	return nil
}

// putClass publishes a copy of the class map with c added. Callers hold
// the stripe's write lock.
func (st *classStripe) putClass(c *Class) {
	old := st.classMap()
	m := make(map[string]*Class, len(old)+1)
	for k, v := range old {
		m[k] = v
	}
	m[c.name] = c
	st.classes.Store(&m)
}

// hookQueue decouples UpdateHook delivery from the store critical
// sections: events enqueue under the shard locks (fixing their order) and
// drain after release. dispatchMu admits one drainer at a time; an
// enqueuer that fails to grab it leaves its events to the current
// drainer, which loops until the queue stays empty.
type hookQueue struct {
	mu         sync.Mutex
	q          []UpdateEvent
	dispatchMu sync.Mutex
}

// Store is the object base: all objects, classes and bindings of one
// database, typed by a validated schema catalog. It is partitioned into
// surrogate-hashed shards; see the shard type for the locking protocol.
type Store struct {
	// View is the live read surface: the store read at liveSeq.
	View

	cat *schema.Catalog
	// layouts maps every type name of the catalog to its object layout.
	layouts map[string]*layout

	shards  []shard
	stripes [classStripes]classStripe
	seed    maphash.Seed

	// nextSur and seq are global atomics. seq is consumed exactly once per
	// sequenced mutation, inside the owning shard's critical section, and
	// journaled on the op (oplog.Op.Seq) so replay reproduces the same
	// assignment even when non-conflicting ops commit to the journal out
	// of counter order.
	nextSur atomic.Uint64
	seq     atomic.Uint64

	// deletePolicy is guarded by the all-shard write lock.
	deletePolicy DeletePolicy

	// hooks is swapped copy-on-write; dispatchers read it lock-free.
	hooks atomic.Pointer[[]UpdateHook]
	hookQ hookQueue

	// journal, when set, receives every successful mutation while the
	// emitting operation still holds its shard locks, so conflicting ops
	// appear in serialization order; it must not call back in.
	journal func(*oplog.Op)
	// closed refuses every mutation once set (Close).
	closed bool

	// guard, when set, is consulted before any mutation of an object; a
	// non-nil result vetoes the mutation. The database facade uses it to
	// write-protect frozen versions.
	guard func(sur domain.Surrogate) error

	// mvcc is the snapshot-pin registry and version-GC state (mvcc.go).
	mvcc mvccState
	// touched collects classes whose membership the running
	// store-exclusive operation mutates; commitClassHist stamps their
	// pending heads with the operation's sequence. All-shard lock only.
	touched []*Class
	// step, when set, is called at named points inside operations and the
	// sweep (see stepPoint). Tests use it to interleave readers with a
	// half-done operation; it is nil otherwise.
	step func(string)

	// indexes is the copy-on-write secondary-index registry (index.go).
	// Readers (the SetAttr hot path, probes) load it with one atomic read;
	// nil means no index was ever created and maintenance costs nothing.
	indexes atomic.Pointer[idxRegistry]
	// idxPend and idxRecompute queue index maintenance of the running
	// store-exclusive operation until its commit sequence is known
	// (idxCommit / idxAbort). All-shard lock only.
	idxPend      []idxPend
	idxRecompute map[domain.Surrogate]bool
}

// NewStore creates an empty store over a validated catalog with the
// default shard count.
func NewStore(cat *schema.Catalog) (*Store, error) {
	return NewStoreShards(cat, DefaultShards)
}

// NewStoreShards creates an empty store with the given number of
// surrogate-hashed shards (values < 1 fall back to the default). The
// shard count does not affect logical state, snapshots or journals — only
// how concurrent mutations contend.
func NewStoreShards(cat *schema.Catalog, shards int) (*Store, error) {
	if !cat.Validated() {
		return nil, fmt.Errorf("object: catalog must be validated")
	}
	if shards < 1 {
		shards = DefaultShards
	}
	s := &Store{cat: cat, layouts: newLayouts(cat), shards: make([]shard, shards), seed: maphash.MakeSeed()}
	s.View = View{s: s, at: liveSeq}
	s.mvcc.lowA.Store(^uint64(0)) // no pins: low-water mark at infinity
	for i := range s.shards {
		sh := &s.shards[i]
		sh.relsByParticipant = make(map[domain.Surrogate]map[domain.Surrogate]bool)
	}
	hooks := []UpdateHook(nil)
	s.hooks.Store(&hooks)
	return s, nil
}

// Shards reports the shard count.
func (s *Store) Shards() int { return len(s.shards) }

// shardIndex maps a surrogate to its owning shard. Surrogates are dense
// and sequential, so a plain modulo spreads them evenly.
func (s *Store) shardIndex(sur domain.Surrogate) int {
	return int(uint64(sur) % uint64(len(s.shards)))
}

func (s *Store) shardOf(sur domain.Surrogate) *shard {
	return &s.shards[s.shardIndex(sur)]
}

// ShardIndex reports which shard owns a surrogate. Recovery uses it to
// partition journal records for parallel replay; the partitioning must
// match the store's own routing or per-shard replay order would not be
// the serialization order.
func (s *Store) ShardIndex(sur domain.Surrogate) int { return s.shardIndex(sur) }

// markDirty records a durable-state mutation of the object owning sur for
// incremental checkpointing. Callers hold at least one shard lock (not
// necessarily the owning shard's: binding bookkeeping and
// acknowledgements advance objects across shards), so the counter is an
// atomic.
func (s *Store) markDirty(sur domain.Surrogate) {
	s.shards[s.shardIndex(sur)].dirty.Add(1)
}

// stripeOf maps a class name to its stripe.
func (s *Store) stripeOf(name string) *classStripe {
	return &s.stripes[maphash.String(s.seed, name)%classStripes]
}

// lockAll acquires every shard write lock and every class stripe write
// lock in ascending order — the store-wide exclusive section used by all
// structural and multi-shard operations. Never acquire a shard or stripe
// lock while already holding a later-ordered one.
func (s *Store) lockAll() {
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	for i := range s.stripes {
		s.stripes[i].mu.Lock()
	}
}

func (s *Store) unlockAll() {
	for i := len(s.stripes) - 1; i >= 0; i-- {
		s.stripes[i].mu.Unlock()
	}
	for i := len(s.shards) - 1; i >= 0; i-- {
		s.shards[i].mu.Unlock()
	}
}

// rlockAll acquires every shard and stripe read lock in ascending order:
// a store-wide consistent read view (snapshots, invariant checks).
func (s *Store) rlockAll() {
	for i := range s.shards {
		s.shards[i].mu.RLock()
	}
	for i := range s.stripes {
		s.stripes[i].mu.RLock()
	}
}

func (s *Store) runlockAll() {
	for i := len(s.stripes) - 1; i >= 0; i-- {
		s.stripes[i].mu.RUnlock()
	}
	for i := len(s.shards) - 1; i >= 0; i-- {
		s.shards[i].mu.RUnlock()
	}
}

// lockOpen takes the store-exclusive lock for a mutation, or returns
// ErrClosed, holding nothing, once the store is closed.
func (s *Store) lockOpen() error {
	s.lockAll()
	if s.closed {
		s.unlockAll()
		return ErrClosed
	}
	return nil
}

// Close detaches the journal and closes the store: every later mutation
// fails with ErrClosed (lockOpen, guardLocked, or a check under its own
// shard or stripe lock, which Close's store-exclusive lock excludes), so
// no write lands that no journal records. Reads and pins go on working.
func (s *Store) Close() {
	s.lockAll()
	defer s.unlockAll()
	s.closed, s.journal = true, nil
}

// SetDeletePolicy selects the transmitter delete behaviour.
func (s *Store) SetDeletePolicy(p DeletePolicy) {
	s.lockAll()
	defer s.unlockAll()
	s.deletePolicy = p
	s.emit(&oplog.Op{Kind: oplog.KindDeletePolicy, Num: int64(p)})
}

// SetJournal installs the journal callback. It is invoked under the
// emitting operation's shard locks after every successful mutation, in
// serialization order for conflicting ops; it must not call store
// methods. Pass nil to disable journaling.
func (s *Store) SetJournal(fn func(*oplog.Op)) {
	s.lockAll()
	defer s.unlockAll()
	s.journal = fn
}

func (s *Store) emit(op *oplog.Op) {
	_ = fpPreJournal.Hit()
	if s.journal != nil {
		s.journal(op)
	}
}

// SetWriteGuard installs a veto consulted before mutations of an object
// (attribute writes, subobject/relationship insertion, binding changes,
// deletion). Pass nil to disable.
func (s *Store) SetWriteGuard(g func(sur domain.Surrogate) error) {
	s.lockAll()
	defer s.unlockAll()
	s.guard = g
}

// guardLocked vetoes a mutation of sur before it changes anything.
func (s *Store) guardLocked(sur domain.Surrogate) error {
	if s.closed {
		return ErrClosed
	}
	if s.guard != nil {
		return s.guard(sur)
	}
	return nil
}

// OnTransmitterUpdate registers a hook. Hooks run after the triggering
// operation releases its locks and may call back into the store.
func (s *Store) OnTransmitterUpdate(h UpdateHook) {
	s.lockAll()
	defer s.unlockAll()
	next := append(append([]UpdateHook(nil), *s.hooks.Load()...), h)
	s.hooks.Store(&next)
}

// queueEvents appends events to the dispatch queue. Called while still
// holding the emitting operation's locks, so queue order matches the
// serialization (and journal) order of conflicting operations.
func (s *Store) queueEvents(evs []UpdateEvent) {
	s.hookQ.mu.Lock()
	s.hookQ.q = append(s.hookQ.q, evs...)
	s.hookQ.mu.Unlock()
}

// dispatchEvents drains the hook queue after the caller released its
// locks. Only one drainer runs at a time; if another goroutine is already
// draining it will pick up our events (it re-checks the queue after every
// batch), so failing the TryLock never strands events.
func (s *Store) dispatchEvents() {
	for {
		if !s.hookQ.dispatchMu.TryLock() {
			return
		}
		s.hookQ.mu.Lock()
		batch := s.hookQ.q
		s.hookQ.q = nil
		s.hookQ.mu.Unlock()
		if len(batch) == 0 {
			s.hookQ.dispatchMu.Unlock()
			return
		}
		hooks := *s.hooks.Load()
		for _, ev := range batch {
			for _, h := range hooks {
				h(ev)
			}
		}
		s.hookQ.dispatchMu.Unlock()
	}
}

// Seq returns the current logical update sequence number.
func (s *Store) Seq() uint64 { return s.seq.Load() }

// PrimeReplay positions the sequence and surrogate counters just below
// the values a journaled op recorded, so re-executing it reproduces the
// original assignment even when concurrent writers journaled ops out of
// counter order. Only the single-threaded recovery path may call it.
func (s *Store) PrimeReplay(seq uint64, out domain.Surrogate) {
	if seq > 0 {
		s.seq.Store(seq - 1)
	}
	if out != 0 {
		s.nextSur.Store(uint64(out) - 1)
	}
}

// FinishReplay restores the counters to at least the maxima observed
// while replaying (gaps from ops that consumed a value but failed are
// harmless: nothing references a burned surrogate or sequence).
func (s *Store) FinishReplay(maxSeq uint64, maxSur domain.Surrogate) {
	if s.seq.Load() < maxSeq {
		s.seq.Store(maxSeq)
	}
	if s.nextSur.Load() < uint64(maxSur) {
		s.nextSur.Store(uint64(maxSur))
	}
}

// DefineClass creates a database-level class holding objects of the given
// type ("" = unrestricted). Several classes may hold objects of the same
// type (§3). It locks only the class's stripe: class creation cannot
// change any memoized resolution route.
func (s *Store) DefineClass(name, elemType string) error {
	if name == "" {
		return fmt.Errorf("object: class needs a name")
	}
	st := s.stripeOf(name)
	st.mu.Lock()
	defer st.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, dup := st.classMap()[name]; dup {
		return fmt.Errorf("object: duplicate class %q", name)
	}
	if elemType != "" {
		if _, ok := s.cat.ObjectType(elemType); !ok {
			return fmt.Errorf("%w: %q", ErrNoSuchType, elemType)
		}
	}
	c := newClass(name, elemType)
	seq := s.seq.Add(1)
	c.createdSeq = seq
	st.putClass(c)
	s.emit(&oplog.Op{Kind: oplog.KindDefineClass, Name: name, Name2: elemType, Seq: seq})
	return nil
}

// NewObject creates a top-level object of the named type, optionally
// inserting it into a database-level class. Creation inserts into the
// topology maps, so it runs store-wide exclusive.
func (s *Store) NewObject(typeName, className string) (domain.Surrogate, error) {
	if err := s.lockOpen(); err != nil {
		return 0, err
	}
	defer s.unlockAll()
	t, ok := s.cat.ObjectType(typeName)
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoSuchType, typeName)
	}
	var cls *Class
	if className != "" {
		cls, ok = s.class(className)
		if !ok {
			return 0, fmt.Errorf("%w: %q", ErrNoSuchClass, className)
		}
		if cls.elemType != "" && cls.elemType != typeName {
			return 0, fmt.Errorf("%w: class %q holds %q, not %q", ErrTypeMismatch, className, cls.elemType, typeName)
		}
	}
	o := s.newObjectLocked(t)
	if cls != nil {
		o.ownerClass = cls
		s.classAdd(cls, o.sur)
	}
	seq := s.seq.Add(1)
	s.publishObj(o, seq)
	s.commitClassHist(seq)
	s.emit(&oplog.Op{Kind: oplog.KindNewObject, Name: typeName, Name2: className, Out: o.sur, Seq: seq})
	return o.sur, nil
}

// NewSubobject creates a subobject in the named local subclass of parent.
// The member type comes from the subclass declaration; subobjects live
// and die with the parent (§3).
func (s *Store) NewSubobject(parent domain.Surrogate, subclass string) (domain.Surrogate, error) {
	s.lockAll()
	dispatch, sur, err := func() (bool, domain.Surrogate, error) {
		po, ok := s.obj(parent)
		if !ok {
			return false, 0, noObject(parent)
		}
		if err := s.guardLocked(parent); err != nil {
			return false, 0, err
		}
		sd, cls, err := s.subclassOf(po, subclass)
		if err != nil {
			return false, 0, err
		}
		if sd.Inherited() {
			return false, 0, fmt.Errorf("%w: subclass %q is inherited from %s and read-only here",
				ErrInheritedAttribute, subclass, sd.Source)
		}
		mt, ok := s.cat.ObjectType(sd.ElemType)
		if !ok {
			return false, 0, fmt.Errorf("%w: %q", ErrNoSuchType, sd.ElemType)
		}
		o := s.newObjectLocked(mt)
		o.parent = parent
		o.parentSub = subclass
		s.classAdd(cls, o.sur)
		seq := s.seq.Add(1)
		s.publishObj(o, seq)
		s.commitClassHist(seq)
		po.pushModSeq(seq, s.ceiling())
		s.markDirty(parent)
		// Gaining a member is a visible change of the subclass: inheritors of
		// the parent (e.g. implementations of an interface gaining a pin) are
		// informed through their binding bookkeeping.
		n := notifier{s: s, seq: seq}
		n.notify(po, subclass)
		s.emit(&oplog.Op{Kind: oplog.KindNewSubobject, Sur: parent, Name: subclass, Out: o.sur, Seq: seq})
		return n.queue(), o.sur, nil
	}()
	s.unlockAll()
	if dispatch {
		s.dispatchEvents()
	}
	return sur, err
}

// subclassOf resolves a subclass declaration and its materialized class on
// an object, creating the class lazily for own (non-inherited) subclasses.
// Callers hold all shard locks (materialization mutates topology).
func (s *Store) subclassOf(o *Object, name string) (*schema.EffSubclass, *Class, error) {
	eff, err := s.effectiveLocked(o)
	if err != nil {
		return nil, nil, err
	}
	sd, ok := eff.SubclassByName(name)
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q has no subclass %q", ErrNoSuchClass, o.lay.name, name)
	}
	if sd.Inherited() {
		return sd, nil, nil
	}
	cls, ok := o.subMap()[name]
	if !ok {
		cls = newClass(name, sd.ElemType)
		o.putSub(name, cls)
	}
	return sd, cls, nil
}

func (s *Store) effectiveLocked(o *Object) (*schema.EffectiveType, error) {
	if o.lay.isRel {
		return nil, fmt.Errorf("%w: %q is a relationship type", ErrNoSuchType, o.lay.name)
	}
	return o.lay.eff, nil
}

func (s *Store) newObjectLocked(t *schema.ObjectType) *Object {
	sur := domain.Surrogate(s.nextSur.Add(1))
	o := s.layouts[t.Name].newObject(sur)
	s.putObj(o, pending)
	s.markDirty(sur)
	return o
}

// Len reports the number of live objects (including relationship objects).
func (s *Store) Len() int {
	s.rlockAll()
	defer s.runlockAll()
	n := 0
	for i := range s.shards {
		n += s.shards[i].live
	}
	return n
}
