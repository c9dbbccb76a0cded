package object

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"cadcam/internal/domain"
	"cadcam/internal/oplog"
)

// Errors of the index layer.
var (
	// ErrNoSuchIndex reports an index name that is not defined.
	ErrNoSuchIndex = errors.New("object: no such index")
	// ErrIndexExists reports a duplicate index name.
	ErrIndexExists = errors.New("object: index already exists")
)

// ---- keys ----

// ikey kinds. Numbers collapse Int and Rl into one numeric key space so the
// index reproduces domain.Compare's cross-numeric equality (Int(3) = Rl(3)).
const (
	ikNum  = 1
	ikStr  = 2
	ikSym  = 3
	ikBool = 4
)

// ikey is the normalized index key of a scalar attribute value. Keys of
// different kinds never compare (mirroring domain.Compare, which errors on
// mixed kinds — such rows never satisfy the predicate either way); within a
// kind, ordering matches domain.Compare.
type ikey struct {
	kind uint8
	num  float64
	str  string
}

// indexKey normalizes a value into its index key. Null, structured values
// (sets, lists, records, matrices), references and NaN reals are not
// indexed: the probe reports them absent, exactly as a comparison predicate
// rejects them.
func indexKey(v domain.Value) (ikey, bool) {
	switch x := v.(type) {
	case domain.Int:
		return ikey{kind: ikNum, num: float64(x)}, true
	case domain.Rl:
		if math.IsNaN(float64(x)) {
			return ikey{}, false // NaN breaks map-key equality; keep it out
		}
		return ikey{kind: ikNum, num: float64(x)}, true
	case domain.Str:
		return ikey{kind: ikStr, str: string(x)}, true
	case domain.Sym:
		return ikey{kind: ikSym, str: string(x)}, true
	case domain.Bool:
		if x {
			return ikey{kind: ikBool, num: 1}, true
		}
		return ikey{kind: ikBool, num: 0}, true
	}
	return ikey{}, false
}

// inRange reports whether k lies within [lo, hi] (either bound may be
// absent). Bounds are always treated inclusively: the probe returns a
// superset of the matching rows and the planner re-applies the full
// predicate, so widening strict bounds costs a few candidates but can never
// lose a row (large Int64 keys collapse onto neighbouring float64 values;
// a strict float comparison could then exclude a true match).
func (k ikey) inRange(lo, hi *ikey) bool {
	if lo != nil {
		if k.kind != lo.kind || k.less(*lo) {
			return false
		}
	}
	if hi != nil {
		if k.kind != hi.kind || hi.less(k) {
			return false
		}
	}
	return true
}

// less orders keys of the same kind like domain.Compare.
func (k ikey) less(o ikey) bool {
	switch k.kind {
	case ikStr, ikSym:
		return k.str < o.str
	default:
		return k.num < o.num
	}
}

// ---- postings ----

// postNode is one version interval of an index posting: object sur carried
// key k from sequence added until sequence removed (0 = still live). Like
// vchain nodes, superseded intervals stay linked while a pinned snapshot
// could read them and are trimmed by SweepVersions. All access is
// under the owning idxPart's mutex.
type postNode struct {
	added   uint64
	removed uint64
	prev    *postNode
}

// idxPart is one partition of an index's postings, aligned with the store's
// surrogate-hashed shards so concurrent writers on different shards
// maintain disjoint partitions. buckets maps key -> sur -> newest interval;
// cur maps sur -> its live key (the O(1) handle for replacing a posting on
// overwrite).
type idxPart struct {
	mu      sync.Mutex
	buckets map[ikey]map[domain.Surrogate]*postNode
	cur     map[domain.Surrogate]ikey
	_       [64]byte // keep neighbouring partitions off one cache line
}

// attrIndex is a secondary index over one attribute of one database-level
// class, inherited values included. createdSeq/droppedSeq bound the
// sequence window in which the index was maintained: a snapshot may only be
// served by an index that covers its pin sequence.
type attrIndex struct {
	name       string
	className  string
	attrName   string
	cls        *Class
	createdSeq uint64
	// droppedSeq is atomic: DropIndex stamps it under the all-shard lock,
	// but probes read it holding only a partition mutex.
	droppedSeq atomic.Uint64
	parts      []idxPart
	// retained counts superseded interval nodes kept for pinned snapshots;
	// it feeds the sweep pacing next to the shards' own counters.
	retained atomic.Uint64
}

// dropped reports the drop sequence (0 = live).
func (ix *attrIndex) dropped() uint64 { return ix.droppedSeq.Load() }

// covers reports whether the index was maintained at sequence point s.
func (ix *attrIndex) covers(s uint64) bool {
	if ix.createdSeq > s {
		return false
	}
	d := ix.dropped()
	return d == 0 || d > s
}

// idxRegistry is the copy-on-write set of indexes. byName/byAttr/byCls hold
// only live indexes (byCls keys by class pointer: a local subclass sharing
// a database class's name must not trigger its maintenance); list holds
// dropped ones too until no pinned snapshot can read them.
type idxRegistry struct {
	byName map[string]*attrIndex
	byAttr map[string][]*attrIndex
	byCls  map[*Class][]*attrIndex
	list   []*attrIndex
}

// clone deep-copies the registry maps (not the indexes).
func (r *idxRegistry) clone() *idxRegistry {
	n := &idxRegistry{
		byName: make(map[string]*attrIndex, len(r.byName)),
		byAttr: make(map[string][]*attrIndex, len(r.byAttr)),
		byCls:  make(map[*Class][]*attrIndex, len(r.byCls)),
		list:   append([]*attrIndex(nil), r.list...),
	}
	for k, v := range r.byName {
		n.byName[k] = v
	}
	for k, v := range r.byAttr {
		n.byAttr[k] = append([]*attrIndex(nil), v...)
	}
	for k, v := range r.byCls {
		n.byCls[k] = append([]*attrIndex(nil), v...)
	}
	return n
}

// idxPend is a queued class-membership change awaiting the operation's
// commit sequence.
type idxPend struct {
	cls *Class
	sur domain.Surrogate
	add bool
}

// ---- maintenance primitives ----

// update replaces sur's posting with key k (has=false: no posting) at
// sequence seq. Writers hold their shard lock(s); the partition mutex
// orders them against concurrent probes.
func (ix *attrIndex) update(s *Store, sur domain.Surrogate, k ikey, has bool, seq uint64) {
	p := &ix.parts[s.shardIndex(sur)]
	p.mu.Lock()
	defer p.mu.Unlock()
	old, had := p.cur[sur]
	if had && has && old == k {
		return
	}
	if !had && !has {
		return
	}
	ceil := s.ceiling()
	if had {
		ix.closeLocked(p, old, sur, seq, ceil)
		delete(p.cur, sur)
	}
	if has {
		ix.openLocked(p, k, sur, seq, ceil)
		p.cur[sur] = k
	}
}

// closeLocked ends the live interval of (k, sur) at seq. With no pinned
// snapshot the whole chain is dropped eagerly; otherwise the head is
// stamped removed and retained for the sweep.
func (ix *attrIndex) closeLocked(p *idxPart, k ikey, sur domain.Surrogate, seq, ceil uint64) {
	m := p.buckets[k]
	n := m[sur]
	if n == nil {
		return
	}
	if ceil == 0 {
		ix.dropChain(n.prev)
		delete(m, sur)
		if len(m) == 0 {
			delete(p.buckets, k)
		}
		return
	}
	n.removed = seq
	ix.retained.Add(1)
}

// openLocked starts a live interval of (k, sur) at seq, stacking on any
// retained dead intervals for the same key.
func (ix *attrIndex) openLocked(p *idxPart, k ikey, sur domain.Surrogate, seq, ceil uint64) {
	m := p.buckets[k]
	if m == nil {
		m = make(map[domain.Surrogate]*postNode)
		p.buckets[k] = m
	}
	n := &postNode{added: seq}
	if old := m[sur]; old != nil {
		if ceil == 0 {
			ix.dropChain(old)
		} else {
			n.prev = old
		}
	}
	m[sur] = n
}

// dropChain uncounts a chain of retained (removed) nodes being discarded.
func (ix *attrIndex) dropChain(n *postNode) {
	for ; n != nil; n = n.prev {
		dec(&ix.retained)
	}
}

func dec(c *atomic.Uint64) {
	c.Add(^uint64(0))
}

// refresh recomputes sur's posting in ix from the live store state at seq.
// Callers hold at least the shard lock that froze the topology the
// resolution walks. Objects that no longer exist, read null, error (e.g.
// attribute undeclared for this member's type) or hold a non-scalar value
// simply have no posting — exactly the rows a comparison predicate
// rejects.
func (ix *attrIndex) refresh(s *Store, sur domain.Surrogate, seq uint64) {
	k, ok := s.idxKey(sur, ix.attrName)
	ix.update(s, sur, k, ok, seq)
}

// idxKey resolves the live value of an indexed attribute on sur and its
// index key: ok is false for no posting. The resolution is the store's
// own walk at liveSeq, without memoizing a route: the notifier reaches
// inheritors on shards the writer does not hold.
func (s *Store) idxKey(sur domain.Surrogate, name string) (k ikey, ok bool) {
	o, ok := s.obj(sur)
	if !ok || o.lay.isRel {
		return ikey{}, false
	}
	v, err := s.resolve(o, name)
	if err != nil || domain.IsNull(v) {
		return ikey{}, false
	}
	return indexKey(v)
}

// ---- the maintenance funnel ----

// classAdd / classRemove are the single funnel for database-level class
// membership churn: every site that previously called cls.add/cls.remove +
// touchClass goes through here, so index maintenance cannot miss a
// membership path. The index work itself is deferred to idxCommit, which
// runs at the operation's commit sequence (and is dropped wholesale by
// abortClassTouches on rollback). Callers hold the all-shard lock.
func (s *Store) classAdd(cls *Class, sur domain.Surrogate) {
	cls.add(sur, pending)
	s.touchClass(cls)
	if reg := s.indexes.Load(); reg != nil && len(reg.byCls[cls]) > 0 {
		s.idxPend = append(s.idxPend, idxPend{cls: cls, sur: sur, add: true})
	}
}

func (s *Store) classRemove(cls *Class, sur domain.Surrogate) {
	cls.remove(sur)
	s.touchClass(cls)
	if reg := s.indexes.Load(); reg != nil && len(reg.byCls[cls]) > 0 {
		s.idxPend = append(s.idxPend, idxPend{cls: cls, sur: sur, add: false})
	}
}

// idxTouch queues an inheritor whose inherited values a structural change
// (bind, unbind, cascade delete) may have rerouted. idxCommit recomputes
// the queued objects — and everything downstream of them through the
// binding graph — at the operation's commit sequence. This mirrors the
// route cache: the events that queue recomputation are the ones that
// publish a new binding list on the inheritor, which is what invalidates
// its memoized routes. Callers hold the all-shard lock.
func (s *Store) idxTouch(sur domain.Surrogate) {
	if s.indexes.Load() == nil {
		return
	}
	if s.idxRecompute == nil {
		s.idxRecompute = make(map[domain.Surrogate]bool)
	}
	s.idxRecompute[sur] = true
}

// idxCommit applies all queued index maintenance at the operation's commit
// sequence: class-membership pends first, then the transitive recompute
// set. Called from commitClassHist (class-churn ops) and directly by
// Bind/Unbind (which touch no class). Runs under the all-shard lock.
func (s *Store) idxCommit(seq uint64) {
	if len(s.idxPend) == 0 && len(s.idxRecompute) == 0 {
		return
	}
	reg := s.indexes.Load()
	pends := s.idxPend
	s.idxPend = s.idxPend[:0]
	rec := s.idxRecompute
	s.idxRecompute = nil
	if reg == nil {
		return
	}
	for _, p := range pends {
		for _, ix := range reg.byCls[p.cls] {
			if p.add {
				ix.refresh(s, p.sur, seq)
			} else {
				ix.update(s, p.sur, ikey{}, false, seq)
			}
		}
	}
	if len(rec) == 0 {
		return
	}
	// Close the set downstream: an object whose inherited value changed may
	// itself transmit that value onward.
	frontier := make([]domain.Surrogate, 0, len(rec))
	for sur := range rec {
		frontier = append(frontier, sur)
	}
	for len(frontier) > 0 {
		sur := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, b := range s.bindingsOut(sur) {
			if !rec[b.Inheritor] {
				rec[b.Inheritor] = true
				frontier = append(frontier, b.Inheritor)
			}
		}
	}
	for sur := range rec {
		o, ok := s.obj(sur)
		if !ok || o.lay.isRel || o.ownerClass == nil {
			continue
		}
		for _, ix := range reg.byAttrOfClass(o.ownerClass.name) {
			ix.refresh(s, sur, seq)
		}
	}
}

// byAttrOfClass lists the live indexes over the named database class.
func (r *idxRegistry) byAttrOfClass(className string) []*attrIndex {
	var out []*attrIndex
	for _, ix := range r.list {
		if ix.dropped() == 0 && ix.className == className {
			out = append(out, ix)
		}
	}
	return out
}

// idxAbort drops queued index maintenance after a rolled-back operation
// (paired with abortClassTouches).
func (s *Store) idxAbort() {
	s.idxPend = s.idxPend[:0]
	s.idxRecompute = nil
}

// idxOwn maintains indexes after a direct attribute write on o (the
// single-shard SetAttr path; the caller holds o's shard lock). v is the
// validated new value.
func (s *Store) idxOwn(o *Object, name string, v domain.Value, seq uint64) {
	reg := s.indexes.Load()
	if reg == nil {
		return
	}
	for _, ix := range reg.byAttr[name] {
		if ix.className != o.className() {
			continue
		}
		if domain.IsNull(v) {
			ix.update(s, o.sur, ikey{}, false, seq)
			continue
		}
		k, scalar := indexKey(v)
		ix.update(s, o.sur, k, scalar, seq)
	}
}

// idxInherited recomputes inheritor's posting for an indexed member after
// a transmitter update reached it through a binding (the notifier walk).
// The caller holds the writing shard's lock, which freezes topology
// store-wide, so the resolution walk and the posting update are ordered
// with any concurrent structural change.
func (s *Store) idxInherited(inheritor domain.Surrogate, member string, seq uint64) {
	reg := s.indexes.Load()
	if reg == nil {
		return
	}
	list := reg.byAttr[member]
	if len(list) == 0 {
		return
	}
	o, ok := s.obj(inheritor)
	if !ok || o.lay.isRel || o.ownerClass == nil {
		return
	}
	for _, ix := range list {
		if ix.className == o.ownerClass.name {
			ix.refresh(s, inheritor, seq)
		}
	}
}

// ---- definition lifecycle ----

// IndexDef describes a secondary index.
type IndexDef struct {
	Name       string
	ClassName  string
	AttrName   string
	CreatedSeq uint64
}

// CreateIndex defines a secondary index over one attribute of a
// database-level class and builds it from the current members, inherited
// values included. The build runs store-wide exclusive; maintenance
// afterwards piggybacks on the mutation paths. Index definitions are
// journaled; their contents are always rebuilt, never logged.
func (s *Store) CreateIndex(name, className, attrName string) error {
	return s.createIndex(name, className, attrName, 0)
}

func (s *Store) createIndex(name, className, attrName string, replaySeq uint64) error {
	if name == "" || attrName == "" {
		return fmt.Errorf("object: index needs a name and an attribute")
	}
	if err := s.lockOpen(); err != nil {
		return err
	}
	defer s.unlockAll()
	cls, err := s.indexClass(name, className)
	if err != nil {
		return err
	}
	seq := replaySeq
	if seq == 0 {
		seq = s.seq.Add(1)
	}
	s.addIndex(&attrIndex{name: name, className: className, attrName: attrName, cls: cls, createdSeq: seq}, seq)
	if replaySeq == 0 {
		s.emit(&oplog.Op{Kind: oplog.KindCreateIndex, Name: name, Name2: className, Value: domain.Str(attrName), Seq: seq})
	}
	return nil
}

// indexClass checks a new index's name against the registry and returns
// the database class it covers.
func (s *Store) indexClass(name, className string) (*Class, error) {
	if reg := s.indexes.Load(); reg != nil {
		if _, dup := reg.byName[name]; dup {
			return nil, fmt.Errorf("%w: %q", ErrIndexExists, name)
		}
	}
	cls, ok := s.class(className)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchClass, className)
	}
	return cls, nil
}

// addIndex builds ix's postings from its class's members at seq and
// publishes it in a copy of the registry. Callers hold the all-shard lock.
func (s *Store) addIndex(ix *attrIndex, seq uint64) {
	ix.parts = make([]idxPart, len(s.shards))
	for i := range ix.parts {
		ix.parts[i].buckets = make(map[ikey]map[domain.Surrogate]*postNode)
		ix.parts[i].cur = make(map[domain.Surrogate]ikey)
	}
	for _, sur := range ix.cls.Members() {
		ix.refresh(s, sur, seq)
	}
	next := &idxRegistry{
		byName: map[string]*attrIndex{},
		byAttr: map[string][]*attrIndex{},
		byCls:  map[*Class][]*attrIndex{},
	}
	if reg := s.indexes.Load(); reg != nil {
		next = reg.clone()
	}
	next.byName[ix.name] = ix
	next.byAttr[ix.attrName] = append(next.byAttr[ix.attrName], ix)
	next.byCls[ix.cls] = append(next.byCls[ix.cls], ix)
	next.list = append(next.list, ix)
	sort.Slice(next.list, func(i, j int) bool {
		if next.list[i].name != next.list[j].name {
			return next.list[i].name < next.list[j].name
		}
		return next.list[i].createdSeq < next.list[j].createdSeq
	})
	s.indexes.Store(next)
}

// DropIndex removes a secondary index. The definition stays readable to
// snapshots pinned before the drop (they may still plan over it: the index
// was maintained for their whole window); its memory is reclaimed once no
// pin can reach it.
func (s *Store) DropIndex(name string) error {
	return s.dropIndex(name, 0)
}

func (s *Store) dropIndex(name string, replaySeq uint64) error {
	if err := s.lockOpen(); err != nil {
		return err
	}
	defer s.unlockAll()
	reg := s.indexes.Load()
	if reg == nil {
		return fmt.Errorf("%w: %q", ErrNoSuchIndex, name)
	}
	ix, ok := reg.byName[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchIndex, name)
	}
	seq := replaySeq
	if seq == 0 {
		seq = s.seq.Add(1)
	}
	ix.droppedSeq.Store(seq)
	next := reg.clone()
	delete(next.byName, name)
	next.byAttr[ix.attrName] = removeIdx(next.byAttr[ix.attrName], ix)
	if len(next.byAttr[ix.attrName]) == 0 {
		delete(next.byAttr, ix.attrName)
	}
	next.byCls[ix.cls] = removeIdx(next.byCls[ix.cls], ix)
	if len(next.byCls[ix.cls]) == 0 {
		delete(next.byCls, ix.cls)
	}
	if s.ceiling() == 0 {
		// No pin can plan over it: free the definition and postings now.
		next.list = removeIdx(next.list, ix)
	}
	s.indexes.Store(next)
	if replaySeq == 0 {
		s.emit(&oplog.Op{Kind: oplog.KindDropIndex, Name: name, Seq: seq})
	}
	return nil
}

func removeIdx(list []*attrIndex, ix *attrIndex) []*attrIndex {
	out := list[:0]
	for _, e := range list {
		if e != ix {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Indexes lists the index definitions maintained at the read point, sorted
// by name: live, the live set; at a pin, those maintained across it, so a
// dropped index stays planable for pins taken before the drop. Lock-free:
// the registry is an atomic pointer and definitions are immutable but for
// the atomic droppedSeq.
func (r View) Indexes() []IndexDef {
	var out []IndexDef
	for _, ix := range r.s.indexRecords(r.at) {
		out = append(out, IndexDef(ix))
	}
	return out
}

// seedIndexState rebuilds index definitions (entries included) from
// imported records. Runs under the import's all-shard lock, after
// objects, classes and bindings are linked; postings are seeded at
// sequence 0, below any pin a reopened store can take.
func (s *Store) seedIndexState(recs []IndexRecord) error {
	for _, r := range recs {
		cls, err := s.indexClass(r.Name, r.ClassName)
		if err != nil {
			return fmt.Errorf("index %q in snapshot: %w", r.Name, err)
		}
		s.addIndex(&attrIndex{name: r.Name, className: r.ClassName, attrName: r.AttrName, cls: cls, createdSeq: r.CreatedSeq}, 0)
	}
	return nil
}

// indexRecords exports the index definitions maintained at sequence point
// at (liveSeq: the live set), sorted by name.
func (s *Store) indexRecords(at uint64) []IndexRecord {
	reg := s.indexes.Load()
	if reg == nil {
		return nil
	}
	var out []IndexRecord
	for _, ix := range reg.list {
		if ix.covers(at) {
			out = append(out, IndexRecord{Name: ix.name, ClassName: ix.className, AttrName: ix.attrName, CreatedSeq: ix.createdSeq})
		}
	}
	return out
}

// ---- probes ----

// index finds the index over (className, attrName) maintained at the read
// point: at liveSeq the live one, at a pin one maintained across it.
func (r View) index(className, attrName string) *attrIndex {
	if reg := r.s.indexes.Load(); reg != nil {
		for _, ix := range reg.list {
			if ix.className == className && ix.attrName == attrName && ix.covers(r.at) {
				return ix
			}
		}
	}
	return nil
}

// bounds normalizes a probe's range bounds into index keys (nil: open);
// ok is false when a bound is not an indexable scalar.
func bounds(lo, hi domain.Value) (loK, hiK *ikey, ok bool) {
	loK, okLo := boundKey(lo)
	hiK, okHi := boundKey(hi)
	return loK, hiK, okLo && okHi
}

func boundKey(v domain.Value) (*ikey, bool) {
	if v == nil || domain.IsNull(v) {
		return nil, true
	}
	k, ok := indexKey(v)
	return &k, ok
}

// IndexProbe returns the candidate members whose indexed attribute value
// lies within [lo, hi] (nil = unbounded; bounds inclusive — see inRange)
// according to the index over (className, attrName) maintained at the read
// point, ascending: it scans the index's partitions for keys in range and
// keeps the members whose interval covers the point. The second result is
// false when no such index exists or a bound is not an indexable scalar.
// Candidates are a superset of the true matches (bounds are widened);
// callers re-apply the full predicate.
func (r View) IndexProbe(className, attrName string, lo, hi domain.Value) ([]domain.Surrogate, bool) {
	ix := r.index(className, attrName)
	if ix == nil {
		return nil, false
	}
	loK, hiK, ok := bounds(lo, hi)
	if !ok {
		return nil, false
	}
	var out []domain.Surrogate
	for i := range ix.parts {
		p := &ix.parts[i]
		p.mu.Lock()
		for k, m := range p.buckets {
			if !k.inRange(loK, hiK) {
				continue
			}
			for sur, n := range m {
				for ; n != nil; n = n.prev {
					if n.added <= r.at && (n.removed == 0 || n.removed > r.at) {
						out = append(out, sur)
						break
					}
					if n.added <= r.at {
						break // deeper intervals are older still
					}
				}
			}
		}
		p.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, true
}

// IndexEstimate counts the postings in range of the index maintained at
// the read point, retained intervals included, without materializing
// them: the planner's costing probe. Returns -1 when no usable index.
func (r View) IndexEstimate(className, attrName string, lo, hi domain.Value) int {
	ix := r.index(className, attrName)
	if ix == nil {
		return -1
	}
	loK, hiK, ok := bounds(lo, hi)
	if !ok {
		return -1
	}
	total := 0
	for i := range ix.parts {
		p := &ix.parts[i]
		p.mu.Lock()
		for k, m := range p.buckets {
			if k.inRange(loK, hiK) {
				total += len(m)
			}
		}
		p.mu.Unlock()
	}
	return total
}

// ---- sweep and stats ----

// idxRetainedTotal sums retained interval nodes across indexes for the
// sweep pacing.
func (s *Store) idxRetainedTotal() uint64 {
	reg := s.indexes.Load()
	if reg == nil {
		return 0
	}
	var n uint64
	for _, ix := range reg.list {
		n += ix.retained.Load()
	}
	return n
}

// idxSweep trims index postings no pinned snapshot can read: intervals
// closed at or below the low-water mark, and the whole contents of
// indexes dropped at or below it. It takes one partition mutex at a time
// and reads the low-water mark under it (a writer that closed an interval
// for a pin released that mutex after the pin registered). Returns the
// number of nodes reclaimed.
func (s *Store) idxSweep() uint64 {
	reg := s.indexes.Load()
	if reg == nil {
		return 0
	}
	var total uint64
	for _, ix := range reg.list {
		for i := range ix.parts {
			s.stepPoint("sweep-index")
			p := &ix.parts[i]
			p.mu.Lock()
			reclaimed, closed := p.sweep(s.lowWater(), ix.dropped())
			p.mu.Unlock()
			ix.retained.Add(-closed)
			total += reclaimed
		}
	}
	return total
}

// sweep trims one partition to low; dropped is the index's drop sequence
// (0: live). Interval chains are ordered newest-first and close
// monotonically, so the first node dead at the low-water mark ends the
// readable prefix. Returns the nodes reclaimed and how many of them were
// closed intervals (the retained count). Callers hold p.mu.
func (p *idxPart) sweep(low, dropped uint64) (reclaimed, closed uint64) {
	if dropped != 0 && dropped <= low {
		for _, m := range p.buckets {
			for _, n := range m {
				for ; n != nil; n = n.prev {
					reclaimed++
					if n.removed != 0 {
						closed++
					}
				}
			}
		}
		p.buckets = make(map[ikey]map[domain.Surrogate]*postNode)
		p.cur = make(map[domain.Surrogate]ikey)
		return reclaimed, closed
	}
	for k, m := range p.buckets {
		for sur, n := range m {
			if n.removed != 0 && n.removed <= low {
				reclaimed += chainLen(n)
				delete(m, sur)
				continue
			}
			for ; n.prev != nil; n = n.prev {
				if q := n.prev; q.removed != 0 && q.removed <= low {
					reclaimed += chainLen(q)
					n.prev = nil
					break
				}
			}
		}
		if len(m) == 0 {
			delete(p.buckets, k)
		}
	}
	return reclaimed, reclaimed
}

func chainLen(n *postNode) uint64 {
	var c uint64
	for ; n != nil; n = n.prev {
		c++
	}
	return c
}

// idxAudit re-derives every live index's expected postings from a fresh
// resolution of each member's attribute value and reports any divergence:
// missing or stale postings, wrong keys, and cur/bucket asymmetry. Called
// from CheckInvariants; the caller holds every shard and stripe read lock.
func (s *Store) idxAudit(report func(format string, args ...any)) {
	reg := s.indexes.Load()
	if reg == nil {
		return
	}
	for _, ix := range reg.list {
		if ix.dropped() != 0 {
			continue
		}
		want := make(map[domain.Surrogate]ikey)
		for _, sur := range ix.cls.items() {
			if k, ok := s.idxKey(sur, ix.attrName); ok {
				want[sur] = k
			}
		}
		got := make(map[domain.Surrogate]ikey)
		for i := range ix.parts {
			p := &ix.parts[i]
			p.mu.Lock()
			for sur, k := range p.cur {
				got[sur] = k
				if n := p.buckets[k][sur]; n == nil || n.removed != 0 {
					report("index %q: cur entry for %s has no live bucket node", ix.name, sur)
				}
			}
			for k, m := range p.buckets {
				for sur, n := range m {
					if n.removed == 0 {
						if ck, ok := p.cur[sur]; !ok || ck != k {
							report("index %q: live node for %s not tracked in cur", ix.name, sur)
						}
					}
				}
			}
			p.mu.Unlock()
		}
		for sur, k := range want {
			if gk, ok := got[sur]; !ok {
				report("index %q: missing posting for member %s", ix.name, sur)
			} else if gk != k {
				report("index %q: %s posted under the wrong key", ix.name, sur)
			}
		}
		for sur := range got {
			if _, ok := want[sur]; !ok {
				report("index %q: stale posting for %s", ix.name, sur)
			}
		}
	}
}
