package object

import (
	"sync/atomic"

	"cadcam/internal/domain"
)

// Resolution cache.
//
// Reading an inherited member walks the binding chain from the inheritor
// to the object that owns the member (§4: view semantics — the value is
// never copied). The store memoizes the route — never the value — on the
// inheritor itself, in a slot per member name. A cache hit reads the
// owner's live attribute slot, so a transmitter update made after the
// route was memoized is visible immediately; plain attribute writes never
// invalidate, which keeps routes hot under update-heavy workloads.
//
// One invalidation rule: a route records, for every object its walk
// visited, the binding-list node (bindIn) it read there, and for a
// members route the owner's subclass maps. Published binding lists and
// subclass maps are immutable and replaced on every change, so the
// recorded pointers are exact version stamps of everything the walk
// depended on: a route holds at a read point while every recorded node is
// still the one read there (the head for a live read, the node at the pin
// for a snapshot read). Bind, unbind, rebind and delete all publish a new
// list on the inheritor whose chain they change — deleting a transmitter
// dissolves its bindings — and materialization publishes new subclass
// maps, so no structural operation touches the cache.
//
// Entry: every read that can be served from a route enters through a
// View's entry points (GetAttr, Members, collectionOf in read.go): the
// exported expression environment (View.Env, ClassEnv member reads — so
// query residuals hit the cache too), ResolveChainStamped and ChainOwner.
// Only live resolutions memoize; snapshot and index-maintenance
// resolutions do not, and environments inside store operations bypass the
// hit path.
//
// Concurrency: an object's route slots, binding lists and subclass maps
// publish atomically, so the hit path takes no lock. A head never returns
// to a node it left, so a reader that finds every recorded node still
// current found them all current at once when it checked the first: it
// serializes before any structural change it raced.

// hop is one object a walk visited and the binding list it read there.
type hop struct {
	o  *Object
	in *vnode[[]*Binding]
}

// route is one memoized resolution: the hops from the inheritor to the
// last object whose bindings the walk followed, and the owner it ended
// at (nil: the chain ended unbound, the read is null or empty). For
// attribute routes, slot is the owner's own attribute slot holding the
// value. For members routes, subs is the owner's subclass maps as read
// and cls the materialized subclass in them (nil: not materialized yet,
// the read is empty).
type route struct {
	hops    []hop
	owner   *Object
	slot    *vchain[domain.Value]
	members bool
	subs    *subMaps
	cls     *Class
}

// visit records that the walk read o's binding list node in. A nil route
// records nothing.
func (rt *route) visit(o *Object, in *vnode[[]*Binding]) {
	if rt != nil {
		rt.hops = append(rt.hops, hop{o, in})
	}
}

// validAt reports whether the route still describes the walk at sequence
// point at: every hop's binding list there is the node recorded, and a
// members route's owner still has the subclass maps recorded. A pinned
// read compares the maps current now, which only refuses more: a class
// materialized after the pin reads empty at it either way.
func (rt *route) validAt(at uint64) bool {
	for _, h := range rt.hops {
		if h.o.bindIn.node(at) != h.in {
			return false
		}
	}
	return !rt.members || rt.owner == nil || rt.owner.subs.Load() == rt.subs
}

// chain lists every surrogate the route visited from the inheritor to the
// owner, in order — transactions lock it for lock inheritance (§6).
func (rt *route) chain() []domain.Surrogate {
	out := make([]domain.Surrogate, 0, len(rt.hops)+1)
	for _, h := range rt.hops {
		out = append(out, h.o.sur)
	}
	if rt.owner != nil {
		out = append(out, rt.owner.sur)
	}
	return out
}

// routeSlot returns the slot of o's routes holding name's route (members:
// a subclass route, else an inherited attribute route), or nil when name
// has none on o's type.
func routeSlot(o *Object, name string, members bool, alloc bool) *atomic.Pointer[route] {
	ords := o.lay.attrRoutes
	if members {
		ords = o.lay.subRoutes
	}
	i, ok := ords[name]
	if !ok {
		return nil
	}
	p := o.routes.Load()
	if p == nil {
		if !alloc {
			return nil
		}
		slots := make([]atomic.Pointer[route], len(o.lay.attrRoutes)+len(o.lay.subRoutes))
		if !o.routes.CompareAndSwap(nil, &slots) {
			p = o.routes.Load()
		} else {
			p = &slots
		}
	}
	return &(*p)[i]
}

// hit returns o's route for name if it holds at the read point, counting
// the hit, or the refusal when a recorded node changed. Lock-free.
func (r View) hit(o *Object, name string, members bool) *route {
	slot := routeSlot(o, name, members, false)
	if slot == nil {
		return nil
	}
	rt := slot.Load()
	if rt == nil {
		return nil
	}
	sh := r.s.shardOf(o.sur)
	if !rt.validAt(r.at) {
		sh.invalidations.Add(1)
		return nil
	}
	sh.hits.Add(1)
	return rt
}

// memo stores a live resolution's route on its root object o and counts
// the miss. The caller holds a shard lock, so no structural operation
// runs while the walk records its hops. A pinned resolution describes the
// past and is not stored; nor is a name without a route slot (own
// attributes are read from their slot directly).
func (r View) memo(o *Object, name string, rt *route) {
	if !r.isLive() {
		return
	}
	if slot := routeSlot(o, name, rt.members, true); slot != nil {
		c := *rt
		slot.Store(&c)
		r.s.shardOf(o.sur).misses.Add(1)
	}
}

// ShardStats reports one shard's counters, snapshotted under its lock.
type ShardStats struct {
	Shard         int    `json:"shard"`
	Objects       int    `json:"objects"`
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Invalidations uint64 `json:"invalidations"`
}

// StoreStats aggregates the resolution-cache counters across shards;
// PerShard carries the per-shard breakdown, counted on the shard of the
// route's inheritor.
type StoreStats struct {
	Hits          uint64 // reads served from a memoized route, lock-free
	Misses        uint64 // live resolutions that walked and memoized a route
	Invalidations uint64 // hits refused because a recorded binding list or subclass map changed
	Shards        int    // shard count
	PerShard      []ShardStats
	MVCC          MVCCStats // snapshot pins and version-chain GC (mvcc.go)
}

// Stats snapshots the cache counters. Each shard's tuple is read under
// that shard's read lock, so the per-shard numbers are mutually
// consistent (the aggregate is a sum of per-shard snapshots, not a single
// store-wide freeze).
func (s *Store) Stats() StoreStats {
	st := StoreStats{Shards: len(s.shards), PerShard: make([]ShardStats, len(s.shards))}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		p := ShardStats{
			Shard:         i,
			Objects:       sh.live,
			Hits:          sh.hits.Load(),
			Misses:        sh.misses.Load(),
			Invalidations: sh.invalidations.Load(),
		}
		sh.mu.RUnlock()
		st.PerShard[i] = p
		st.Hits += p.Hits
		st.Misses += p.Misses
		st.Invalidations += p.Invalidations
	}
	st.MVCC = s.mvccStats()
	return st
}

// ChainStamp is what a resolved chain depended on: the object it was
// resolved on and the route it followed (none for a member that is not
// inherited). Transactions use it to detect a rebind between resolving a
// chain and locking it (see ResolveChainStamped).
type ChainStamp struct {
	root *Object
	rt   *route
}

// StampValid reports whether the chain the stamp was taken from is still
// current: its object is still live and every binding list the route read
// is still the live one.
func (s *Store) StampValid(st ChainStamp) bool {
	if o, ok := s.obj(st.root.sur); !ok || o != st.root {
		return false
	}
	return st.rt == nil || st.rt.validAt(liveSeq)
}

// ResolveChainStamped returns the surrogates visited when resolving
// member on sur: the object itself followed by each transmitter along the
// inheritance chain, ending at the member's owner. Transactions lock the
// chain (lock inheritance runs in the reverse direction of data
// inheritance, §6). Names that are not inherited — own members, unknown
// names, relationship objects — resolve to just the object itself. The
// ChainStamp records the route the chain was read from, so the caller can
// cheaply re-check (StampValid) that the chain is still current after
// acquiring locks on it.
func (s *Store) ResolveChainStamped(sur domain.Surrogate, member string) ([]domain.Surrogate, ChainStamp, error) {
	o, rt, err := s.resolveChain(sur, member)
	if err != nil {
		return nil, ChainStamp{}, err
	}
	if rt == nil {
		return []domain.Surrogate{sur}, ChainStamp{root: o}, nil
	}
	return rt.chain(), ChainStamp{root: o, rt: rt}, nil
}

// ChainOwner returns the object owning what member resolves to on sur at
// the read point: the end of its inheritance chain, sur itself for a
// member that is not inherited. Members sharing an owner share the value,
// which the query planner's route probe exploits.
func (r View) ChainOwner(sur domain.Surrogate, member string) (domain.Surrogate, bool) {
	_, rt, err := r.resolveChain(sur, member)
	switch {
	case err != nil:
		return 0, false
	case rt == nil:
		return sur, true
	case rt.owner != nil:
		return rt.owner.sur, true
	}
	return rt.hops[len(rt.hops)-1].o.sur, true
}

// resolveChain returns the object sur denotes at the read point and the
// route member resolves along on it, from a valid route or by walking:
// nil for a member that is not inherited (an own member, an unknown name,
// a relationship object, a sub-relationship without members).
func (r View) resolveChain(sur domain.Surrogate, member string) (*Object, *route, error) {
	if o, ok := r.settled(sur); ok {
		if rt := r.hit(o, member, false); rt != nil {
			return o, rt, nil
		}
		if rt := r.hit(o, member, true); rt != nil {
			return o, rt, nil
		}
	}
	sh := r.s.shardOf(sur)
	o, ok := r.enter(sh, sur)
	defer r.leave(sh)
	if !ok {
		return nil, nil, noObject(sur)
	}
	if o.lay.isRel {
		return o, nil, nil
	}
	if a, ok := o.lay.eff.Attr(member); ok && a.Inherited() {
		rt := &route{}
		if _, err := r.attrWalk(o, member, rt); err != nil {
			return nil, nil, err
		}
		r.memo(o, member, rt)
		return o, rt, nil
	}
	if sd, ok := o.lay.eff.SubclassByName(member); ok && sd.Inherited() {
		rt := &route{members: true}
		switch _, err := r.subclassWalk(o, member, rt); err {
		case nil:
			r.memo(o, member, rt)
			return o, rt, nil
		case errNoMembersYet:
			return o, nil, nil
		default:
			return nil, nil, err
		}
	}
	return o, nil, nil
}
