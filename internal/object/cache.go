package object

import (
	"sync"
	"sync/atomic"

	"cadcam/internal/domain"
)

// Resolution cache.
//
// Reading an inherited member walks the binding chain from the inheritor
// to the object that owns the member (§4: view semantics — the value is
// never copied). The chain itself only changes on *structural* operations
// (bind, unbind, delete, class materialization), so the store memoizes the
// route — never the value — keyed by (surrogate, member name). A cache hit
// reads the owner's live attribute slot, so a transmitter update made
// after the route was memoized is visible immediately; plain attribute
// writes never invalidate, which keeps routes hot under update-heavy
// workloads.
//
// Sharding: each route lives in the cache of the shard owning its root
// surrogate and is stamped with the structure epoch of every shard its
// chain passes through. Structural operations bump only the epochs of the
// shards they affect, so a Bind in one partition does not evict routes
// confined to another. The hit path validates all stamps lock-free;
// resolution runs under a shard lock, which freezes topology store-wide
// (see the shard type), so the recorded stamps are exact.
//
// Entry: every read that can be served from a route enters through the
// read context's entry points (rd.attrOf, membersOf, collectionOf in
// read.go): Store.GetAttr/Members, the exported expression environment
// (Store.Env, ClassEnv member reads — so query residuals hit the cache
// too), ResolveChainStamped, and their Snapshot forms, which check the
// stamps against the pin's epochs instead of the current ones. Only live
// resolutions memoize; snapshot and index-maintenance resolutions do not,
// and environments inside store operations bypass the hit path.
//
// Concurrency: routes live in sync.Maps and attribute slots publish
// atomically, so the GetAttr/Members hit path takes no lock. Structural
// writers bump epochs while holding all shard write locks; a concurrent
// lock-free reader either observes a new epoch (and falls back to the
// locked slow path) or serializes before the structural operation, which
// is a legal linearization.

// routeKey addresses one memoized resolution.
type routeKey struct {
	sur  domain.Surrogate
	name string
}

// shardStamp records the structure epoch one shard had when a route was
// resolved.
type shardStamp struct {
	shard int
	epoch uint64
}

// route is one memoized resolution. For attribute routes, owner is the
// object whose own attribute slot holds the value (nil: the chain ended
// unbound, the read is null). For members routes, cls is the owner's
// materialized subclass (nil: unbound or not yet materialized, the read is
// empty). chain lists every surrogate visited from the inheritor to the
// owner, in order — transactions lock it for lock inheritance (§6).
// stamps holds one entry per distinct shard along the chain.
type route struct {
	stamps []shardStamp
	owner  *Object
	cls    *Class
	chain  []domain.Surrogate
}

// routeCacheResetThreshold bounds dead-key accumulation per shard: when an
// epoch bump finds more stored routes than this, the maps are swapped out
// whole instead of being left to revalidate lazily.
const routeCacheResetThreshold = 1 << 14

// routeCache holds one shard's attribute and members route maps. The maps
// are swappable so invalidation can drop a bloated cache in O(1).
type routeCache struct {
	attrs   atomic.Pointer[sync.Map]
	members atomic.Pointer[sync.Map]
	stored  atomic.Uint64
}

func (rc *routeCache) init() {
	rc.attrs.Store(new(sync.Map))
	rc.members.Store(new(sync.Map))
}

func (rc *routeCache) reset() {
	rc.attrs.Store(new(sync.Map))
	rc.members.Store(new(sync.Map))
	rc.stored.Store(0)
}

// stampChain collects the current epochs of the distinct shards along a
// chain. Callers hold at least one shard lock, so the epochs cannot move.
func (s *Store) stampChain(chain []domain.Surrogate) []shardStamp {
	stamps := make([]shardStamp, 0, 2)
	for _, sur := range chain {
		idx := s.shardIndex(sur)
		seen := false
		for _, st := range stamps {
			if st.shard == idx {
				seen = true
				break
			}
		}
		if !seen {
			stamps = append(stamps, shardStamp{shard: idx, epoch: s.shards[idx].epoch.Load()})
		}
	}
	return stamps
}

// memoAttr stores an attribute route resolved under a shard lock (no
// epoch can move while any shard lock is held, so the stamps are exact).
func (s *Store) memoAttr(sur domain.Surrogate, name string, owner *Object, chain []domain.Surrogate) *route {
	r := &route{stamps: s.stampChain(chain), owner: owner, chain: chain}
	sh := s.shardOf(sur)
	sh.routes.attrs.Load().Store(routeKey{sur, name}, r)
	sh.routes.stored.Add(1)
	sh.misses.Add(1)
	return r
}

// memoMembers stores a members route resolved under a shard lock.
func (s *Store) memoMembers(sur domain.Surrogate, name string, cls *Class, chain []domain.Surrogate) *route {
	r := &route{stamps: s.stampChain(chain), cls: cls, chain: chain}
	sh := s.shardOf(sur)
	sh.routes.members.Load().Store(routeKey{sur, name}, r)
	sh.routes.stored.Add(1)
	sh.misses.Add(1)
	return r
}

// bumpEpoch invalidates every memoized route that crosses the shard.
// Callers hold all shard write locks; lock-free readers racing the bump
// either see the new epoch (slow path) or serialize before the structural
// change.
func (s *Store) bumpEpoch(sh *shard) {
	sh.epoch.Add(1)
	sh.invalidations.Add(1)
	if sh.routes.stored.Load() > routeCacheResetThreshold {
		sh.routes.reset()
	}
}

// bumpAllEpochs invalidates every route in the store (snapshot import).
func (s *Store) bumpAllEpochs() {
	for i := range s.shards {
		s.bumpEpoch(&s.shards[i])
	}
}

// ShardStats reports one shard's counters, snapshotted under its lock.
type ShardStats struct {
	Shard         int    `json:"shard"`
	Objects       int    `json:"objects"`
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Invalidations uint64 `json:"invalidations"`
	Epoch         uint64 `json:"epoch"`
	Routes        uint64 `json:"routes"`
}

// StoreStats aggregates the resolution-cache counters across shards.
// Epoch is the sum of the per-shard structure epochs (total structural
// changes observed); PerShard carries the per-shard breakdown.
type StoreStats struct {
	Hits          uint64 // reads served from a memoized route, lock-free
	Misses        uint64 // cacheable resolutions that had to walk the chain
	Invalidations uint64 // structure-epoch bumps
	Epoch         uint64 // sum of per-shard structure epochs
	Routes        uint64 // approximate number of stored routes
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
			Epoch:         sh.epoch.Load(),
			Routes:        sh.routes.stored.Load(),
		}
		sh.mu.RUnlock()
		st.PerShard[i] = p
		st.Hits += p.Hits
		st.Misses += p.Misses
		st.Invalidations += p.Invalidations
		st.Epoch += p.Epoch
		st.Routes += p.Routes
	}
	st.MVCC = s.mvccStats()
	return st
}

// ChainStamp captures the shard epochs a resolved chain depended on.
// Transactions use it to detect a rebind between resolving a chain and
// locking it (see ResolveChainStamped).
type ChainStamp struct {
	stamps []shardStamp
}

// StampValid reports whether the chain the stamp was taken from is still
// current: no shard it crossed has seen a structural change since.
func (s *Store) StampValid(st ChainStamp) bool {
	for _, x := range st.stamps {
		if s.shards[x.shard].epoch.Load() != x.epoch {
			return false
		}
	}
	return true
}

// ResolveChain returns the surrogates visited when resolving member on
// sur: the object itself followed by each transmitter along the
// inheritance chain, ending at the member's owner. Transactions lock the
// chain (lock inheritance runs in the reverse direction of data
// inheritance, §6). Names that are not inherited — own members, unknown
// names, relationship objects — resolve to just the object itself.
func (s *Store) ResolveChain(sur domain.Surrogate, member string) ([]domain.Surrogate, error) {
	chain, _, err := s.ResolveChainStamped(sur, member)
	return chain, err
}

// ResolveChainStamped is ResolveChain plus a ChainStamp recording the
// structure epochs of every shard the chain crosses, so the caller can
// cheaply re-check (StampValid) that the chain is still current after
// acquiring locks on it.
func (s *Store) ResolveChainStamped(sur domain.Surrogate, member string) ([]domain.Surrogate, ChainStamp, error) {
	r := s.live()
	sh := s.shardOf(sur)
	if rt := r.route(sh, &sh.routes.attrs, sur, member); rt != nil {
		return rt.chain, ChainStamp{stamps: rt.stamps}, nil
	}
	if rt := r.route(sh, &sh.routes.members, sur, member); rt != nil {
		return rt.chain, ChainStamp{stamps: rt.stamps}, nil
	}
	o, ok := r.enter(sh, sur)
	defer r.leave(sh)
	if !ok {
		return nil, ChainStamp{}, noObject(sur)
	}
	var err error
	if eff, effErr := s.effectiveLocked(o); effErr == nil {
		if a, ok := eff.Attr(member); ok && a.Inherited() {
			owner, chain, err := r.attrWalk(o, member, []domain.Surrogate{sur})
			if err != nil {
				return nil, ChainStamp{}, err
			}
			rt := s.memoAttr(sur, member, owner, chain)
			return rt.chain, ChainStamp{stamps: rt.stamps}, nil
		}
		if sd, ok := eff.SubclassByName(member); ok && sd.Inherited() {
			var cls *Class
			var chain []domain.Surrogate
			if cls, chain, err = r.subclassWalk(o, member, []domain.Surrogate{sur}); err == nil {
				rt := s.memoMembers(sur, member, cls, chain)
				return rt.chain, ChainStamp{stamps: rt.stamps}, nil
			}
			if err == errNoMembersYet {
				err = nil
			}
		}
	}
	self := []domain.Surrogate{sur}
	return self, ChainStamp{stamps: s.stampChain(self)}, err
}
