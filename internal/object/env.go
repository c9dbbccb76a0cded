package object

import (
	"cadcam/internal/domain"
	"cadcam/internal/expr"
)

// env is the expr.Env of one object at a read point: attributes (own and
// inherited), local subclasses, sub-relationships and participant roles.
// Store.Env and Snapshot.Env read through the entry points, route hit
// first, exactly like GetAttr and Members. A locked env serves a store
// operation that already holds its locks, possibly with its topology
// half-changed (constraint and where-restriction checks): it resolves
// directly, without the hit path and without locking.
type env struct {
	r      rd
	sur    domain.Surrogate
	locked bool
}

// Env returns an expr.Env evaluating names against the given object:
// attributes (own and inherited), local subclasses, sub-relationships and
// participant roles. Version-selection queries and user-level constraint
// checks use it. Values read through other shards are loaded atomically
// per value; the view is not a store-wide snapshot (Snapshot.Env is).
func (s *Store) Env(sur domain.Surrogate) expr.Env {
	return env{r: s.live(), sur: sur}
}

// Env returns an expr.Env evaluating names against the given object as of
// the pin.
func (sn *Snapshot) Env(sur domain.Surrogate) expr.Env {
	return env{r: sn.rd(), sur: sur}
}

// lockedEnv is the env of sur inside a store operation holding its locks.
func (s *Store) lockedEnv(sur domain.Surrogate) expr.Env {
	return env{r: s.live(), sur: sur, locked: true}
}

func (e env) Lookup(name string) (domain.Value, bool) { return e.attr(e.sur, name) }

func (e env) Collection(name string) ([]domain.Value, bool) { return e.collection(e.sur, name) }

func (e env) AttrOf(ref domain.Ref, attr string) (domain.Value, bool) {
	return e.attr(domain.Surrogate(ref), attr)
}

func (e env) CollectionOf(ref domain.Ref, name string) ([]domain.Value, bool) {
	return e.collection(domain.Surrogate(ref), name)
}

func (e env) attr(sur domain.Surrogate, name string) (domain.Value, bool) {
	if !e.locked {
		v, err := e.r.attrOf(sur, name)
		return v, err == nil
	}
	if o, ok := e.r.obj(sur); ok {
		v, err := e.r.getAttr(o, name)
		return v, err == nil
	}
	return nil, false
}

func (e env) collection(sur domain.Surrogate, name string) ([]domain.Value, bool) {
	if !e.locked {
		return e.r.collectionOf(sur, name)
	}
	if o, ok := e.r.obj(sur); ok {
		return e.r.collection(o, name)
	}
	return nil, false
}

// ClassEnv returns an expr.Env over the database-level classes, for
// queries that scan class extents (e.g. top-down version selection).
func (s *Store) ClassEnv() expr.Env { return classEnv{env{r: s.live()}} }

// classEnv resolves collection names as class extents; member references
// read through the live env.
type classEnv struct{ env }

func (e classEnv) Lookup(string) (domain.Value, bool) { return nil, false }

func (e classEnv) Collection(name string) ([]domain.Value, bool) {
	st := e.r.s.stripeOf(name)
	st.mu.RLock()
	defer st.mu.RUnlock()
	cls, ok := e.r.class(name)
	if !ok {
		return nil, false
	}
	return refs(cls.membersAt(e.r.at)), true
}
