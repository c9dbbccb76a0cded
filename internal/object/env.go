package object

import (
	"cadcam/internal/domain"
	"cadcam/internal/expr"
)

// env is the expr.Env of one object at a read point: attributes (own and
// inherited), local subclasses, sub-relationships and participant roles.
// View.Env reads through the entry points, route hit first, exactly like
// GetAttr and Members. A locked env serves a store operation that already
// holds its locks, possibly with its topology half-changed (constraint
// and where-restriction checks): it resolves directly, without the hit
// path and without locking.
type env struct {
	r      View
	sur    domain.Surrogate
	locked bool
}

// Env returns an expr.Env evaluating names against the given object at
// the read point: attributes (own and inherited), local subclasses,
// sub-relationships and participant roles. Queries, version selection and
// user-level constraint checks use it. A live env loads values read
// through other shards atomically per value; it is not a store-wide
// snapshot (a pinned env is).
func (r View) Env(sur domain.Surrogate) expr.Env { return env{r: r, sur: sur} }

// lockedEnv is the env of sur inside a store operation holding its locks.
func (s *Store) lockedEnv(sur domain.Surrogate) expr.Env {
	return env{r: s.View, sur: sur, locked: true}
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
		v, err := e.r.GetAttr(sur, name)
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
func (s *Store) ClassEnv() expr.Env { return classEnv{env{r: s.View}} }

// classEnv resolves collection names as class extents; member references
// read through the live env.
type classEnv struct{ env }

func (e classEnv) Lookup(string) (domain.Value, bool) { return nil, false }

func (e classEnv) Collection(name string) ([]domain.Value, bool) {
	ms, ok := e.r.extent(name)
	return refs(ms), ok
}
