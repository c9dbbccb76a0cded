// Package query plans and executes predicate queries over database-level
// class extents. A query is a class name plus a constraint-language
// predicate; the planner chooses between a secondary-index probe, an
// adaptive route-cache probe and a plain class-member scan, and EXPLAIN
// renders the choice with its cost estimates.
package query

import (
	"cadcam/internal/domain"
	"cadcam/internal/expr"
	"cadcam/internal/object"
)

// Source abstracts the two things a query can run against: the live
// store and a pinned snapshot. Both expose class extents, per-object
// expression environments and the index probes the planner costs with.
type Source interface {
	// ClassMembers returns the extent of a database-level class.
	ClassMembers(name string) ([]domain.Surrogate, error)
	// ClassSize returns the extent size, or -1 if no such class.
	ClassSize(name string) int
	// Env returns an expr.Env evaluating names against one object.
	Env(sur domain.Surrogate) expr.Env
	// Indexes lists the secondary-index definitions usable here.
	Indexes() []object.IndexDef
	// IndexProbe returns candidate members whose indexed attribute lies
	// in [lo, hi] (nil = open; bounds inclusive). Candidates are a
	// superset of the true matches; the runner re-applies the predicate.
	IndexProbe(className, attrName string, lo, hi domain.Value) ([]domain.Surrogate, bool)
	// IndexEstimate counts candidates in range, or -1 if no usable index.
	IndexEstimate(className, attrName string, lo, hi domain.Value) int
}

// ChainSource is the optional interface behind the route-cache probe: it
// resolves which object actually owns the value an attribute resolves to
// on a member (the end of its inheritance chain). Members sharing an
// owner share the value, so a predicate over that one attribute needs
// evaluating only once per distinct owner.
type ChainSource interface {
	ChainOwner(sur domain.Surrogate, member string) (domain.Surrogate, bool)
}

// ---- live store ----

type storeSource struct{ s *object.Store }

// ForStore adapts the live store as a query source. The adapter holds no
// locks across rows: every row evaluation takes (and releases) its
// object's shard read lock, so concurrent writers are never blocked for
// the duration of a query.
func ForStore(s *object.Store) Source { return storeSource{s: s} }

func (x storeSource) ClassMembers(name string) ([]domain.Surrogate, error) { return x.s.Class(name) }
func (x storeSource) ClassSize(name string) int                            { return x.s.ClassSize(name) }
func (x storeSource) Env(sur domain.Surrogate) expr.Env                    { return x.s.Env(sur) }
func (x storeSource) Indexes() []object.IndexDef                           { return x.s.Indexes() }

func (x storeSource) IndexProbe(className, attrName string, lo, hi domain.Value) ([]domain.Surrogate, bool) {
	return x.s.IndexProbe(className, attrName, lo, hi)
}

func (x storeSource) IndexEstimate(className, attrName string, lo, hi domain.Value) int {
	return x.s.IndexEstimate(className, attrName, lo, hi)
}

func (x storeSource) ChainOwner(sur domain.Surrogate, member string) (domain.Surrogate, bool) {
	chain, err := x.s.ResolveChain(sur, member)
	if err != nil || len(chain) == 0 {
		return 0, false
	}
	return chain[len(chain)-1], true
}

// ---- pinned snapshot ----

type snapSource struct{ sn *object.Snapshot }

// ForSnapshot adapts a pinned snapshot as a query source: extents,
// attribute values and index probes are all served as of the pin's
// sequence point, so a query sees one consistent state no matter how
// long it runs or what writers do meanwhile.
func ForSnapshot(sn *object.Snapshot) Source { return snapSource{sn: sn} }

func (x snapSource) ClassMembers(name string) ([]domain.Surrogate, error) { return x.sn.Class(name) }

func (x snapSource) ClassSize(name string) int {
	ms, err := x.sn.Class(name)
	if err != nil {
		return -1
	}
	return len(ms)
}

func (x snapSource) Env(sur domain.Surrogate) expr.Env { return x.sn.Env(sur) }
func (x snapSource) Indexes() []object.IndexDef        { return x.sn.Indexes() }

func (x snapSource) IndexProbe(className, attrName string, lo, hi domain.Value) ([]domain.Surrogate, bool) {
	return x.sn.IndexProbe(className, attrName, lo, hi)
}

func (x snapSource) IndexEstimate(className, attrName string, lo, hi domain.Value) int {
	return x.sn.IndexEstimate(className, attrName, lo, hi)
}
