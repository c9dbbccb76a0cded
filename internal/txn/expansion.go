package txn

import (
	"sort"

	"cadcam/internal/domain"
	"cadcam/internal/inherit"
)

// ExpansionLock reports what LockExpansion acquired: the composite's own
// subtree and the visible portions of each component, with the mode
// actually granted after access-control capping.
type ExpansionLock struct {
	Root     domain.Surrogate
	Own      []domain.Surrogate // root + subobjects, locked in the full mode
	Portions []PortionLock
}

// PortionLock is one component portion with the effective lock mode.
type PortionLock struct {
	Object  domain.Surrogate
	Rel     string
	Members []string
	Mode    Mode // requested mode after the access-control cap
}

// LockExpansion is the complex operation §6 describes: lock a composite
// object together with its whole component hierarchy ("expansion"). The
// composite's own subtree is locked in the requested mode; each
// component's *visible portion* is locked in the requested mode capped by
// the user's rights on that component — so heavily shared standard parts
// come out read-locked even inside an update expansion.
//
// The subtree and the portions are walked from one pinned view, so they
// describe one state. A subobject or binding added between the walk and
// the locks would stay unlocked, so the walk is repeated after each round
// of new locks until a round adds nothing (the locked set only grows).
func (t *Txn) LockExpansion(root domain.Surrogate, mode Mode) (*ExpansionLock, error) {
	if err := t.active(); err != nil {
		return nil, err
	}
	out := &ExpansionLock{Root: root}
	locked := make(map[domain.Surrogate]bool)
	type portionKey struct {
		obj domain.Surrogate
		rel string
	}
	seen := make(map[portionKey]bool)
	for round := 0; ; round++ {
		sn := t.mgr.store.Snapshot()
		exp, err := inherit.Expand(sn.View, root)
		var portions []inherit.Portion
		if err == nil {
			portions, err = inherit.VisibleComponents(sn.View, root)
		}
		sn.Release()
		if err != nil {
			return nil, err
		}
		t.mgr.stepPoint("expansion/walked")
		grew := false
		// 1. The composite and its own subobject tree.
		own := ownSubtree(exp)
		sort.Slice(own, func(i, j int) bool { return own[i] < own[j] })
		for _, sur := range own {
			if locked[sur] {
				continue
			}
			if err := t.lock(sur, mode, nil); err != nil {
				return nil, err
			}
			locked[sur], grew = true, true
			out.Own = append(out.Own, sur)
		}
		// 2. The visible portions of every component, transitively.
		for _, p := range portions {
			if seen[portionKey{p.Object, p.Rel}] {
				continue
			}
			capped := t.mgr.access.CapMode(t.user, p.Object, mode)
			if err := t.lock(p.Object, capped, p.Members); err != nil {
				return nil, err
			}
			seen[portionKey{p.Object, p.Rel}], grew = true, true
			out.Portions = append(out.Portions, PortionLock{
				Object:  p.Object,
				Rel:     p.Rel,
				Members: p.Members,
				Mode:    capped,
			})
		}
		// Like lockResolutionChain, the re-walks are bounded: under
		// continuous non-transactional churn the locks cover the last walk.
		if !grew || round == 4 {
			break
		}
	}
	sort.Slice(out.Own, func(i, j int) bool { return out.Own[i] < out.Own[j] })
	sort.Slice(out.Portions, func(i, j int) bool {
		a, b := out.Portions[i], out.Portions[j]
		return a.Object < b.Object || a.Object == b.Object && a.Rel < b.Rel
	})
	return out, nil
}

// ownSubtree collects the nodes of an expansion reachable without
// crossing a binding edge: the composite object and its own subobjects,
// recursively.
func ownSubtree(e *inherit.Expansion) []domain.Surrogate {
	out := []domain.Surrogate{e.Object}
	for _, c := range e.Children {
		if len(c.Rel) > 4 && c.Rel[:4] == "sub:" {
			out = append(out, ownSubtree(c)...)
		}
	}
	return out
}
