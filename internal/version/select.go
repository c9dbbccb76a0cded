package version

import (
	"fmt"

	"cadcam/internal/domain"
	"cadcam/internal/expr"
)

// Policy selects a concrete version for a generic component relationship
// at assembly time (§6 lists exactly these three possibilities).
type Policy uint8

const (
	// SelectDefault is the bottom-up policy: the design object supplies
	// its default version.
	SelectDefault Policy = iota
	// SelectQuery is the top-down policy: a query associated with the
	// composite gives the required properties of the component.
	SelectQuery
	// SelectEnvironment defers to an environment table outside both the
	// composite and the component (cf. [DiLo85]).
	SelectEnvironment
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case SelectDefault:
		return "bottom-up (default version)"
	case SelectQuery:
		return "top-down (query)"
	case SelectEnvironment:
		return "environment"
	default:
		return "unknown"
	}
}

// GenericRef is a generic (version-unresolved) reference to a design
// object: "the component version is not fixed by the relationship" (§6).
type GenericRef struct {
	Design string
	Policy Policy
	// Query is the top-down selection predicate (SelectQuery only). It is
	// evaluated against each candidate version with Status, VersionNo and
	// Alternative available as pseudo-attributes. Among the matches the
	// *latest* (highest VersionNo) wins.
	Query expr.Expr
}

// Environment maps design objects to chosen versions — the paper's third
// selection mechanism, "guided by information not included in the object
// definition".
type Environment struct {
	Name   string
	choice map[string]domain.Surrogate
}

// NewEnvironment creates a named, empty environment.
func NewEnvironment(name string) *Environment {
	return &Environment{Name: name, choice: make(map[string]domain.Surrogate)}
}

// Choose fixes the version an environment selects for a design.
func (e *Environment) Choose(design string, obj domain.Surrogate) {
	e.choice[design] = obj
}

// Choice reports the environment's selection for a design.
func (e *Environment) Choice(design string) (domain.Surrogate, bool) {
	v, ok := e.choice[design]
	return v, ok
}

// Resolve selects the concrete version for a generic reference. env is
// consulted only under SelectEnvironment and may be nil otherwise.
func (m *Manager) Resolve(ref GenericRef, env *Environment) (domain.Surrogate, error) {
	switch ref.Policy {
	case SelectDefault:
		return m.Default(ref.Design)
	case SelectEnvironment:
		if env == nil {
			return 0, fmt.Errorf("%w: no environment given", ErrNotEnvironment)
		}
		v, ok := env.Choice(ref.Design)
		if !ok {
			return 0, fmt.Errorf("%w: design %q in environment %q", ErrNotEnvironment, ref.Design, env.Name)
		}
		if _, isV := m.InfoOf(v); !isV {
			return 0, fmt.Errorf("%w: environment %q chose %s", ErrNotAVersion, env.Name, v)
		}
		return v, nil
	case SelectQuery:
		if ref.Query == nil {
			return 0, fmt.Errorf("version: top-down selection needs a query")
		}
		vs, err := m.Versions(ref.Design)
		if err != nil {
			return 0, err
		}
		// Latest match wins: scan from the newest version backwards.
		q := expr.Compile(ref.Query)
		for i := len(vs) - 1; i >= 0; i-- {
			info := vs[i]
			menv := &metaEnv{base: m.store.Env(info.Object), info: info}
			ok, err := q.EvalBool(menv)
			if err != nil {
				return 0, fmt.Errorf("version: selection query on %s: %w", info.Object, err)
			}
			if ok {
				return info.Object, nil
			}
		}
		return 0, fmt.Errorf("%w: design %q, query %s", ErrNoMatch, ref.Design, ref.Query)
	default:
		return 0, fmt.Errorf("version: unknown policy %d", ref.Policy)
	}
}

// BindResolved resolves a generic reference and binds the inheritor to
// the selected version under the given inheritance relationship type —
// deferring version choice to assembly time, then materializing it as a
// normal binding.
func (m *Manager) BindResolved(relType string, inheritor domain.Surrogate, ref GenericRef, env *Environment) (domain.Surrogate, domain.Surrogate, error) {
	chosen, err := m.Resolve(ref, env)
	if err != nil {
		return 0, 0, err
	}
	bsur, err := m.store.Bind(relType, inheritor, chosen)
	if err != nil {
		return 0, 0, err
	}
	return chosen, bsur, nil
}
