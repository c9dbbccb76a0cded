package schema

import (
	"fmt"
	"sort"

	"cadcam/internal/domain"
)

// Catalog holds every declared domain and type and, after Validate, the
// computed effective types. A Catalog is built single-threaded and becomes
// safe for concurrent reads once validated.
type Catalog struct {
	domains   map[string]*domain.Domain
	objTypes  map[string]*ObjectType
	relTypes  map[string]*RelType
	inherRels map[string]*InherRelType
	effective map[string]*EffectiveType
	validated bool

	// Computed by Validate: O(1) lookup tables over the relationship-type
	// declarations, so the store's hot read paths never scan declaration
	// slices.
	relRoles   map[string]map[string]bool
	relMembers map[string]map[string]bool
}

// Error is a schema definition error.
type Error struct {
	Where string // type or domain name
	Msg   string
}

func (e *Error) Error() string { return fmt.Sprintf("schema: %s: %s", e.Where, e.Msg) }

func errf(where, format string, args ...any) error {
	return &Error{Where: where, Msg: fmt.Sprintf(format, args...)}
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		domains:   make(map[string]*domain.Domain),
		objTypes:  make(map[string]*ObjectType),
		relTypes:  make(map[string]*RelType),
		inherRels: make(map[string]*InherRelType),
	}
}

// AddDomain registers a named domain ("domain Point = ...").
func (c *Catalog) AddDomain(d *domain.Domain) error {
	if c.validated {
		return errf(d.Name(), "catalog already validated")
	}
	if d.Name() == "" {
		return errf("<anonymous>", "domain needs a name to be registered")
	}
	if _, dup := c.domains[d.Name()]; dup {
		return errf(d.Name(), "duplicate domain")
	}
	c.domains[d.Name()] = d
	return nil
}

// Domain resolves a registered domain by name.
func (c *Catalog) Domain(name string) (*domain.Domain, bool) {
	d, ok := c.domains[name]
	return d, ok
}

// AddObjectType registers an object type and recursively registers the
// inline member types of its subclasses under "Owner.Subclass".
func (c *Catalog) AddObjectType(t *ObjectType) error {
	if c.validated {
		return errf(t.Name, "catalog already validated")
	}
	if t.Name == "" {
		return errf("<anonymous>", "object type needs a name")
	}
	if c.nameTaken(t.Name) {
		return errf(t.Name, "duplicate type name")
	}
	c.objTypes[t.Name] = t
	return c.registerInline(t.Name, t.Subclasses)
}

// AddRelType registers a relationship type (and inline subclass types).
func (c *Catalog) AddRelType(t *RelType) error {
	if c.validated {
		return errf(t.Name, "catalog already validated")
	}
	if t.Name == "" {
		return errf("<anonymous>", "relationship type needs a name")
	}
	if c.nameTaken(t.Name) {
		return errf(t.Name, "duplicate type name")
	}
	if len(t.Participants) == 0 {
		return errf(t.Name, "relationship type needs at least one participant")
	}
	c.relTypes[t.Name] = t
	return c.registerInline(t.Name, t.Subclasses)
}

// AddInherRelType registers an inheritance relationship type.
func (c *Catalog) AddInherRelType(t *InherRelType) error {
	if c.validated {
		return errf(t.Name, "catalog already validated")
	}
	if t.Name == "" {
		return errf("<anonymous>", "inheritance relationship type needs a name")
	}
	if c.nameTaken(t.Name) {
		return errf(t.Name, "duplicate type name")
	}
	if t.Transmitter == "" {
		return errf(t.Name, "transmitter type is required")
	}
	if len(t.Inheriting) == 0 {
		return errf(t.Name, "inheriting clause must name at least one attribute or subclass")
	}
	c.inherRels[t.Name] = t
	return nil
}

func (c *Catalog) registerInline(owner string, subs []Subclass) error {
	for i := range subs {
		s := &subs[i]
		if s.Inline == nil {
			continue
		}
		inline := s.Inline
		if inline.Name == "" {
			inline.Name = owner + "." + s.Name
		}
		inline.Anonymous = true
		if c.nameTaken(inline.Name) {
			return errf(inline.Name, "duplicate inline type name")
		}
		c.objTypes[inline.Name] = inline
		s.ElemType = inline.Name
		if err := c.registerInline(inline.Name, inline.Subclasses); err != nil {
			return err
		}
	}
	return nil
}

func (c *Catalog) nameTaken(name string) bool {
	if _, ok := c.objTypes[name]; ok {
		return true
	}
	if _, ok := c.relTypes[name]; ok {
		return true
	}
	_, ok := c.inherRels[name]
	return ok
}

// ObjectType resolves an object type by name.
func (c *Catalog) ObjectType(name string) (*ObjectType, bool) {
	t, ok := c.objTypes[name]
	return t, ok
}

// RelType resolves a relationship type by name.
func (c *Catalog) RelType(name string) (*RelType, bool) {
	t, ok := c.relTypes[name]
	return t, ok
}

// InherRelType resolves an inheritance relationship type by name.
func (c *Catalog) InherRelType(name string) (*InherRelType, bool) {
	t, ok := c.inherRels[name]
	return t, ok
}

// ObjectTypeNames returns all object type names, sorted, including inline
// (anonymous) member types.
func (c *Catalog) ObjectTypeNames() []string {
	names := make([]string, 0, len(c.objTypes))
	for n := range c.objTypes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RelTypeNames returns all relationship type names, sorted.
func (c *Catalog) RelTypeNames() []string {
	names := make([]string, 0, len(c.relTypes))
	for n := range c.relTypes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// InherRelTypeNames returns all inheritance relationship type names, sorted.
func (c *Catalog) InherRelTypeNames() []string {
	names := make([]string, 0, len(c.inherRels))
	for n := range c.inherRels {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Validated reports whether Validate has succeeded.
func (c *Catalog) Validated() bool { return c.validated }

// buildRelIndexes precomputes the per-relationship-type name tables; called
// at the end of Validate, after which the catalog is immutable.
func (c *Catalog) buildRelIndexes() {
	c.relRoles = make(map[string]map[string]bool, len(c.relTypes))
	c.relMembers = make(map[string]map[string]bool, len(c.relTypes))
	for name, t := range c.relTypes {
		roles := make(map[string]bool, len(t.Participants))
		for _, p := range t.Participants {
			roles[p.Name] = true
		}
		c.relRoles[name] = roles
		members := make(map[string]bool, len(t.Subclasses)+len(t.SubRels))
		for _, sc := range t.Subclasses {
			members[sc.Name] = true
		}
		for _, sr := range t.SubRels {
			members[sr.Name] = true
		}
		c.relMembers[name] = members
	}
}

// RelRole reports whether a relationship type declares the participant
// role. The catalog must be validated.
func (c *Catalog) RelRole(typeName, role string) bool {
	return c.relRoles[typeName][role]
}

// RelMemberName reports whether a relationship type declares a subclass or
// sub-relationship of that name. The catalog must be validated.
func (c *Catalog) RelMemberName(typeName, member string) bool {
	return c.relMembers[typeName][member]
}
