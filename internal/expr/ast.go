package expr

import (
	"strconv"
	"strings"

	"cadcam/internal/domain"
)

// Expr is a parsed expression node. Expressions are immutable after
// parsing and safe for concurrent evaluation.
type Expr interface {
	// String renders the expression in source-like syntax.
	String() string
	// roots appends the root identifiers of all paths in the expression;
	// used by `where` filters to decide which collections they restrict.
	roots(set map[string]bool)
}

// Lit is a literal value (integer, real, string, boolean, null, or an enum
// symbol produced by name resolution at evaluation time).
type Lit struct{ V domain.Value }

func (l Lit) roots(map[string]bool) {}

// String renders a real with a decimal point and no exponent, the one
// form the lexer reads as a real, so 4.0 does not come back as the
// integer 4 and 1000000.0 not as the unreadable 1e+06.
func (l Lit) String() string {
	r, ok := l.V.(domain.Rl)
	if !ok {
		return l.V.String()
	}
	s := strconv.FormatFloat(float64(r), 'f', -1, 64)
	if !strings.Contains(s, ".") {
		s += ".0"
	}
	return s
}

// Path is a dotted identifier path such as Length, Pins.InOut or
// Wire.Pin1. A single-segment path is a bare identifier.
type Path struct{ Segs []string }

func (p Path) String() string          { return strings.Join(p.Segs, ".") }
func (p Path) roots(s map[string]bool) { s[p.Segs[0]] = true }

// Root returns the first segment.
func (p Path) Root() string { return p.Segs[0] }

// Bin is a binary operation. Op is one of:
// "or" "and" "=" "!=" "<" "<=" ">" ">=" "in" "+" "-" "*" "/".
type Bin struct {
	Op   string
	L, R Expr
}

func (b Bin) String() string { return "(" + b.L.String() + " " + b.Op + " " + b.R.String() + ")" }
func (b Bin) roots(s map[string]bool) {
	b.L.roots(s)
	b.R.roots(s)
}

// Not is logical negation.
type Not struct{ X Expr }

func (n Not) String() string          { return "(not " + n.X.String() + ")" }
func (n Not) roots(s map[string]bool) { n.X.roots(s) }

// Neg is arithmetic negation.
type Neg struct{ X Expr }

func (n Neg) String() string          { return "-" + n.X.String() }
func (n Neg) roots(s map[string]bool) { n.X.roots(s) }

// Count counts the members of a collection path, e.g. count(Pins) or
// count(SubGates.Pins). The paper's "#s in Bolt" form desugars to
// Count{Path{Bolt}}. An active `where` filter whose paths are rooted at
// the collection's root restricts the counted members.
type Count struct{ P Path }

func (c Count) String() string          { return "count(" + c.P.String() + ")" }
func (c Count) roots(s map[string]bool) { c.P.roots(s) }

// Sum adds the numeric values reached by a collection path, e.g.
// sum(Bores.Length).
type Sum struct{ P Path }

func (c Sum) String() string          { return "sum(" + c.P.String() + ")" }
func (c Sum) roots(s map[string]bool) { c.P.roots(s) }

// Binder introduces a quantified variable ranging over a collection.
type Binder struct {
	Var string
	P   Path
}

// ForAll is universal quantification over the cross product of its
// binders, e.g. for (s in Bolt, n in Nut): s.Diameter = n.Diameter.
type ForAll struct {
	Binders []Binder
	Body    Expr
}

func (f ForAll) String() string { return quantString("for", f.Binders, f.Body) }
func (f ForAll) roots(s map[string]bool) {
	for _, b := range f.Binders {
		b.P.roots(s)
	}
	f.Body.roots(s)
}

// Exists is existential quantification with the same shape as ForAll.
type Exists struct {
	Binders []Binder
	Body    Expr
}

func (f Exists) String() string { return quantString("exists", f.Binders, f.Body) }
func (f Exists) roots(s map[string]bool) {
	for _, b := range f.Binders {
		b.P.roots(s)
	}
	f.Body.roots(s)
}

func quantString(kw string, binders []Binder, body Expr) string {
	var b strings.Builder
	b.WriteString("(" + kw + " (")
	for i, bd := range binders {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(bd.Var + " in " + bd.P.String())
	}
	b.WriteString("): " + body.String() + ")")
	return b.String()
}

// Where evaluates Body with Filter restricting every collection scan whose
// root identifier appears in Filter, reproducing the paper's
//
//	count (Pins) = 2 where Pins.InOut = IN
//
// where the filter is evaluated per member with the collection root bound
// to the member.
type Where struct {
	Body   Expr
	Filter Expr
}

func (w Where) String() string { return w.Body.String() + " where " + w.Filter.String() }
func (w Where) roots(s map[string]bool) {
	w.Body.roots(s)
	w.Filter.roots(s)
}

// Roots returns the set of root identifiers referenced by e.
func Roots(e Expr) map[string]bool {
	s := make(map[string]bool)
	e.roots(s)
	return s
}
