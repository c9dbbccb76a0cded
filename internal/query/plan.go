// Package query plans and executes predicate queries over database-level
// class extents. A query is a class name plus a constraint-language
// predicate; the planner chooses between a secondary-index probe, an
// adaptive route-cache probe and a plain class-member scan, and EXPLAIN
// renders the choice with its cost estimates. Queries read through an
// object.View: the live store's, which holds no lock across rows (each
// row takes and releases its own), or a snapshot's, which serves extents,
// values and index probes at its pin however long the query runs.
package query

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"cadcam/internal/domain"
	"cadcam/internal/expr"
	"cadcam/internal/object"
)

// Mode identifies the access path a plan uses.
type Mode int

// Access paths, cheapest-first when applicable.
const (
	// FullScan evaluates the predicate on every class member.
	FullScan Mode = iota
	// IndexScan probes a secondary index for candidates, then re-applies
	// the full predicate to each (bounds are widened to a superset).
	IndexScan
	// RouteProbe groups members by the inheritance-chain owner of the
	// predicate's single attribute and evaluates once per distinct owner.
	RouteProbe
)

func (m Mode) String() string {
	switch m {
	case IndexScan:
		return "index scan"
	case RouteProbe:
		return "route-cache probe"
	}
	return "class-member scan"
}

// Plan is a costed access path for one query. Build it once, run it
// against the same view (or another one: a plan built on the live store
// runs on a snapshot and vice versa — Run degrades to a scan if the
// chosen index is not usable there).
type Plan struct {
	Class string
	Where expr.Expr // nil lists the whole extent

	Mode  Mode
	Index string       // IndexScan: chosen index name
	Attr  string       // IndexScan / RouteProbe: the attribute driving the path
	Lo    domain.Value // IndexScan: inclusive lower bound, nil = open
	Hi    domain.Value // IndexScan: inclusive upper bound, nil = open

	EstCandidates int // IndexScan: estimated candidates; else extent size
	ClassSize     int

	pred  *expr.Compiled
	notes []string
}

func (p *Plan) note(format string, args ...any) {
	p.notes = append(p.notes, fmt.Sprintf(format, args...))
}

// sarg is one sargable conjunct: attr ⋈ literal with ⋈ a comparison,
// normalized to an inclusive [lo, hi] range. Strict bounds are widened
// (the residual predicate re-cuts them), which also absolves the index's
// float64 key collapse from producing false negatives on huge integers.
type sarg struct {
	attr string
	op   string
	lo   domain.Value
	hi   domain.Value
}

// conjuncts flattens the top-level and-tree.
func conjuncts(e expr.Expr) []expr.Expr {
	if b, ok := e.(expr.Bin); ok && b.Op == "and" {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	return []expr.Expr{e}
}

// sargOf extracts a sargable range from one conjunct: a comparison
// between a bare single-segment attribute path and a literal, either way
// round. Bare symbols (Status = ACTIVE) parse as paths, not literals,
// and a name can resolve as an attribute on some members — treating it
// as a symbol constant could miss rows, so only true literals qualify.
func sargOf(e expr.Expr) *sarg {
	b, ok := e.(expr.Bin)
	if !ok {
		return nil
	}
	op := b.Op
	var attr string
	var v domain.Value
	if p, pok := b.L.(expr.Path); pok && len(p.Segs) == 1 {
		l, lok := b.R.(expr.Lit)
		if !lok {
			return nil
		}
		attr, v = p.Segs[0], l.V
	} else if p, pok := b.R.(expr.Path); pok && len(p.Segs) == 1 {
		l, lok := b.L.(expr.Lit)
		if !lok {
			return nil
		}
		attr, v = p.Segs[0], l.V
		op = flip(op)
	} else {
		return nil
	}
	if !indexableLit(v) {
		return nil
	}
	switch op {
	case "=":
		return &sarg{attr: attr, op: op, lo: v, hi: v}
	case "<", "<=":
		return &sarg{attr: attr, op: op, hi: v}
	case ">", ">=":
		return &sarg{attr: attr, op: op, lo: v}
	}
	return nil
}

// flip mirrors a comparison when the literal is on the left
// (4 < Width ≡ Width > 4).
func flip(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

// indexableLit reports whether a literal can serve as an index bound:
// the scalar kinds the index keys on. NaN is rejected (it compares equal
// to nothing the index can find).
func indexableLit(v domain.Value) bool {
	switch x := v.(type) {
	case domain.Int, domain.Str, domain.Bool, domain.Sym:
		return true
	case domain.Rl:
		return !math.IsNaN(float64(x))
	}
	return false
}

// Build plans a query over className. It prefers an index probe on the
// most selective sargable conjunct, falls back to the route-cache probe
// for single-attribute predicates, and otherwise scans the extent.
func Build(src object.View, className string, where expr.Expr) (*Plan, error) {
	size := src.ClassSize(className)
	if size < 0 {
		return nil, fmt.Errorf("query: no class %q", className)
	}
	p := &Plan{Class: className, Where: where, Mode: FullScan, ClassSize: size, EstCandidates: size}
	if where == nil {
		return p, nil
	}
	p.pred = expr.Compile(where)

	idxByAttr := make(map[string]object.IndexDef)
	for _, d := range src.Indexes() {
		if d.ClassName == className {
			idxByAttr[d.AttrName] = d
		}
	}
	var best *sarg
	bestEst := -1
	var bestIdx object.IndexDef
	for _, c := range conjuncts(where) {
		sg := sargOf(c)
		if sg == nil {
			continue
		}
		d, ok := idxByAttr[sg.attr]
		if !ok {
			p.note("conjunct %s is sargable but attribute %q has no index", c, sg.attr)
			continue
		}
		est := src.IndexEstimate(className, sg.attr, sg.lo, sg.hi)
		if est < 0 {
			continue
		}
		if bestEst < 0 || est < bestEst {
			best, bestEst, bestIdx = sg, est, d
		} else {
			p.note("index %q on %q estimated %d candidates, beaten", d.Name, sg.attr, est)
		}
	}
	if best != nil {
		p.Mode = IndexScan
		p.Index = bestIdx.Name
		p.Attr = best.attr
		p.Lo, p.Hi = best.lo, best.hi
		p.EstCandidates = bestEst
		return p, nil
	}

	if roots := expr.Roots(where); len(roots) == 1 {
		for r := range roots {
			p.Attr = r
		}
		p.Mode = RouteProbe
	}
	return p, nil
}

// Run executes the plan. Rows whose predicate cannot be evaluated
// (unknown names, type-mismatched comparisons, nulls reaching a
// comparison) do not match — the same folding constraints use. Results
// are sorted ascending by surrogate.
func (p *Plan) Run(src object.View) ([]domain.Surrogate, error) {
	if p.Mode == IndexScan {
		if cands, ok := src.IndexProbe(p.Class, p.Attr, p.Lo, p.Hi); ok {
			return p.filter(src, cands), nil
		}
		// The index was dropped (or never covered this view's sequence
		// point): degrade to a scan rather than fail.
	}
	members, err := src.Class(p.Class)
	if err != nil {
		return nil, err
	}
	if p.Where == nil {
		out := append([]domain.Surrogate(nil), members...)
		sortSurs(out)
		return out, nil
	}
	if p.Mode == RouteProbe {
		return p.routeProbe(src, members), nil
	}
	return p.filter(src, members), nil
}

func (p *Plan) filter(src object.View, surs []domain.Surrogate) []domain.Surrogate {
	out := make([]domain.Surrogate, 0, len(surs))
	for _, sur := range surs {
		if ok, err := p.pred.EvalBool(src.Env(sur)); err == nil && ok {
			out = append(out, sur)
		}
	}
	sortSurs(out)
	return out
}

// routeProbe evaluates the single-attribute predicate once per distinct
// inheritance-chain owner: members inheriting the attribute from the
// same transmitter share its value, so they share the verdict. Members
// owning the attribute locally are their own chain end and evaluate
// individually — the worst case is a scan plus a cached chain walk per
// row, the best case one evaluation per transmitter.
func (p *Plan) routeProbe(src object.View, members []domain.Surrogate) []domain.Surrogate {
	verdict := make(map[domain.Surrogate]bool)
	out := make([]domain.Surrogate, 0, len(members))
	for _, m := range members {
		owner, ok := src.ChainOwner(m, p.Attr)
		if !ok || owner == 0 {
			owner = m
		}
		v, seen := verdict[owner]
		if !seen {
			got, err := p.pred.EvalBool(src.Env(owner))
			v = err == nil && got
			verdict[owner] = v
		}
		if v {
			out = append(out, m)
		}
	}
	sortSurs(out)
	return out
}

func sortSurs(s []domain.Surrogate) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

// Explain renders the plan, its estimates and the alternatives the
// planner rejected.
func (p *Plan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query over class %q", p.Class)
	if p.Where != nil {
		fmt.Fprintf(&b, " where %s", p.Where)
	}
	fmt.Fprintf(&b, " (%d members)\n", p.ClassSize)
	switch p.Mode {
	case IndexScan:
		fmt.Fprintf(&b, "-> index scan via %q on attribute %q, range %s, est. %d candidate(s) of %d\n",
			p.Index, p.Attr, rangeStr(p.Lo, p.Hi), p.EstCandidates, p.ClassSize)
		b.WriteString("   residual: full predicate re-applied to each candidate\n")
	case RouteProbe:
		fmt.Fprintf(&b, "-> route-cache probe on attribute %q: group %d member(s) by inheritance-chain owner, evaluate once per owner\n",
			p.Attr, p.ClassSize)
	default:
		fmt.Fprintf(&b, "-> class-member scan: evaluate predicate on all %d member(s)\n", p.ClassSize)
	}
	for _, n := range p.notes {
		fmt.Fprintf(&b, "   note: %s\n", n)
	}
	return b.String()
}

func rangeStr(lo, hi domain.Value) string {
	l, h := "..", ".."
	if lo != nil {
		l = lo.String()
	}
	if hi != nil {
		h = hi.String()
	}
	return "[" + l + ", " + h + "]"
}

// Prepare parses and plans a query without running it. An empty
// predicate lists the whole extent.
func Prepare(src object.View, className, where string) (*Plan, error) {
	var e expr.Expr
	if strings.TrimSpace(where) != "" {
		parsed, err := expr.Parse(where)
		if err != nil {
			return nil, err
		}
		e = parsed
	}
	return Build(src, className, e)
}

// Run parses, plans and executes a query in one call, returning the
// matches and the plan (for EXPLAIN-after-the-fact).
func Run(src object.View, className, where string) ([]domain.Surrogate, *Plan, error) {
	p, err := Prepare(src, className, where)
	if err != nil {
		return nil, nil, err
	}
	out, err := p.Run(src)
	return out, p, err
}

// Naive is the planner's access-path oracle: a full scan that evaluates
// the predicate on every class member, with no index and no route
// probe. Run must agree with it element for element on any view.
func Naive(src object.View, className string, where expr.Expr) ([]domain.Surrogate, error) {
	members, err := src.Class(className)
	if err != nil {
		return nil, err
	}
	var pred *expr.Compiled
	if where != nil {
		pred = expr.Compile(where)
	}
	out := make([]domain.Surrogate, 0, len(members))
	for _, m := range members {
		if pred == nil {
			out = append(out, m)
			continue
		}
		if ok, err := pred.EvalBool(src.Env(m)); err == nil && ok {
			out = append(out, m)
		}
	}
	sortSurs(out)
	return out, nil
}
