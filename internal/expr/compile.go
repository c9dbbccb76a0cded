package expr

import (
	"fmt"

	"cadcam/internal/domain"
)

// Compile is the evaluator of the constraint language: it walks the AST
// once and returns a chain of closures, so repeated evaluation (a catalog
// constraint checked on every object, a planner predicate against
// thousands of candidate rows) does no per-row AST type switch, no
// per-row Roots() map allocation for `where` filters, and no operator
// string dispatch. A reference interpreter in the tests is its
// differential oracle: the two must agree on value AND error text for
// every expression (FuzzCompile and TestCompileAgreesWithInterpreter).

// EvalError reports an evaluation failure with the offending expression.
type EvalError struct {
	E   Expr
	Msg string
}

func (e *EvalError) Error() string {
	return fmt.Sprintf("expr: cannot evaluate %s: %s", e.E, e.Msg)
}

// thunk is a compiled expression: evaluate under a context.
type thunk func(c cctx) (domain.Value, error)

// colThunk is a compiled path in collection context.
type colThunk func(c cctx) ([]domain.Value, error)

// cfilter is a compiled active `where` filter: the filter body compiled,
// plus its root set, computed once at compile time.
type cfilter struct {
	roots  map[string]bool
	filter thunk
	src    Expr
}

// cctx is the runtime context of a compiled evaluation: the environment
// and the `where` filters active at this point of the expression.
type cctx struct {
	env     Env
	filters []cfilter
}

// Compiled is a closure-compiled expression, safe for concurrent use.
type Compiled struct {
	src Expr
	run thunk
}

// Compile compiles e into a closure chain. Compilation never fails:
// malformed nodes compile to closures returning their evaluation error.
func Compile(e Expr) *Compiled { return &Compiled{src: e, run: compile(e)} }

// Expr returns the source AST.
func (p *Compiled) Expr() Expr { return p.src }

// Eval evaluates the compiled expression against env and returns its
// value.
func (p *Compiled) Eval(env Env) (domain.Value, error) {
	return p.run(cctx{env: env})
}

// EvalBool evaluates as a condition (the form constraints take). A null
// result counts as false, matching three-valued logic folded to
// "constraint not satisfied"; any other non-boolean result is an error.
func (p *Compiled) EvalBool(env Env) (bool, error) {
	v, err := p.Eval(env)
	if err != nil {
		return false, err
	}
	b, ok := domain.Truth(v)
	if !ok {
		return false, &EvalError{p.src, fmt.Sprintf("non-boolean result %s", v)}
	}
	return b, nil
}

func compile(e Expr) thunk {
	switch n := e.(type) {
	case Lit:
		v := n.V
		return func(cctx) (domain.Value, error) { return v, nil }
	case Path:
		return compilePath(n)
	case Neg:
		x := compile(n.X)
		return func(c cctx) (domain.Value, error) {
			v, err := x(c)
			if err != nil {
				return nil, err
			}
			return domain.Arith('-', domain.Int(0), v)
		}
	case Not:
		x := compile(n.X)
		return func(c cctx) (domain.Value, error) {
			v, err := x(c)
			if err != nil {
				return nil, err
			}
			b, ok := domain.Truth(v)
			if !ok {
				return nil, &EvalError{e, "not applied to non-boolean"}
			}
			return domain.Bool(!b), nil
		}
	case Bin:
		return compileBin(n)
	case Count:
		col := compileCollection(n.P)
		return func(c cctx) (domain.Value, error) {
			items, err := col(c)
			if err != nil {
				return nil, err
			}
			return domain.Int(len(items)), nil
		}
	case Sum:
		col := compileCollection(n.P)
		return func(c cctx) (domain.Value, error) {
			items, err := col(c)
			if err != nil {
				return nil, err
			}
			var acc domain.Value = domain.Int(0)
			for _, it := range items {
				if domain.IsNull(it) {
					continue
				}
				var aerr error
				acc, aerr = domain.Arith('+', acc, it)
				if aerr != nil {
					return nil, &EvalError{n, aerr.Error()}
				}
			}
			return acc, nil
		}
	case ForAll:
		return compileQuant(n.Binders, n.Body, true)
	case Exists:
		return compileQuant(n.Binders, n.Body, false)
	case Where:
		f := cfilter{roots: Roots(n.Filter), filter: compile(n.Filter), src: n.Filter}
		body := compile(n.Body)
		return func(c cctx) (domain.Value, error) {
			sub := cctx{env: c.env, filters: append(append([]cfilter(nil), c.filters...), f)}
			return body(sub)
		}
	}
	return func(cctx) (domain.Value, error) {
		return nil, &EvalError{e, "unknown expression node"}
	}
}

func compileBin(n Bin) thunk {
	switch n.Op {
	case "and", "or":
		l, r := compile(n.L), compile(n.R)
		and := n.Op == "and"
		op := n.Op
		return func(c cctx) (domain.Value, error) {
			lv, err := l(c)
			if err != nil {
				return nil, err
			}
			lb, ok := domain.Truth(lv)
			if !ok {
				return nil, &EvalError{n, fmt.Sprintf("%s on non-boolean %s", op, lv)}
			}
			if and && !lb {
				return domain.Bool(false), nil
			}
			if !and && lb {
				return domain.Bool(true), nil
			}
			rv, err := r(c)
			if err != nil {
				return nil, err
			}
			rb, ok := domain.Truth(rv)
			if !ok {
				return nil, &EvalError{n, fmt.Sprintf("%s on non-boolean %s", op, rv)}
			}
			return domain.Bool(rb), nil
		}
	case "in":
		return compileIn(n)
	case "+", "-", "*", "/":
		l, r := compile(n.L), compile(n.R)
		op := n.Op[0]
		return func(c cctx) (domain.Value, error) {
			lv, err := l(c)
			if err != nil {
				return nil, err
			}
			rv, err := r(c)
			if err != nil {
				return nil, err
			}
			v, aerr := domain.Arith(op, lv, rv)
			if aerr != nil {
				return nil, &EvalError{n, aerr.Error()}
			}
			return v, nil
		}
	case "=", "!=":
		l, r := compile(n.L), compile(n.R)
		neq := n.Op == "!="
		return func(c cctx) (domain.Value, error) {
			lv, err := l(c)
			if err != nil {
				return nil, err
			}
			rv, err := r(c)
			if err != nil {
				return nil, err
			}
			eq := lv.Equal(rv)
			if domain.IsNull(lv) && domain.IsNull(rv) {
				eq = true
			}
			if neq {
				eq = !eq
			}
			return domain.Bool(eq), nil
		}
	case "<", "<=", ">", ">=":
		l, r := compile(n.L), compile(n.R)
		op := n.Op
		return func(c cctx) (domain.Value, error) {
			lv, err := l(c)
			if err != nil {
				return nil, err
			}
			rv, err := r(c)
			if err != nil {
				return nil, err
			}
			cmp, cerr := domain.Compare(lv, rv)
			if cerr != nil {
				return nil, &EvalError{n, cerr.Error()}
			}
			var b bool
			switch op {
			case "<":
				b = cmp < 0
			case "<=":
				b = cmp <= 0
			case ">":
				b = cmp > 0
			case ">=":
				b = cmp >= 0
			}
			return domain.Bool(b), nil
		}
	}
	return func(cctx) (domain.Value, error) {
		return nil, &EvalError{n, fmt.Sprintf("unknown operator %q", n.Op)}
	}
}

func compileIn(n Bin) thunk {
	l := compile(n.L)
	if p, ok := n.R.(Path); ok {
		col := compileCollection(p)
		return func(c cctx) (domain.Value, error) {
			lv, err := l(c)
			if err != nil {
				return nil, err
			}
			items, err := col(c)
			if err != nil {
				return nil, err
			}
			for _, it := range items {
				if it.Equal(lv) {
					return domain.Bool(true), nil
				}
			}
			return domain.Bool(false), nil
		}
	}
	r := compile(n.R)
	return func(c cctx) (domain.Value, error) {
		lv, err := l(c)
		if err != nil {
			return nil, err
		}
		rv, err := r(c)
		if err != nil {
			return nil, err
		}
		items, ok := elems(rv)
		if !ok {
			return nil, &EvalError{n, "right operand of in is not a collection"}
		}
		for _, it := range items {
			if it.Equal(lv) {
				return domain.Bool(true), nil
			}
		}
		return domain.Bool(false), nil
	}
}

func compileQuant(binders []Binder, body Expr, forAll bool) thunk {
	type cbinder struct {
		name string
		col  colThunk
	}
	cbs := make([]cbinder, len(binders))
	for i, b := range binders {
		cbs[i] = cbinder{name: b.Var, col: compileCollection(b.P)}
	}
	cbody := compile(body)
	var loop func(c cctx, i int, env Env) (domain.Value, error)
	loop = func(c cctx, i int, env Env) (domain.Value, error) {
		if i == len(cbs) {
			v, err := cbody(cctx{env: env, filters: c.filters})
			if err != nil {
				return nil, err
			}
			b, ok := domain.Truth(v)
			if !ok {
				return nil, &EvalError{body, "quantifier body is not boolean"}
			}
			return domain.Bool(b), nil
		}
		items, err := cbs[i].col(cctx{env: env, filters: c.filters})
		if err != nil {
			return nil, err
		}
		for _, it := range items {
			sub := &bindEnv{base: env, name: cbs[i].name, val: it}
			v, err := loop(c, i+1, sub)
			if err != nil {
				return nil, err
			}
			hold := bool(v.(domain.Bool))
			if forAll && !hold {
				return domain.Bool(false), nil
			}
			if !forAll && hold {
				return domain.Bool(true), nil
			}
		}
		return domain.Bool(forAll), nil
	}
	return func(c cctx) (domain.Value, error) { return loop(c, 0, c.env) }
}

func compilePath(p Path) thunk {
	root := p.Segs[0]
	if len(p.Segs) == 1 {
		sym := domain.Sym(root)
		return func(c cctx) (domain.Value, error) {
			if v, ok := c.env.Lookup(root); ok {
				return v, nil
			}
			return sym, nil
		}
	}
	rest := p.Segs[1:]
	return func(c cctx) (domain.Value, error) {
		cur, ok := c.env.Lookup(root)
		if !ok {
			return nil, &EvalError{p, fmt.Sprintf("unknown name %q", root)}
		}
		for _, seg := range rest {
			next, err := cfield(c, cur, seg, p)
			if err != nil {
				return nil, err
			}
			cur = next
		}
		return cur, nil
	}
}

// cfield selects one field of a value: a record field, an attribute of a
// referenced object, or null from null.
func cfield(c cctx, v domain.Value, name string, p Path) (domain.Value, error) {
	switch x := v.(type) {
	case *domain.Rec:
		return x.Get(name), nil
	case domain.Ref:
		if av, ok := c.env.AttrOf(x, name); ok {
			return av, nil
		}
		return nil, &EvalError{p, fmt.Sprintf("object %s has no attribute %q", x, name)}
	}
	if domain.IsNull(v) {
		return domain.NullValue, nil
	}
	return nil, &EvalError{p, fmt.Sprintf("cannot select %q from %s", name, v)}
}

func compileCollection(p Path) colThunk {
	root := p.Segs[0]
	rest := p.Segs[1:]
	multi := len(p.Segs) > 1
	return func(c cctx) ([]domain.Value, error) {
		items, ok := c.env.Collection(root)
		if !ok {
			if v, vok := c.env.Lookup(root); vok {
				if items, ok = elems(v); !ok {
					if ref, isRef := v.(domain.Ref); isRef && multi {
						items, ok = []domain.Value{ref}, true
					}
				}
			}
			if !ok {
				return nil, &EvalError{p, fmt.Sprintf("unknown collection %q", root)}
			}
		}
		items, err := applyCFilters(c, root, items)
		if err != nil {
			return nil, err
		}
		for _, seg := range rest {
			var next []domain.Value
			for _, it := range items {
				if ref, isRef := it.(domain.Ref); isRef {
					if sub, ok := c.env.CollectionOf(ref, seg); ok {
						next = append(next, sub...)
						continue
					}
				}
				v, err := cfield(c, it, seg, p)
				if err != nil {
					return nil, err
				}
				if sub, ok := elems(v); ok {
					next = append(next, sub...)
				} else {
					next = append(next, v)
				}
			}
			items = next
		}
		return items, nil
	}
}

// applyCFilters restricts the members of a root collection by every
// active filter that mentions the root. Filters nested in filters are not
// re-applied, so the filter body runs with a filter-free context.
func applyCFilters(c cctx, root string, items []domain.Value) ([]domain.Value, error) {
	for _, f := range c.filters {
		if !f.roots[root] {
			continue
		}
		var kept []domain.Value
		for _, it := range items {
			sub := &bindEnv{base: c.env, name: root, val: it}
			v, err := f.filter(cctx{env: sub})
			if err != nil {
				return nil, err
			}
			b, ok := domain.Truth(v)
			if !ok {
				return nil, &EvalError{f.src, "where filter is not boolean"}
			}
			if b {
				kept = append(kept, it)
			}
		}
		items = kept
	}
	return items, nil
}
