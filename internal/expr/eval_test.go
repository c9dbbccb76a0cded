package expr

import (
	"fmt"
	"strings"
	"testing"

	"cadcam/internal/domain"
)

// The reference interpreter: a direct AST walk, kept as the differential
// oracle for Compile (TestCompileAgreesWithInterpreter, FuzzCompile and
// the behaviour tests below, which evaluate every case both ways). The
// program evaluates only compiled expressions.

// EvalValue evaluates e against env and returns its value.
func EvalValue(e Expr, env Env) (domain.Value, error) {
	ctx := &evalCtx{env: env}
	return ctx.eval(e)
}

// EvalBool evaluates e as a condition (the form constraints take).
// A null result counts as false, matching three-valued logic folded to
// "constraint not satisfied".
func EvalBool(e Expr, env Env) (bool, error) {
	v, err := EvalValue(e, env)
	if err != nil {
		return false, err
	}
	b, ok := domain.Truth(v)
	if !ok {
		return false, &EvalError{e, fmt.Sprintf("non-boolean result %s", v)}
	}
	return b, nil
}

type activeFilter struct {
	roots  map[string]bool
	filter Expr
}

type evalCtx struct {
	env     Env
	filters []activeFilter
}

func (c *evalCtx) withEnv(env Env) *evalCtx {
	return &evalCtx{env: env, filters: c.filters}
}

func (c *evalCtx) eval(e Expr) (domain.Value, error) {
	switch n := e.(type) {
	case Lit:
		return n.V, nil
	case Path:
		return c.evalPath(n)
	case Neg:
		v, err := c.eval(n.X)
		if err != nil {
			return nil, err
		}
		return domain.Arith('-', domain.Int(0), v)
	case Not:
		v, err := c.eval(n.X)
		if err != nil {
			return nil, err
		}
		b, ok := domain.Truth(v)
		if !ok {
			return nil, &EvalError{e, "not applied to non-boolean"}
		}
		return domain.Bool(!b), nil
	case Bin:
		return c.evalBin(n)
	case Count:
		items, err := c.collection(n.P)
		if err != nil {
			return nil, err
		}
		return domain.Int(len(items)), nil
	case Sum:
		return c.evalSum(n)
	case ForAll:
		return c.evalQuant(n.Binders, n.Body, true)
	case Exists:
		return c.evalQuant(n.Binders, n.Body, false)
	case Where:
		f := activeFilter{roots: Roots(n.Filter), filter: n.Filter}
		sub := &evalCtx{env: c.env, filters: append(append([]activeFilter(nil), c.filters...), f)}
		return sub.eval(n.Body)
	}
	return nil, &EvalError{e, "unknown expression node"}
}

func (c *evalCtx) evalBin(n Bin) (domain.Value, error) {
	switch n.Op {
	case "and", "or":
		lv, err := c.eval(n.L)
		if err != nil {
			return nil, err
		}
		lb, ok := domain.Truth(lv)
		if !ok {
			return nil, &EvalError{n, fmt.Sprintf("%s on non-boolean %s", n.Op, lv)}
		}
		if n.Op == "and" && !lb {
			return domain.Bool(false), nil
		}
		if n.Op == "or" && lb {
			return domain.Bool(true), nil
		}
		rv, err := c.eval(n.R)
		if err != nil {
			return nil, err
		}
		rb, ok := domain.Truth(rv)
		if !ok {
			return nil, &EvalError{n, fmt.Sprintf("%s on non-boolean %s", n.Op, rv)}
		}
		return domain.Bool(rb), nil
	case "in":
		return c.evalIn(n)
	case "+", "-", "*", "/":
		lv, err := c.eval(n.L)
		if err != nil {
			return nil, err
		}
		rv, err := c.eval(n.R)
		if err != nil {
			return nil, err
		}
		v, err := domain.Arith(n.Op[0], lv, rv)
		if err != nil {
			return nil, &EvalError{n, err.Error()}
		}
		return v, nil
	case "=", "!=":
		lv, err := c.eval(n.L)
		if err != nil {
			return nil, err
		}
		rv, err := c.eval(n.R)
		if err != nil {
			return nil, err
		}
		eq := lv.Equal(rv)
		if domain.IsNull(lv) && domain.IsNull(rv) {
			eq = true
		}
		if n.Op == "!=" {
			eq = !eq
		}
		return domain.Bool(eq), nil
	case "<", "<=", ">", ">=":
		lv, err := c.eval(n.L)
		if err != nil {
			return nil, err
		}
		rv, err := c.eval(n.R)
		if err != nil {
			return nil, err
		}
		cmp, err := domain.Compare(lv, rv)
		if err != nil {
			return nil, &EvalError{n, err.Error()}
		}
		var b bool
		switch n.Op {
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
	return nil, &EvalError{n, fmt.Sprintf("unknown operator %q", n.Op)}
}

// evalIn implements membership: the right side is preferably a collection
// path ("Wire.Pin1 in SubGates.Pins"); otherwise a set/list value.
func (c *evalCtx) evalIn(n Bin) (domain.Value, error) {
	lv, err := c.eval(n.L)
	if err != nil {
		return nil, err
	}
	var items []domain.Value
	if p, ok := n.R.(Path); ok {
		items, err = c.collection(p)
		if err != nil {
			return nil, err
		}
	} else {
		rv, err := c.eval(n.R)
		if err != nil {
			return nil, err
		}
		var ok bool
		items, ok = elems(rv)
		if !ok {
			return nil, &EvalError{n, "right operand of in is not a collection"}
		}
	}
	for _, it := range items {
		if it.Equal(lv) {
			return domain.Bool(true), nil
		}
	}
	return domain.Bool(false), nil
}

func (c *evalCtx) evalSum(n Sum) (domain.Value, error) {
	items, err := c.collection(n.P)
	if err != nil {
		return nil, err
	}
	var acc domain.Value = domain.Int(0)
	for _, it := range items {
		if domain.IsNull(it) {
			continue
		}
		acc, err = domain.Arith('+', acc, it)
		if err != nil {
			return nil, &EvalError{n, err.Error()}
		}
	}
	return acc, nil
}

func (c *evalCtx) evalQuant(binders []Binder, body Expr, forAll bool) (domain.Value, error) {
	return c.quantLoop(binders, body, forAll, c.env)
}

func (c *evalCtx) quantLoop(binders []Binder, body Expr, forAll bool, env Env) (domain.Value, error) {
	if len(binders) == 0 {
		v, err := c.withEnv(env).eval(body)
		if err != nil {
			return nil, err
		}
		b, ok := domain.Truth(v)
		if !ok {
			return nil, &EvalError{body, "quantifier body is not boolean"}
		}
		return domain.Bool(b), nil
	}
	b0 := binders[0]
	items, err := c.withEnv(env).collection(b0.P)
	if err != nil {
		return nil, err
	}
	for _, it := range items {
		sub := &bindEnv{base: env, name: b0.Var, val: it}
		v, err := c.quantLoop(binders[1:], body, forAll, sub)
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

// evalPath resolves a dotted path as a single value. An unresolvable
// single-segment identifier denotes an enum symbol (IN, NAND, ...), which
// is how symbols appear as bare names in the paper's constraints.
func (c *evalCtx) evalPath(p Path) (domain.Value, error) {
	cur, ok := c.env.Lookup(p.Segs[0])
	if !ok {
		if len(p.Segs) == 1 {
			return domain.Sym(p.Segs[0]), nil
		}
		return nil, &EvalError{p, fmt.Sprintf("unknown name %q", p.Segs[0])}
	}
	for _, seg := range p.Segs[1:] {
		next, err := c.field(cur, seg, p)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}

func (c *evalCtx) field(v domain.Value, name string, p Path) (domain.Value, error) {
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

// collection resolves a path in collection context: the root names a
// subclass extent or a set/list attribute; each further segment flat-maps
// over the members (subclass of an object member, record field, attribute
// of an object member). Active `where` filters restrict the root scan.
func (c *evalCtx) collection(p Path) ([]domain.Value, error) {
	items, ok := c.env.Collection(p.Segs[0])
	if !ok {
		if v, vok := c.env.Lookup(p.Segs[0]); vok {
			if items, ok = elems(v); !ok {
				// A single object reference navigates as a one-member
				// collection, so "for b in p.Bores" works when p is a
				// quantified variable bound to an object.
				if ref, isRef := v.(domain.Ref); isRef && len(p.Segs) > 1 {
					items, ok = []domain.Value{ref}, true
				}
			}
		}
		if !ok {
			return nil, &EvalError{p, fmt.Sprintf("unknown collection %q", p.Segs[0])}
		}
	}
	items, err := c.applyFilters(p.Segs[0], items)
	if err != nil {
		return nil, err
	}
	for _, seg := range p.Segs[1:] {
		var next []domain.Value
		for _, it := range items {
			if ref, isRef := it.(domain.Ref); isRef {
				if sub, ok := c.env.CollectionOf(ref, seg); ok {
					next = append(next, sub...)
					continue
				}
			}
			v, err := c.field(it, seg, p)
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

func (c *evalCtx) applyFilters(root string, items []domain.Value) ([]domain.Value, error) {
	for _, f := range c.filters {
		if !f.roots[root] {
			continue
		}
		var kept []domain.Value
		for _, it := range items {
			sub := &bindEnv{base: c.env, name: root, val: it}
			// Filters nested in filters are not re-applied: evaluate the
			// filter body with a filter-free context.
			v, err := (&evalCtx{env: sub}).eval(f.filter)
			if err != nil {
				return nil, err
			}
			b, ok := domain.Truth(v)
			if !ok {
				return nil, &EvalError{f.filter, "where filter is not boolean"}
			}
			if b {
				kept = append(kept, it)
			}
		}
		items = kept
	}
	return items, nil
}

// simpleGateEnv models the paper's SimpleGate: Pins is a set-of-record
// attribute, Length/Width integers, Function an enum.
func simpleGateEnv() *MapEnv {
	env := NewMapEnv()
	env.Vals["Length"] = domain.Int(4)
	env.Vals["Width"] = domain.Int(2)
	env.Vals["Function"] = domain.Sym("NAND")
	pins := domain.NewSet(
		domain.NewRec("PinId", domain.Int(1), "InOut", domain.Sym("IN")),
		domain.NewRec("PinId", domain.Int(2), "InOut", domain.Sym("IN")),
		domain.NewRec("PinId", domain.Int(3), "InOut", domain.Sym("OUT")),
	)
	env.Vals["Pins"] = pins
	return env
}

// evalBoth evaluates src with the interpreter and compiled, fails unless
// they agree on value and on error (presence and text), and returns the
// compiled result.
func evalBoth(t *testing.T, src string, env Env) (domain.Value, error) {
	t.Helper()
	e := MustParse(src)
	iv, ierr := EvalValue(e, env)
	cv, cerr := Compile(e).Eval(env)
	if (ierr == nil) != (cerr == nil) {
		t.Fatalf("%q: interpreted err=%v, compiled err=%v", src, ierr, cerr)
	}
	if ierr != nil {
		if ierr.Error() != cerr.Error() {
			t.Fatalf("%q: error text diverges:\n  interpreted: %v\n  compiled:    %v", src, ierr, cerr)
		}
		return cv, cerr
	}
	if !iv.Equal(cv) || !cv.Equal(iv) {
		t.Fatalf("%q: interpreted %s, compiled %s", src, iv, cv)
	}
	return cv, cerr
}

// evalBoolBoth is evalBoth for conditions: EvalBool and Compiled.EvalBool
// must agree on result and error text.
func evalBoolBoth(t *testing.T, src string, env Env) (bool, error) {
	t.Helper()
	e := MustParse(src)
	ib, ierr := EvalBool(e, env)
	cb, cerr := Compile(e).EvalBool(env)
	if ib != cb || (ierr == nil) != (cerr == nil) {
		t.Fatalf("%q: EvalBool %v/%v, compiled %v/%v", src, ib, ierr, cb, cerr)
	}
	if ierr != nil && ierr.Error() != cerr.Error() {
		t.Fatalf("%q: error text diverges: %v vs %v", src, ierr, cerr)
	}
	return cb, cerr
}

func evalBool(t *testing.T, src string, env Env) bool {
	t.Helper()
	b, err := evalBoolBoth(t, src, env)
	if err != nil {
		t.Fatalf("EvalBool(%q): %v", src, err)
	}
	return b
}

func evalVal(t *testing.T, src string, env Env) domain.Value {
	t.Helper()
	v, err := evalBoth(t, src, env)
	if err != nil {
		t.Fatalf("EvalValue(%q): %v", src, err)
	}
	return v
}

func TestArithmeticEval(t *testing.T) {
	env := NewMapEnv()
	env.Vals["x"] = domain.Int(10)
	cases := []struct {
		src  string
		want domain.Value
	}{
		{"1 + 2 * 3", domain.Int(7)},
		{"(1 + 2) * 3", domain.Int(9)},
		{"x / 4", domain.Int(2)},
		{"x / 4.0", domain.Rl(2.5)},
		{"-x + 1", domain.Int(-9)},
		{"x - 1 - 2", domain.Int(7)},
	}
	for _, c := range cases {
		if got := evalVal(t, c.src, env); !got.Equal(c.want) {
			t.Errorf("%q = %s, want %s", c.src, got, c.want)
		}
	}
}

func TestComparisonsAndLogic(t *testing.T) {
	env := simpleGateEnv()
	trueCases := []string{
		"Length < 100*Length*Width",
		"Length = 4",
		"Length != 5",
		"Length <> 5",
		"Length >= 4 and Width <= 2",
		"Length > 100 or Width = 2",
		"not (Length > 100)",
		"Function = NAND",
		"Function != AND",
		"true",
		"not false",
	}
	for _, src := range trueCases {
		if !evalBool(t, src, env) {
			t.Errorf("%q should hold", src)
		}
	}
	falseCases := []string{
		"Length > 100",
		"Function = AND",
		"false",
	}
	for _, src := range falseCases {
		if evalBool(t, src, env) {
			t.Errorf("%q should not hold", src)
		}
	}
}

func TestPaperPinConstraints(t *testing.T) {
	env := simpleGateEnv()
	// The two constraints of SimpleGate, verbatim from the paper (§3).
	if !evalBool(t, "count (Pins) = 2 where Pins.InOut = IN", env) {
		t.Error("IN-pin constraint should hold")
	}
	if !evalBool(t, "count (Pins) = 1 where Pins.InOut = OUT", env) {
		t.Error("OUT-pin constraint should hold")
	}
	if evalBool(t, "count (Pins) = 2 where Pins.InOut = OUT", env) {
		t.Error("wrong count should fail")
	}
	// Unfiltered count sees all three pins.
	if got := evalVal(t, "count(Pins)", env); !got.Equal(domain.Int(3)) {
		t.Errorf("count(Pins) = %s", got)
	}
}

func TestCountOverObjectCollection(t *testing.T) {
	env := NewMapEnv()
	env.Colls["Bolt"] = []domain.Value{domain.Ref(1)}
	env.Colls["Nut"] = []domain.Value{domain.Ref(2)}
	env.Objs[1] = map[string]domain.Value{"Diameter": domain.Int(8), "Length": domain.Int(40)}
	env.Objs[2] = map[string]domain.Value{"Diameter": domain.Int(8), "Length": domain.Int(10)}

	if !evalBool(t, "#s in Bolt = 1", env) {
		t.Error("#s in Bolt = 1 should hold")
	}
	if !evalBool(t, "#n in Nut = 1", env) {
		t.Error("#n in Nut = 1 should hold")
	}
	if !evalBool(t, "for (s in Bolt, n in Nut): s.Diameter = n.Diameter", env) {
		t.Error("diameter agreement should hold")
	}
	env.Objs[2]["Diameter"] = domain.Int(6)
	if evalBool(t, "for (s in Bolt, n in Nut): s.Diameter = n.Diameter", env) {
		t.Error("diameter mismatch should fail")
	}
}

func TestScrewingConstraint(t *testing.T) {
	// s.Length = n.Length + sum(Bores.Length) from ScrewingType (§5).
	env := NewMapEnv()
	env.Colls["Bolt"] = []domain.Value{domain.Ref(1)}
	env.Colls["Nut"] = []domain.Value{domain.Ref(2)}
	env.Colls["Bores"] = []domain.Value{domain.Ref(3), domain.Ref(4)}
	env.Objs[1] = map[string]domain.Value{"Diameter": domain.Int(8), "Length": domain.Int(40)}
	env.Objs[2] = map[string]domain.Value{"Diameter": domain.Int(8), "Length": domain.Int(10)}
	env.Objs[3] = map[string]domain.Value{"Diameter": domain.Int(9), "Length": domain.Int(20)}
	env.Objs[4] = map[string]domain.Value{"Diameter": domain.Int(10), "Length": domain.Int(10)}

	full := "for (s in Bolt, n in Nut): s.Diameter = n.Diameter and " +
		"(for b in Bores: s.Diameter <= b.Diameter) and " +
		"s.Length = n.Length + sum(Bores.Length)"
	if !evalBool(t, full, env) {
		t.Error("screwing constraint should hold")
	}
	env.Objs[3]["Diameter"] = domain.Int(7) // bore narrower than bolt
	if evalBool(t, full, env) {
		t.Error("bolt wider than bore should fail")
	}
}

func TestMembershipOverNestedCollections(t *testing.T) {
	// Wire.Pin1 in Pins or Wire.Pin1 in SubGates.Pins (§3).
	env := NewMapEnv()
	env.Vals["Wire"] = domain.Ref(100)
	env.Objs[100] = map[string]domain.Value{"Pin1": domain.Ref(10), "Pin2": domain.Ref(21)}
	env.Colls["Pins"] = []domain.Value{domain.Ref(10), domain.Ref(11)}
	env.Colls["SubGates"] = []domain.Value{domain.Ref(1), domain.Ref(2)}
	env.ObjColls[1] = map[string][]domain.Value{"Pins": {domain.Ref(20), domain.Ref(21)}}
	env.ObjColls[2] = map[string][]domain.Value{"Pins": {domain.Ref(22)}}

	check := "(Wire.Pin1 in Pins or Wire.Pin1 in SubGates.Pins) and " +
		"(Wire.Pin2 in Pins or Wire.Pin2 in SubGates.Pins)"
	if !evalBool(t, check, env) {
		t.Error("wire endpoints should be admissible")
	}
	env.Objs[100]["Pin2"] = domain.Ref(99) // dangling pin
	if evalBool(t, check, env) {
		t.Error("dangling endpoint should fail")
	}
}

func TestMembershipInSetValue(t *testing.T) {
	env := NewMapEnv()
	env.Vals["Tags"] = domain.NewSet(domain.Str("a"), domain.Str("b"))
	if !evalBool(t, `"a" in Tags`, env) {
		t.Error("string membership in set attribute should hold")
	}
	if evalBool(t, `"z" in Tags`, env) {
		t.Error("non-member should fail")
	}
}

func TestQuantifiers(t *testing.T) {
	env := NewMapEnv()
	env.Colls["Bores"] = []domain.Value{domain.Ref(1), domain.Ref(2)}
	env.Objs[1] = map[string]domain.Value{"Diameter": domain.Int(9)}
	env.Objs[2] = map[string]domain.Value{"Diameter": domain.Int(12)}

	if !evalBool(t, "for b in Bores: b.Diameter >= 9", env) {
		t.Error("forall should hold")
	}
	if evalBool(t, "for b in Bores: b.Diameter >= 10", env) {
		t.Error("forall should fail")
	}
	if !evalBool(t, "exists b in Bores: b.Diameter = 12", env) {
		t.Error("exists should hold")
	}
	if evalBool(t, "exists b in Bores: b.Diameter = 5", env) {
		t.Error("exists should fail")
	}
	// Empty range: forall vacuously true, exists false.
	env.Colls["Empty"] = nil
	if !evalBool(t, "for e in Empty: false", env) {
		t.Error("forall over empty should be vacuously true")
	}
	if evalBool(t, "exists e in Empty: true", env) {
		t.Error("exists over empty should be false")
	}
}

func TestQuantifierOverBoundCollection(t *testing.T) {
	// A quantified variable holding a set can itself be ranged over.
	env := NewMapEnv()
	env.Colls["Plates"] = []domain.Value{domain.Ref(1)}
	env.Objs[1] = map[string]domain.Value{
		"Bores": domain.NewSet(domain.Int(8), domain.Int(10)),
	}
	if !evalBool(t, "for p in Plates: (for b in p.Bores: b >= 8)", env) {
		t.Error("nested quantification over attribute set should hold")
	}
}

func TestSumSemantics(t *testing.T) {
	env := NewMapEnv()
	env.Colls["Bores"] = []domain.Value{domain.Ref(1), domain.Ref(2)}
	env.Objs[1] = map[string]domain.Value{"Length": domain.Int(20)}
	env.Objs[2] = map[string]domain.Value{"Length": domain.Int(10)}
	if got := evalVal(t, "sum(Bores.Length)", env); !got.Equal(domain.Int(30)) {
		t.Errorf("sum = %s", got)
	}
	env.Colls["None"] = nil
	if got := evalVal(t, "sum(None)", env); !got.Equal(domain.Int(0)) {
		t.Errorf("empty sum = %s, want 0", got)
	}
	// Null members are skipped.
	env.Objs[2]["Length"] = domain.NullValue
	if got := evalVal(t, "sum(Bores.Length)", env); !got.Equal(domain.Int(20)) {
		t.Errorf("sum with null = %s, want 20", got)
	}
}

func TestNullSemantics(t *testing.T) {
	env := NewMapEnv()
	env.Vals["x"] = domain.NullValue
	if !evalBool(t, "x = null", env) {
		t.Error("null = null should hold")
	}
	if evalBool(t, "x != null", env) {
		t.Error("null != null should fail")
	}
	// Ordered comparison with null errors.
	if _, err := evalBoolBoth(t, "x < 3", env); err == nil {
		t.Error("ordered comparison with null should error")
	}
	// Selecting a field from null yields null.
	if !evalBool(t, "x.Anything = null", env) {
		t.Error("field of null should be null")
	}
}

func TestEvalErrors(t *testing.T) {
	env := simpleGateEnv()
	bad := []string{
		"count(Nowhere)",
		"sum(Nowhere)",
		"Length and true",
		"not Length",
		"Length + Function",
		"UnknownRoot.Field = 1",
		"Length.Field = 1",
		"1 in Length",
		"for p in Length: true",
		"Length < UNKNOWN_SYMBOL", // symbol vs int incomparable
	}
	for _, src := range bad {
		if _, err := evalBoolBoth(t, src, env); err == nil {
			t.Errorf("%q should fail to evaluate", src)
		}
	}
}

func TestUnknownIdentifierBecomesSymbol(t *testing.T) {
	env := NewMapEnv()
	env.Vals["f"] = domain.Sym("NOR")
	if !evalBool(t, "f = NOR", env) {
		t.Error("bare NOR should resolve to a symbol literal")
	}
	if evalBool(t, "f = NAND", env) {
		t.Error("f is not NAND")
	}
}

func TestWhereFilterOnObjectCollection(t *testing.T) {
	env := NewMapEnv()
	env.Colls["Versions"] = []domain.Value{domain.Ref(1), domain.Ref(2), domain.Ref(3)}
	env.Objs[1] = map[string]domain.Value{"State": domain.Sym("released")}
	env.Objs[2] = map[string]domain.Value{"State": domain.Sym("in_work")}
	env.Objs[3] = map[string]domain.Value{"State": domain.Sym("released")}
	if got := evalVal(t, "count(Versions) where Versions.State = released", env); !got.Equal(domain.Int(2)) {
		t.Errorf("filtered count = %s, want 2", got)
	}
}

func TestWhereFilterLeavesOtherRootsAlone(t *testing.T) {
	env := simpleGateEnv()
	env.Colls["Wires"] = []domain.Value{domain.Ref(1)}
	env.Objs[1] = map[string]domain.Value{}
	// Filter mentions Pins only; Wires scan is unrestricted.
	src := "count(Pins) + count(Wires) = 3 where Pins.InOut = IN"
	if !evalBool(t, src, env) {
		t.Errorf("%q should hold (2 filtered pins + 1 wire)", src)
	}
}

func TestEvalErrorMessage(t *testing.T) {
	env := NewMapEnv()
	_, err := evalBoolBoth(t, "count(Missing) = 0", env)
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "Missing") {
		t.Errorf("error should name the collection: %v", err)
	}
}

func TestNonBooleanConstraint(t *testing.T) {
	env := NewMapEnv()
	env.Vals["x"] = domain.Int(1)
	if _, err := evalBoolBoth(t, "x + 1", env); err == nil {
		t.Error("non-boolean constraint should error")
	}
}
