package expr

import (
	"testing"

	"cadcam/internal/domain"
)

// FuzzParse ensures the expression parser never panics and that accepted
// expressions re-parse from their own rendering (print/parse stability).
func FuzzParse(f *testing.F) {
	f.Add("count (Pins) = 2 where Pins.InOut = IN")
	f.Add("for (s in Bolt, n in Nut): s.Diameter = n.Diameter")
	f.Add("s.Length = n.Length + sum (Bores.Length)")
	f.Add("#s in Bolt = 1")
	f.Add("not a and (b or c) <> d")
	f.Add(`x = "string" or y = 1.5`)
	f.Add("-x * (y / z)")
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(src)
		if err != nil {
			return
		}
		rendered := e.String()
		e2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("accepted %q but rendering %q does not re-parse: %v", src, rendered, err)
		}
		if got := e2.String(); got != rendered {
			t.Fatalf("rendering unstable: %q -> %q", rendered, got)
		}
	})
}

// FuzzCompile is the compiled-evaluation differential oracle: for every
// parseable expression, the closure chain from Compile must agree with
// the interpreter on value and on error (presence and text). The corpus
// seeds the query grammar forms the planner emits. The compiled evaluator
// is the only one in the program, so this is its guard.
func FuzzCompile(f *testing.F) {
	f.Add("delay < 5")
	f.Add("delay = 3 and Function = NAND")
	f.Add("Length >= 4 or Width <= 2")
	f.Add("count (Pins) = 2 where Pins.InOut = IN")
	f.Add("for p in Pins: p.PinId >= 0")
	f.Add("exists p in Pins: p.InOut = OUT")
	f.Add("sum (Pins.PinId) > 3")
	f.Add("label = \"g1\" and delay != null")
	f.Add("1 in Pins.PinId")
	f.Add("-x * (y / z)")
	f.Add("#s in Pins = 3")
	// The planner's differential predicate forms (internal/query).
	f.Add("3 <= Width and Length > 9.5")
	f.Add("not (Width >= Length)")
	f.Add("Width = 2.5 or 7 > Length")
	f.Add("Width >= 3 and Function = AND")
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(src)
		if err != nil {
			return
		}
		env := NewMapEnv()
		env.Vals["Length"] = domain.Int(4)
		env.Vals["Width"] = domain.Int(2)
		env.Vals["Function"] = domain.Sym("NAND")
		env.Vals["delay"] = domain.Rl(3)
		env.Vals["label"] = domain.Str("g1")
		env.Colls["Pins"] = []domain.Value{domain.Ref(1), domain.Ref(2)}
		env.Objs[1] = map[string]domain.Value{"PinId": domain.Int(1), "InOut": domain.Sym("IN")}
		env.Objs[2] = map[string]domain.Value{"PinId": domain.Int(2), "InOut": domain.Sym("OUT")}
		iv, ierr := EvalValue(e, env)
		cv, cerr := Compile(e).Eval(env)
		if (ierr == nil) != (cerr == nil) {
			t.Fatalf("%q: interpreted err=%v, compiled err=%v", src, ierr, cerr)
		}
		if ierr != nil {
			if ierr.Error() != cerr.Error() {
				t.Fatalf("%q: error text diverges: %v vs %v", src, ierr, cerr)
			}
			return
		}
		if !iv.Equal(cv) || !cv.Equal(iv) {
			t.Fatalf("%q: interpreted %s, compiled %s", src, iv, cv)
		}
	})
}

// FuzzEval evaluates fuzzer-chosen expressions against a fixed
// environment: errors are fine, panics are not.
func FuzzEval(f *testing.F) {
	f.Add("count(Pins) + Length * 2")
	f.Add("for p in Pins: p.PinId >= 0")
	f.Add("exists p in Pins: p.InOut = OUT")
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(src)
		if err != nil {
			return
		}
		env := NewMapEnv()
		env.Vals["Length"] = domain.Int(4)
		env.Colls["Pins"] = []domain.Value{domain.Ref(1), domain.Ref(2)}
		env.Objs[1] = map[string]domain.Value{"PinId": domain.Int(1), "InOut": domain.Sym("IN")}
		env.Objs[2] = map[string]domain.Value{"PinId": domain.Int(2), "InOut": domain.Sym("OUT")}
		_, _ = Compile(e).Eval(env)
	})
}
