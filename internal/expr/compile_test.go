package expr

import (
	"fmt"
	"math/rand"
	"testing"

	"cadcam/internal/domain"
)

// assertAgree evaluates src both interpreted and compiled against env and
// fails unless value and error presence/text agree — the compiled chain
// must be indistinguishable from the oracle.
func assertAgree(t *testing.T, src string, env Env) {
	t.Helper()
	evalBoth(t, src, env)
}

func TestCompileAgreesWithInterpreter(t *testing.T) {
	env := simpleGateEnv()
	env.Colls["Bolt"] = []domain.Value{domain.Ref(1)}
	env.Colls["Nut"] = []domain.Value{domain.Ref(2)}
	env.Objs[1] = map[string]domain.Value{"Diameter": domain.Int(8), "Length": domain.Int(40)}
	env.Objs[2] = map[string]domain.Value{"Diameter": domain.Int(8), "Length": domain.Int(10)}
	env.Vals["delay"] = domain.Rl(3.5)
	env.Vals["label"] = domain.Str("g1")
	env.Vals["nothing"] = domain.NullValue

	cases := []string{
		// Values, arithmetic, comparison.
		"1 + 2 * 3",
		"Length / 4.0",
		"-Length + 1",
		"Length = 4",
		"delay < 5",
		"delay >= 3.5 and delay <= 3.5",
		"Length != 5 or false",
		"Function = NAND",
		"label = \"g1\"",
		"nothing = null",
		"nothing != 3",
		// Null and error paths.
		"Length / 0",
		"delay < label",
		"not Length",
		"true and 3",
		"Length.foo",
		"unknownname",
		"unknown.path",
		// Collections, quantifiers, filters — the paper's constraint forms.
		"count (Pins) = 2 where Pins.InOut = IN",
		"count (Pins) = 1 where Pins.InOut = OUT",
		"count(Pins)",
		"sum (Pins.PinId)",
		"for p in Pins: p.PinId >= 0",
		"exists p in Pins: p.InOut = OUT",
		"for (s in Bolt, n in Nut): s.Diameter = n.Diameter",
		"for (s in Bolt, n in Nut): s.Length > n.Length",
		"exists s in Bolt: s.Length in Nut.Length",
		"1 in Pins.PinId",
		"9 in Pins.PinId",
		"#s in Bolt = 1",
		"IN in Pins.InOut",
		"count (Pins) = 3 where Pins.PinId > 0",
		"sum (Pins.PinId) where Pins.InOut = IN",
		// The planner tests' fixed predicates (internal/query).
		"Width = 2",
		"2 = Width",
		"Width >= 3 and Function = AND",
		"Length = 2",
		"Width = Length",
		"Function = AND",
		"Width >= 0",
		"Length >= 0 or Width >= 0",
		"Width = 2 and Length = 7",
		"Width > 2 and Function = OR",
		"Width >= 5 and Width <= 12",
		"Length = 8",
		"Width = 7",
	}
	for _, src := range cases {
		assertAgree(t, src, env)
	}
}

// TestCompileAgreesOnPlannerPredicates runs the predicate grammar of the
// planner's differential test (internal/query) through both evaluators.
// That test checks the planner against a full scan that evaluates
// compiled too, so the evaluators are cross-checked on its forms here:
// comparisons over Width/Length with int and real literals on either
// side, path against path, and and/or/not mixtures, on rows where the
// attributes are ints, reals, null or absent.
func TestCompileAgreesOnPlannerPredicates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	attr := func() string { return []string{"Width", "Length"}[rng.Intn(2)] }
	op := func() string { return []string{"=", "<", "<=", ">", ">="}[rng.Intn(5)] }
	cmp := func() string {
		switch rng.Intn(4) {
		case 0:
			return fmt.Sprintf("%d %s %s", rng.Intn(20), op(), attr())
		case 1:
			return fmt.Sprintf("%s %s %.1f", attr(), op(), float64(rng.Intn(40))/2)
		case 2:
			return "Width " + op() + " Length"
		default:
			return fmt.Sprintf("%s %s %d", attr(), op(), rng.Intn(20))
		}
	}
	pred := func() string {
		switch rng.Intn(4) {
		case 0:
			return cmp()
		case 1:
			return cmp() + " and " + cmp()
		case 2:
			return cmp() + " or " + cmp()
		default:
			return "not (" + cmp() + ")"
		}
	}
	vals := []domain.Value{nil, domain.NullValue, domain.Int(3), domain.Int(12), domain.Rl(7.5)}
	var envs []Env
	for _, w := range vals {
		for _, l := range vals {
			env := NewMapEnv()
			env.Vals["Function"] = domain.Sym("NAND")
			for name, v := range map[string]domain.Value{"Width": w, "Length": l} {
				if v != nil {
					env.Vals[name] = v
				}
			}
			envs = append(envs, env)
		}
	}
	for i := 0; i < 400; i++ {
		src := pred()
		for _, env := range envs {
			evalBoolBoth(t, src, env)
		}
	}
}

// TestCompileBoolMatchesEvalBool checks the condition folding (null =>
// false, non-boolean => error) matches EvalBool.
func TestCompileBoolMatchesEvalBool(t *testing.T) {
	env := simpleGateEnv()
	for _, src := range []string{"Length = 4", "Length", "count(Pins) > 2", "Pins"} {
		e := MustParse(src)
		ib, ierr := EvalBool(e, env)
		cb, cerr := Compile(e).EvalBool(env)
		if ib != cb || (ierr == nil) != (cerr == nil) {
			t.Fatalf("%q: EvalBool %v/%v, compiled %v/%v", src, ib, ierr, cb, cerr)
		}
		if ierr != nil && ierr.Error() != cerr.Error() {
			t.Fatalf("%q: error text diverges: %v vs %v", src, ierr, cerr)
		}
	}
}

// TestCompileReuse evaluates one compiled predicate against many
// environments (the planner's usage pattern) and checks independence.
func TestCompileReuse(t *testing.T) {
	p := Compile(MustParse("delay < 5 and delay >= 0"))
	for i := 0; i < 10; i++ {
		env := NewMapEnv()
		env.Vals["delay"] = domain.Int(int64(i))
		got, err := p.EvalBool(env)
		if err != nil {
			t.Fatalf("delay=%d: %v", i, err)
		}
		if want := i < 5; got != want {
			t.Fatalf("delay=%d: got %v, want %v", i, got, want)
		}
	}
}

// TestCompileWhereFilterScope ensures compiled nested-filter semantics
// match the interpreter: filters do not re-apply inside filter bodies.
func TestCompileWhereFilterScope(t *testing.T) {
	env := simpleGateEnv()
	assertAgree(t, "count (Pins) = 3 where Pins.PinId > 0 and Pins.InOut != HUH", env)
	assertAgree(t, "count (Pins) + count(Pins) = 4 where Pins.InOut = IN", env)
}

func BenchmarkInterpretPredicate(b *testing.B) {
	e := MustParse("delay < 5 and Function = NAND")
	env := simpleGateEnv()
	env.Vals["delay"] = domain.Int(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EvalBool(e, env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompiledPredicate(b *testing.B) {
	p := Compile(MustParse("delay < 5 and Function = NAND"))
	env := simpleGateEnv()
	env.Vals["delay"] = domain.Int(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.EvalBool(env); err != nil {
			b.Fatal(err)
		}
	}
}
