package expr

import (
	"strings"
	"testing"
)

func TestParseRendering(t *testing.T) {
	// Round-trip through String() for representative paper expressions.
	cases := []struct {
		src  string
		want string
	}{
		{"1 + 2 * 3", "(1 + (2 * 3))"},
		{"(1 + 2) * 3", "((1 + 2) * 3)"},
		{"Length < 100*Height*Width", "(Length < ((100 * Height) * Width))"},
		{"count (Pins) = 2 where Pins.InOut = IN", "(count(Pins) = 2) where (Pins.InOut = IN)"},
		{"#s in Bolt = 1", "(count(Bolt) = 1)"},
		{"s.Length = n.Length + sum (Bores.Length)", "(s.Length = (n.Length + sum(Bores.Length)))"},
		{"Wire.Pin1 in Pins or Wire.Pin1 in SubGates.Pins", "((Wire.Pin1 in Pins) or (Wire.Pin1 in SubGates.Pins))"},
		{"for (s in Bolt, n in Nut): s.Diameter = n.Diameter", "(for (s in Bolt, n in Nut): (s.Diameter = n.Diameter))"},
		{"for b in Bores: s.Diameter <= b.Diameter", "(for (b in Bores): (s.Diameter <= b.Diameter))"},
		{"exists v in Versions: v.State = released", "(exists (v in Versions): (v.State = released))"},
		{"not a and b", "((not a) and b)"},
		{"a or b and c", "(a or (b and c))"},
		{"-x + 1", "(-x + 1)"},
		{"a != b", "(a != b)"},
		{"a <> b", "(a != b)"},
		{"x = null", "(x = null)"},
		{"done = true or done = false", "((done = true) or (done = false))"},
		{`Name = "girder"`, `(Name = "girder")`},
		{"1.5 * w", "(1.5 * w)"},
		{"x / 4.0", "(x / 4.0)"},
		{"1000000.0 + 0.000001", "(1000000.0 + 0.000001)"},
	}
	for _, c := range cases {
		e, err := Parse(c.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		if got := e.String(); got != c.want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"1 +",
		"count(",
		"count(1)",
		"(1 + 2",
		"for x: y",
		"for x in : y",
		"for (x in C: y",
		"a .",
		"# in C",
		"1 2",
		`"unterminated`,
		"a ? b",
		"/* unterminated",
		"sum()",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestSyntaxErrorPosition(t *testing.T) {
	_, err := Parse("a +\n?")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "2:1") {
		t.Errorf("error should carry line:col, got %q", err.Error())
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic on bad input")
		}
	}()
	MustParse("count(")
}

func TestRoots(t *testing.T) {
	e := MustParse("Wire.Pin1 in Pins or count(SubGates.Pins) > 0")
	roots := Roots(e)
	for _, want := range []string{"Wire", "Pins", "SubGates"} {
		if !roots[want] {
			t.Errorf("missing root %q in %v", want, roots)
		}
	}
	if len(roots) != 3 {
		t.Errorf("roots = %v", roots)
	}
}

func TestParseCommentAndWhitespace(t *testing.T) {
	e, err := Parse("/* expansion bound */ Length < 100 * Height\t* Width")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !strings.Contains(e.String(), "Length") {
		t.Errorf("unexpected AST %s", e)
	}
}
