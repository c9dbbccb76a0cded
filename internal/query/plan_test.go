package query

import (
	"slices"
	"strings"
	"testing"

	"cadcam/internal/domain"
	"cadcam/internal/expr"
	"cadcam/internal/object"
	"cadcam/internal/paperschema"
)

func gateStore(t *testing.T) *object.Store {
	t.Helper()
	s, err := object.NewStore(paperschema.MustGates())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mk(t *testing.T, s *object.Store, typ, cls string) domain.Surrogate {
	t.Helper()
	sur, err := s.NewObject(typ, cls)
	if err != nil {
		t.Fatal(err)
	}
	return sur
}

func setA(t *testing.T, s *object.Store, sur domain.Surrogate, attr string, v domain.Value) {
	t.Helper()
	if err := s.SetAttr(sur, attr, v); err != nil {
		t.Fatalf("SetAttr(%v, %s): %v", sur, attr, err)
	}
}

// gatesFixture builds a "gates" class of n SimpleGates with Width = i%5
// and Function cycling AND/OR, plus an index on Width.
func gatesFixture(t *testing.T, n int) (*object.Store, []domain.Surrogate) {
	t.Helper()
	s := gateStore(t)
	if err := s.DefineClass("gates", paperschema.TypeSimpleGate); err != nil {
		t.Fatal(err)
	}
	fns := []string{"AND", "OR"}
	var gs []domain.Surrogate
	for i := 0; i < n; i++ {
		g := mk(t, s, paperschema.TypeSimpleGate, "gates")
		setA(t, s, g, "Width", domain.Int(int64(i%5)))
		setA(t, s, g, "Function", domain.Sym(fns[i%2]))
		gs = append(gs, g)
	}
	if err := s.CreateIndex("gates_w", "gates", "Width"); err != nil {
		t.Fatal(err)
	}
	return s, gs
}

func mustParse(t *testing.T, src string) expr.Expr {
	t.Helper()
	e, err := expr.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return e
}

func runBoth(t *testing.T, src object.View, cls, where string) ([]domain.Surrogate, *Plan) {
	t.Helper()
	got, plan, err := Run(src, cls, where)
	if err != nil {
		t.Fatalf("Run(%q): %v", where, err)
	}
	var e expr.Expr
	if strings.TrimSpace(where) != "" {
		e = mustParse(t, where)
	}
	want, err := Naive(src, cls, e)
	if err != nil {
		t.Fatalf("Naive(%q): %v", where, err)
	}
	if len(got) != len(want) {
		t.Fatalf("Run(%q) = %v, Naive = %v [plan: %s]", where, got, want, plan.Mode)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Run(%q)[%d] = %v, Naive = %v [plan: %s]", where, i, got[i], want[i], plan.Mode)
		}
	}
	return got, plan
}

func TestPlanModeSelection(t *testing.T) {
	s, gs := gatesFixture(t, 20)
	// The pinned row reads at a pin taken before the last writes: it must
	// return what the live query returned there.
	setA(t, s, gs[1], "Length", domain.Int(2))
	setA(t, s, gs[4], "Length", domain.Int(2))
	sn := s.Snapshot()
	defer sn.Release()
	atPin, _ := runBoth(t, s.View, "gates", "Length = 2")
	setA(t, s, gs[1], "Length", domain.Int(3))
	setA(t, s, gs[7], "Length", domain.Int(2))

	cases := []struct {
		where  string
		mode   Mode
		pinned bool
	}{
		{"", FullScan, false},                               // whole extent
		{"Width = 2", IndexScan, false},                     // sargable, indexed
		{"2 = Width", IndexScan, false},                     // literal on the left
		{"Width >= 3 and Function = AND", IndexScan, false}, // conjunct picks the index
		{"Length = 2", RouteProbe, false},                   // single root, unindexed
		{"Length = 2", RouteProbe, true},                    // the same at a pin
		{"Width = Length", FullScan, false},                 // path ⋈ path: two roots, not sargable
		{"Function = AND", FullScan, false},                 // enum symbol is a path, not a literal
	}
	for _, c := range cases {
		src := s.View
		if c.pinned {
			src = sn.View
		}
		got, plan := runBoth(t, src, "gates", c.where)
		if plan.Mode != c.mode {
			t.Errorf("where %q (pinned %v): mode = %s, want %s", c.where, c.pinned, plan.Mode, c.mode)
		}
		if c.pinned && !slices.Equal(got, atPin) {
			t.Errorf("where %q at the pin = %v, live at the pin = %v", c.where, got, atPin)
		}
	}
}

func TestPlanPicksMostSelectiveSarg(t *testing.T) {
	s, gs := gatesFixture(t, 20)
	if err := s.CreateIndex("gates_l", "gates", "Length"); err != nil {
		t.Fatal(err)
	}
	for i, g := range gs {
		setA(t, s, g, "Length", domain.Int(int64(i))) // unique: point probe yields 1
	}
	src := s.View
	_, plan := runBoth(t, src, "gates", "Width = 2 and Length = 7")
	if plan.Mode != IndexScan || plan.Index != "gates_l" {
		t.Fatalf("plan = %s via %q, want index scan via gates_l", plan.Mode, plan.Index)
	}
	if plan.EstCandidates != 1 {
		t.Fatalf("EstCandidates = %d, want 1", plan.EstCandidates)
	}
}

func TestPlanRangeAndResidual(t *testing.T) {
	s, _ := gatesFixture(t, 25)
	src := s.View
	// Strict bound widens to an inclusive probe; the residual re-cuts it.
	got, plan := runBoth(t, src, "gates", "Width > 2 and Function = OR")
	if plan.Mode != IndexScan {
		t.Fatalf("mode = %s", plan.Mode)
	}
	for _, sur := range got {
		w, err := s.GetAttr(sur, "Width")
		if err != nil || w.(domain.Int) <= 2 {
			t.Fatalf("%v: Width = %v (err %v)", sur, w, err)
		}
	}
	if len(got) == 0 {
		t.Fatal("no matches")
	}
}

func TestPlanUnknownClass(t *testing.T) {
	s, _ := gatesFixture(t, 1)
	if _, _, err := Run(s.View, "nope", ""); err == nil {
		t.Fatal("want error for unknown class")
	}
}

func TestPlanErrorRowsDoNotMatch(t *testing.T) {
	s, gs := gatesFixture(t, 6)
	// Null out Width on one row: the predicate errors there and the row
	// must simply not match, on every access path.
	setA(t, s, gs[0], "Width", domain.NullValue)
	src := s.View
	for _, where := range []string{"Width >= 0", "Length >= 0 or Width >= 0", ""} {
		runBoth(t, src, "gates", where)
	}
}

func TestPlanOnSnapshotAndDegrade(t *testing.T) {
	s, gs := gatesFixture(t, 12)
	src := s.View
	plan, err := Build(src, "gates", mustParse(t, "Width = 2"))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Mode != IndexScan {
		t.Fatalf("mode = %s", plan.Mode)
	}
	want, err := plan.Run(src)
	if err != nil {
		t.Fatal(err)
	}

	// The same plan runs against a pinned snapshot and agrees.
	sn := s.Snapshot()
	defer sn.Release()
	snSrc := sn.View
	got, err := plan.Run(snSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("snapshot run = %v, store run = %v", got, want)
	}

	// Mutations after the pin are invisible to the snapshot run...
	setA(t, s, gs[2], "Width", domain.Int(2))
	got2, err := plan.Run(snSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != len(want) {
		t.Fatalf("snapshot run moved after pin: %v", got2)
	}

	// ...and after DropIndex the plan degrades to a scan, still correct.
	if err := s.DropIndex("gates_w"); err != nil {
		t.Fatal(err)
	}
	got3, err := plan.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := Naive(src, "gates", plan.Where)
	if err != nil {
		t.Fatal(err)
	}
	if len(got3) != len(naive) {
		t.Fatalf("degraded run = %v, naive = %v", got3, naive)
	}
}

func TestPlanInheritedValuesThroughIndex(t *testing.T) {
	s := gateStore(t)
	if err := s.DefineClass("impls", paperschema.TypeGateImplementation); err != nil {
		t.Fatal(err)
	}
	iface := mk(t, s, paperschema.TypeGateInterface, "")
	setA(t, s, iface, "Length", domain.Int(8))
	var impls []domain.Surrogate
	for i := 0; i < 4; i++ {
		im := mk(t, s, paperschema.TypeGateImplementation, "impls")
		if _, err := s.Bind(paperschema.RelAllOfGateInterface, im, iface); err != nil {
			t.Fatal(err)
		}
		impls = append(impls, im)
	}
	if err := s.CreateIndex("impls_len", "impls", "Length"); err != nil {
		t.Fatal(err)
	}
	src := s.View
	got, plan := runBoth(t, src, "impls", "Length = 8")
	if plan.Mode != IndexScan {
		t.Fatalf("mode = %s", plan.Mode)
	}
	if len(got) != len(impls) {
		t.Fatalf("inherited match = %v, want all %d impls", got, len(impls))
	}
	// Route probe over the same inherited attribute, sans index.
	if err := s.DropIndex("impls_len"); err != nil {
		t.Fatal(err)
	}
	got2, plan2 := runBoth(t, src, "impls", "Length = 8")
	if plan2.Mode != RouteProbe {
		t.Fatalf("mode = %s, want route-cache probe", plan2.Mode)
	}
	if len(got2) != len(impls) {
		t.Fatalf("route probe = %v", got2)
	}
}

func TestExplainText(t *testing.T) {
	s, _ := gatesFixture(t, 10)
	src := s.View

	plan, err := Build(src, "gates", mustParse(t, "Width = 2"))
	if err != nil {
		t.Fatal(err)
	}
	text := plan.Explain()
	for _, want := range []string{"index scan", `"gates_w"`, `"Width"`, "[2, 2]", "residual"} {
		if !strings.Contains(text, want) {
			t.Errorf("explain %q missing %q", text, want)
		}
	}

	plan, err = Build(src, "gates", mustParse(t, "Length = 2"))
	if err != nil {
		t.Fatal(err)
	}
	if text := plan.Explain(); !strings.Contains(text, "route-cache probe") {
		t.Errorf("explain %q missing route-cache probe", text)
	}

	plan, err = Build(src, "gates", nil)
	if err != nil {
		t.Fatal(err)
	}
	if text := plan.Explain(); !strings.Contains(text, "class-member scan") {
		t.Errorf("explain %q missing class-member scan", text)
	}
}
