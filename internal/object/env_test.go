package object

import (
	"testing"

	"cadcam/internal/domain"
	"cadcam/internal/expr"
	"cadcam/internal/paperschema"
)

func evalBoolSrc(src string, env expr.Env) (bool, error) {
	e, err := expr.Parse(src)
	if err != nil {
		return false, err
	}
	return expr.Compile(e).EvalBool(env)
}

func TestStoreEnvResolution(t *testing.T) {
	s := gateStore(t)
	iface := buildInterface(t, s, 4, 2, 2, 1)
	env := s.Env(iface)

	// Attribute lookup.
	if v, ok := env.Lookup("Length"); !ok || !v.Equal(domain.Int(4)) {
		t.Errorf("Lookup(Length) = %v, %v", v, ok)
	}
	if _, ok := env.Lookup("Ghost"); ok {
		t.Error("unknown name should not resolve")
	}
	// Subclass as collection.
	pins, ok := env.Collection("Pins")
	if !ok || len(pins) != 3 {
		t.Errorf("Collection(Pins) = %v, %v", pins, ok)
	}
	// AttrOf/CollectionOf through references.
	ref := pins[0].(domain.Ref)
	if v, ok := env.AttrOf(ref, "InOut"); !ok || !v.Equal(domain.Sym("IN")) {
		t.Errorf("AttrOf = %v, %v", v, ok)
	}
	if _, ok := env.AttrOf(domain.Ref(9999), "InOut"); ok {
		t.Error("AttrOf on missing object should fail")
	}
	if _, ok := env.CollectionOf(domain.Ref(9999), "Pins"); ok {
		t.Error("CollectionOf on missing object should fail")
	}

	// Constraint-style queries straight from the paper.
	holds, err := evalBoolSrc("count (Pins) = 2 where Pins.InOut = IN", env)
	if err != nil || !holds {
		t.Errorf("pin constraint: %v %v", holds, err)
	}
}

func TestStoreEnvOnMissingObject(t *testing.T) {
	s := gateStore(t)
	env := s.Env(9999)
	if _, ok := env.Lookup("X"); ok {
		t.Error("lookup on missing object should fail")
	}
	if _, ok := env.Collection("X"); ok {
		t.Error("collection on missing object should fail")
	}
}

func TestClassEnv(t *testing.T) {
	s := gateStore(t)
	if err := s.DefineClass("Interfaces", paperschema.TypeGateInterface); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 3; i++ {
		sur := mustSur(t)(s.NewObject(paperschema.TypeGateInterface, "Interfaces"))
		set(t, s, sur, "Length", domain.Int(i*10))
	}
	env := s.ClassEnv()
	holds, err := evalBoolSrc("count(Interfaces) = 3", env)
	if err != nil || !holds {
		t.Errorf("count: %v %v", holds, err)
	}
	holds, err = evalBoolSrc("count(Interfaces) = 2 where Interfaces.Length >= 20", env)
	if err != nil || !holds {
		t.Errorf("filtered count: %v %v", holds, err)
	}
	holds, err = evalBoolSrc("exists i in Interfaces: i.Length = 30", env)
	if err != nil || !holds {
		t.Errorf("exists: %v %v", holds, err)
	}
	if _, ok := env.Collection("Ghost"); ok {
		t.Error("unknown class should not resolve")
	}
	if _, ok := env.Lookup("Anything"); ok {
		t.Error("class env has no scalar names")
	}
	if _, ok := env.AttrOf(domain.Ref(9999), "X"); ok {
		t.Error("AttrOf missing should fail")
	}
	if _, ok := env.CollectionOf(domain.Ref(9999), "X"); ok {
		t.Error("CollectionOf missing should fail")
	}
}

func TestSurrogateOrderingAndLen(t *testing.T) {
	s := gateStore(t)
	var created []domain.Surrogate
	for i := 0; i < 5; i++ {
		created = append(created, mustSur(t)(s.NewObject(paperschema.TypePin, "")))
	}
	got := s.Surrogates()
	if len(got) != 5 {
		t.Fatalf("Surrogates = %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Errorf("not ascending: %v", got)
		}
	}
	if s.Len() != 5 {
		t.Errorf("Len = %d", s.Len())
	}
	_ = created
}
