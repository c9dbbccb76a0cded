package query_test

import (
	"fmt"
	"testing"

	"cadcam"
	"cadcam/internal/bench"
	"cadcam/internal/domain"
	"cadcam/internal/object"
	"cadcam/internal/schema"
)

// declaredNames lists every name a type declares for expressions to read:
// attributes and subclasses (own and inherited), sub-relationships,
// participant roles and relationship attributes, the binding bookkeeping,
// plus the surrogate and one unknown name.
func declaredNames(cat *schema.Catalog, typeName string) []string {
	names := []string{"Surrogate", "NoSuchName"}
	if eff, ok := cat.Effective(typeName); ok {
		for _, a := range eff.Attrs {
			names = append(names, a.Name)
		}
		for _, sc := range eff.Subclasses {
			names = append(names, sc.Name)
		}
		for _, sr := range eff.Type.SubRels {
			names = append(names, sr.Name)
		}
	}
	if rt, ok := cat.RelType(typeName); ok {
		for _, p := range rt.Participants {
			names = append(names, p.Name)
		}
		for _, a := range rt.Attributes {
			names = append(names, a.Name)
		}
		for _, sc := range rt.Subclasses {
			names = append(names, sc.Name)
		}
		for _, sr := range rt.SubRels {
			names = append(names, sr.Name)
		}
	}
	if it, ok := cat.InherRelType(typeName); ok {
		names = append(names, "Transmitter", "Inheritor",
			object.AttrTransmitterUpdates, object.AttrLastUpdateSeq, object.AttrAcknowledgedSeq)
		for _, a := range it.Attributes {
			names = append(names, a.Name)
		}
	}
	return names
}

func sameValue(a, b domain.Value) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Equal(b)
}

func sameValues(a, b []domain.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameValue(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestSnapshotEnvMatchesLive checks that the expression environment of a
// snapshot pinned at head answers every declared name of every object
// exactly as the live store's does: Lookup and Collection, through the
// query sources the planner uses. Read twice, so the second pass serves
// live reads from memoized routes.
func TestSnapshotEnvMatchesLive(t *testing.T) {
	scenes := []struct {
		name  string
		build func() (*cadcam.Database, error)
	}{
		{"gates", func() (*cadcam.Database, error) {
			db, err := bench.Gates()
			if err == nil {
				_, err = bench.BuildFlipFlop(db, 2)
			}
			return db, err
		}},
		{"steel", func() (*cadcam.Database, error) {
			db, err := bench.Steel()
			if err == nil {
				_, err = bench.BuildStructure(db, 2)
			}
			return db, err
		}},
	}
	for _, sc := range scenes {
		t.Run(sc.name, func(t *testing.T) {
			db, err := sc.build()
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			s := db.Store()
			sn := s.Snapshot()
			defer sn.Release()
			live, pinned := s.View, sn.View
			for pass := 0; pass < 2; pass++ {
				for _, sur := range s.Surrogates() {
					typ, err := s.TypeOf(sur)
					if err != nil {
						t.Fatal(err)
					}
					le, pe := live.Env(sur), pinned.Env(sur)
					for _, name := range declaredNames(s.Catalog(), typ) {
						at := fmt.Sprintf("pass %d: %s (%s).%s", pass, sur, typ, name)
						lv, lok := le.Lookup(name)
						pv, pok := pe.Lookup(name)
						if lok != pok || !sameValue(lv, pv) {
							t.Errorf("%s: Lookup live %v, %v; snapshot %v, %v", at, lv, lok, pv, pok)
						}
						lc, lok := le.Collection(name)
						pc, pok := pe.Collection(name)
						if lok != pok || !sameValues(lc, pc) {
							t.Errorf("%s: Collection live %v, %v; snapshot %v, %v", at, lc, lok, pc, pok)
						}
					}
				}
			}
		})
	}
}
