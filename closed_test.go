package cadcam

import (
	"errors"
	"reflect"
	"testing"

	"cadcam/internal/paperschema"
	"cadcam/internal/version"
)

// TestClosedDatabase calls every exported method of a closed Database.
// None may panic; every mutation fails with ErrClosed and writes nothing,
// in memory or on disk, also through Store and Txn handles taken before
// Close; and a SnapshotView taken before Close reads its pinned values
// until it is released. A reflection check fails when a method is
// missing from the table.
func TestClosedDatabase(t *testing.T) {
	dir := t.TempDir()
	db := diskDB(t, dir)
	rootI, iface, impl := buildGateScene(t, db)
	view := db.SnapshotView()
	store, tx := db.Store(), db.Begin("")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	none := Participants{}
	ref := version.GenericRef{Design: "D"}
	calls := []struct {
		name   string
		mutate bool
		call   func() error
	}{
		// The first row is the write a closed handle used to accept and
		// then lose: SetAttr returned nil, GetAttr read it back, and a
		// reopen did not have it.
		{"SetAttr", true, func() error { return db.SetAttr(iface, "Width", Int(7)) }},
		{"GetAttr", false, func() error { _, err := db.GetAttr(iface, "Width"); return err }},
		{"Acknowledge", true, func() error { return db.Acknowledge(paperschema.RelAllOfGateInterface, impl) }},
		{"AddVersion", true, func() error { _, err := db.AddVersion("D", impl, nil, ""); return err }},
		{"Bind", true, func() error { _, err := db.Bind(paperschema.RelAllOfGateInterface, impl, iface); return err }},
		{"BindResolved", true, func() error {
			_, _, err := db.BindResolved(paperschema.RelAllOfGateInterface, impl, ref, nil)
			return err
		}},
		{"Checkpoint", true, func() error { return db.Checkpoint() }},
		{"CreateIndex", true, func() error { return db.CreateIndex("w", "Roots", "Width") }},
		{"DefineClass", true, func() error { return db.DefineClass("More", "") }},
		{"DefineDesign", true, func() error { return db.DefineDesign("D", 0) }},
		{"Delete", true, func() error { return db.Delete(impl) }},
		{"DropIndex", true, func() error { return db.DropIndex("w") }},
		{"NewObject", true, func() error { _, err := db.NewObject(paperschema.TypePin, ""); return err }},
		{"NewRelSubobject", true, func() error { _, err := db.NewRelSubobject(impl, "Wires"); return err }},
		{"NewSubobject", true, func() error { _, err := db.NewSubobject(rootI, "Pins"); return err }},
		{"Relate", true, func() error { _, err := db.Relate(paperschema.TypeWire, none); return err }},
		{"RelateIn", true, func() error { _, err := db.RelateIn(impl, "Wires", none); return err }},
		{"SetDefault", true, func() error { return db.SetDefault("D", impl) }},
		{"SetStatus", true, func() error { return db.SetStatus(impl, version.StatusFrozen) }},
		{"Unbind", true, func() error { return db.Unbind(paperschema.RelAllOfGateInterface, impl) }},
		{"Close", false, func() error { return db.Close() }},
		{"Err", false, func() error { return db.Err() }},
		{"CheckpointErr", false, func() error { return db.CheckpointErr() }},
		{"ReplErr", false, func() error { return db.ReplErr() }},
		{"Health", false, func() error { db.Health(); return nil }},
		{"Stats", false, func() error { db.Stats(); return nil }},
		{"Catalog", false, func() error { db.Catalog(); return nil }},
		{"Store", false, func() error { db.Store().Len(); return nil }},
		{"Versions", false, func() error { db.Versions().DesignNames(); return nil }},
		{"Txns", false, func() error { db.Txns().Store(); return nil }},
		{"Access", false, func() error { db.Access(); return nil }},
		{"Begin", true, func() error { _, err := db.Begin("").NewObject(paperschema.TypePin, ""); return err }},
		{"NewWorkspace", false, func() error { return db.NewWorkspace("").Checkout(impl) }},
		{"OnTransmitterUpdate", false, func() error { db.OnTransmitterUpdate(func(UpdateEvent) {}); return nil }},
		{"Participant", false, func() error { _, err := db.Participant(impl, "Pin1"); return err }},
		{"BindingOf", false, func() error { db.BindingOf(impl, paperschema.RelAllOfGateInterface); return nil }},
		{"TransmitterOf", false, func() error { db.TransmitterOf(impl, paperschema.RelAllOfGateInterface); return nil }},
		{"CheckConstraints", false, func() error { _, err := db.CheckConstraints(impl); return err }},
		{"CheckAll", false, func() error { db.CheckAll(); return nil }},
		{"Members", false, func() error { _, err := db.Members(impl, "Pins"); return err }},
		{"Exists", false, func() error { db.Exists(impl); return nil }},
		{"TypeOf", false, func() error { _, err := db.TypeOf(impl); return err }},
		{"Class", false, func() error { _, err := db.Class("Roots"); return err }},
		{"Indexes", false, func() error { db.Indexes(); return nil }},
		{"Ancestors", false, func() error { db.Ancestors(impl); return nil }},
		{"Descendants", false, func() error { db.Descendants(rootI); return nil }},
		{"PendingAdaptations", false, func() error { db.PendingAdaptations(); return nil }},
		{"Expand", false, func() error { _, err := db.Expand(impl); return err }},
		{"VisibleComponents", false, func() error { _, err := db.VisibleComponents(impl); return err }},
		{"Query", false, func() error { _, err := db.Query("Roots", "Width > 1"); return err }},
		{"Explain", false, func() error { _, err := db.Explain("Roots", "Width > 1"); return err }},
		{"Plan", false, func() error { _, err := db.Plan("Roots", "Width > 1"); return err }},
		{"Eval", false, func() error { _, err := db.Eval(impl, "Length"); return err }},
		{"EvalClass", false, func() error { _, err := db.EvalClass("count(Roots)"); return err }},
		{"Resolve", false, func() error { _, err := db.Resolve(ref, nil); return err }},
		{"SnapshotView", false, func() error { db.SnapshotView().Release(); return nil }},
		{"Shipper", false, func() error { _, err := db.Shipper(); return err }},
		{"AttachFollower", false, func() error {
			f, err := db.AttachFollower(FollowerOptions{})
			if f != nil {
				f.Close()
			}
			return err
		}},
	}

	listed := map[string]bool{}
	for _, c := range calls {
		listed[c.name] = true
		var err error
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("%s after Close panicked: %v", c.name, p)
				}
			}()
			err = c.call()
		}()
		if c.mutate && !errors.Is(err, ErrClosed) {
			t.Errorf("%s after Close: error %v, want ErrClosed", c.name, err)
		}
	}
	typ := reflect.TypeOf(db)
	for i := 0; i < typ.NumMethod(); i++ {
		if name := typ.Method(i).Name; !listed[name] {
			t.Errorf("exported method %s is missing from the closed-handle table", name)
		}
	}
	if v, _ := db.GetAttr(iface, "Width"); !IsNull(v) {
		t.Errorf("closed handle reads Width %v, want null", v)
	}

	// Handles taken before Close write nothing either.
	if err := store.SetAttr(iface, "Width", Int(7)); !errors.Is(err, ErrClosed) {
		t.Errorf("Store.SetAttr after Close: %v, want ErrClosed", err)
	}
	if _, err := store.NewObject(paperschema.TypePin, ""); !errors.Is(err, ErrClosed) {
		t.Errorf("Store.NewObject after Close: %v, want ErrClosed", err)
	}
	if err := tx.SetAttr(iface, "Width", Int(7)); !errors.Is(err, ErrClosed) {
		t.Errorf("Txn.SetAttr after Close: %v, want ErrClosed", err)
	}
	tx.Abort()
	if v, _ := store.GetAttr(iface, "Width"); !IsNull(v) {
		t.Errorf("closed store reads Width %v, want null", v)
	}

	// The view pinned before Close still reads its values.
	if v, err := view.GetAttr(impl, "Length"); err != nil || !v.Equal(Int(4)) {
		t.Errorf("pinned view after Close: Length %v, %v, want 4", v, err)
	}
	if v, err := view.GetAttr(impl, "TimeBehavior"); err != nil || !v.Equal(Int(7)) {
		t.Errorf("pinned view after Close: TimeBehavior %v, %v, want 7", v, err)
	}
	view.Release()

	re := diskDB(t, dir)
	defer re.Close()
	if v, _ := re.GetAttr(iface, "Width"); !IsNull(v) {
		t.Errorf("after reopen Width is %v, want null", v)
	}
	if v, _ := re.GetAttr(impl, "Length"); !v.Equal(Int(4)) {
		t.Errorf("after reopen Length is %v, want 4", v)
	}
}
