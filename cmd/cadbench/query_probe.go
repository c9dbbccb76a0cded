package main

// queryProbes measures the indexed query layer for the -json smoke run:
// a selective indexed probe versus the naive interpreted full scan over
// the same extent (index_speedup is the CI-gated headline), a selectivity
// sweep over the index, and the SetAttr cost of index maintenance — both
// on the indexed attribute (the price of the index) and on unindexed
// attributes (which must stay at the no-index baseline; CI compares this
// against the shards probe).

import (
	"fmt"
	"time"

	"cadcam"
	"cadcam/internal/expr"
	"cadcam/internal/paperschema"
	"cadcam/internal/query"
)

// queryReport is the `query` section of the JSON report.
type queryReport struct {
	Objects int `json:"objects"`
	// Matches of the 1%-selective headline predicate (Width = 7).
	Matches int `json:"matches"`
	// PlanMode is the access path the planner chose for the headline
	// predicate; CI asserts it is "index scan".
	PlanMode string `json:"plan_mode"`
	// IndexNsPerOp / ScanNsPerOp time the headline predicate through the
	// planner (index probe + residual) and through the naive interpreted
	// full scan; IndexSpeedup is their ratio.
	IndexNsPerOp float64 `json:"index_ns_per_op"`
	ScanNsPerOp  float64 `json:"scan_ns_per_op"`
	IndexSpeedup float64 `json:"index_speedup"`
	// SelectivityNsPerOp sweeps indexed query latency by match fraction.
	SelectivityNsPerOp map[string]float64 `json:"selectivity_ns_per_op"`
	// SetAttr*NsPerOp measure single-writer SetAttr on a class member for
	// an indexed attribute versus an unindexed one; MaintenanceOverhead is
	// their ratio (the marginal cost of keeping the index current).
	SetAttrIndexedNsPerOp   float64 `json:"setattr_indexed_ns_per_op"`
	SetAttrUnindexedNsPerOp float64 `json:"setattr_unindexed_ns_per_op"`
	MaintenanceOverhead     float64 `json:"maintenance_overhead"`
	// SetAttrUnindexed8wNsPerOp is the 8-writer SetAttr latency on objects
	// outside any indexed class while indexes exist in the store: the
	// write path's index hook must stay an atomic load + nil check, so CI
	// asserts this stays within noise of shards.setattr_8w_ns_per_op.
	SetAttrUnindexed8wNsPerOp float64 `json:"setattr_unindexed_8w_ns_per_op"`
}

func queryProbes(report *jsonReport) error {
	db, err := cadcam.OpenMemory(paperschema.MustGates())
	if err != nil {
		return err
	}
	defer db.Close()
	const objects = 20000
	if err := db.DefineClass("gates", paperschema.TypeSimpleGate); err != nil {
		return err
	}
	gates := make([]cadcam.Surrogate, objects)
	for i := range gates {
		if gates[i], err = db.NewObject(paperschema.TypeSimpleGate, "gates"); err != nil {
			return err
		}
		// Width = i % 100: a point predicate matches 1% of the extent.
		if err := db.SetAttr(gates[i], "Width", cadcam.Int(int64(i%100))); err != nil {
			return err
		}
	}
	if err := db.CreateIndex("gates_w", "gates", "Width"); err != nil {
		return err
	}
	qr := &queryReport{Objects: objects, SelectivityNsPerOp: map[string]float64{}}

	const headline = "Width = 7"
	plan, err := db.Plan("gates", headline)
	if err != nil {
		return err
	}
	qr.PlanMode = plan.Mode.String()
	matches, err := db.Query("gates", headline)
	if err != nil {
		return err
	}
	qr.Matches = len(matches)

	// Best-of-rounds, alternating sides, so transient load cannot fake a
	// speedup (same discipline as the shards probe).
	src := db.Store().View
	where, err := expr.Parse(headline)
	if err != nil {
		return err
	}
	best := func(cur, v float64) float64 {
		if cur == 0 || v < cur {
			return v
		}
		return cur
	}
	timeOne := func(n int, op func() error) (float64, error) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := op(); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(n), nil
	}
	for r := 0; r < 5; r++ {
		v, err := timeOne(3, func() error {
			_, err := query.Naive(src, "gates", where)
			return err
		})
		if err != nil {
			return fmt.Errorf("probe query scan: %w", err)
		}
		qr.ScanNsPerOp = best(qr.ScanNsPerOp, v)
		v, err = timeOne(30, func() error {
			_, err := db.Query("gates", headline)
			return err
		})
		if err != nil {
			return fmt.Errorf("probe query index: %w", err)
		}
		qr.IndexNsPerOp = best(qr.IndexNsPerOp, v)
	}
	if qr.IndexNsPerOp > 0 {
		qr.IndexSpeedup = qr.ScanNsPerOp / qr.IndexNsPerOp
	}

	for label, pred := range map[string]string{
		"sel_1pct":  "Width = 7",
		"sel_10pct": "Width < 10",
		"sel_50pct": "Width < 50",
	} {
		v, err := timeOne(10, func() error {
			_, err := db.Query("gates", pred)
			return err
		})
		if err != nil {
			return fmt.Errorf("probe query %s: %w", label, err)
		}
		qr.SelectivityNsPerOp[label] = v
	}

	// Maintenance: SetAttr on the indexed attribute vs an unindexed one,
	// on the same class members.
	const writes = 20000
	for r := 0; r < 3; r++ {
		v, err := timeOne(writes, func() error {
			g := gates[r%objects]
			return db.SetAttr(g, "Length", cadcam.Int(int64(r)))
		})
		if err != nil {
			return fmt.Errorf("probe setattr unindexed: %w", err)
		}
		qr.SetAttrUnindexedNsPerOp = best(qr.SetAttrUnindexedNsPerOp, v)
		v, err = timeOne(writes, func() error {
			g := gates[r%objects]
			return db.SetAttr(g, "Width", cadcam.Int(int64(r%100)))
		})
		if err != nil {
			return fmt.Errorf("probe setattr indexed: %w", err)
		}
		qr.SetAttrIndexedNsPerOp = best(qr.SetAttrIndexedNsPerOp, v)
	}
	if qr.SetAttrUnindexedNsPerOp > 0 {
		qr.MaintenanceOverhead = qr.SetAttrIndexedNsPerOp / qr.SetAttrUnindexedNsPerOp
	}

	// The (f) guard: 8 writers on plain pin objects — no class, no index
	// over anything they touch — while the gates index exists in the
	// store. This is the exact shards-probe workload; CI compares them.
	pins := make([]cadcam.Surrogate, 8)
	for i := range pins {
		if pins[i], err = db.NewObject(paperschema.TypePin, ""); err != nil {
			return err
		}
	}
	round := func(opsEach int) (float64, error) {
		errs := make(chan error, len(pins))
		t0 := time.Now()
		for w := range pins {
			go func(w int) {
				for i := 0; i < opsEach; i++ {
					if err := db.SetAttr(pins[w], "PinId", cadcam.Int(int64(i))); err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}(w)
		}
		for range pins {
			if err := <-errs; err != nil {
				return 0, err
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(len(pins)*opsEach), nil
	}
	for r := 0; r < 5; r++ {
		v, err := round(8000)
		if err != nil {
			return fmt.Errorf("probe setattr 8w unindexed: %w", err)
		}
		qr.SetAttrUnindexed8wNsPerOp = best(qr.SetAttrUnindexed8wNsPerOp, v)
	}

	report.Query = qr
	return nil
}
