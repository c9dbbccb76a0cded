package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// spec is the part of ../BENCHMARK.json the output must match.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// smallRun runs one workload at 1% scale with the traced phase, so both
// metric lists are computed.
func smallRun(t *testing.T, workload string, corruptRead int) (*result, string) {
	t.Helper()
	var log strings.Builder
	res, err := run(config{
		workload:    workload,
		seed:        1,
		seconds:     20, // enough ops on the small corpus that every request class has samples
		trace:       true,
		dir:         t.TempDir(),
		scale:       0.01,
		corruptRead: corruptRead,
		log:         &log,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, log.String()
}

// checkMetrics asserts that got holds exactly the names of want, each
// with want's unit and a finite value (a positive one if positive).
func checkMetrics(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }, positive bool) {
	t.Helper()
	var names []string
	for _, w := range want {
		names = append(names, w.Name)
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", w.Name)
		case m.Unit != w.Unit:
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", w.Name, m.Value)
		case positive && m.Value <= 0:
			t.Errorf("metric %s = %v, want > 0", w.Name, m.Value)
		}
	}
	for name := range got {
		if !slices.Contains(names, name) {
			t.Errorf("metric %s is not in BENCHMARK.json", name)
		}
	}
}

func TestWorkloadsReportEveryMetric(t *testing.T) {
	s := readSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		if !slices.Contains(names, w.name) {
			t.Errorf("workload %s is not in BENCHMARK.json", w.name)
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			start := time.Now()
			res, log := smallRun(t, w.name, 0)
			if d := time.Since(start); d > 5*time.Second {
				t.Errorf("1%% scale run took %v, want < 5s", d)
			}
			if !res.correct() {
				t.Fatalf("correctness gate failed: %v", res.problems)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%d of %d requests failed", res.failed, res.attempted)
			}
			checkMetrics(t, res.endToEnd, s.EndToEnd, true)
			checkMetrics(t, res.perLayer, s.PerLayer, false)
			if res.spans == 0 {
				t.Error("the traced run recorded no spans")
			}
			for _, module := range []string{"serve", "object", "query", "txn", "storage", "wal", "repl"} {
				if !strings.Contains(log, "\n  "+module+" ") {
					t.Errorf("no self time printed for %s:\n%s", module, log)
				}
			}
		})
	}
}

func TestCorruptReadIsCaught(t *testing.T) {
	res, _ := smallRun(t, "browse", 1)
	if res.correct() {
		t.Fatal("a falsified read passed the correctness gate")
	}
	if !strings.Contains(strings.Join(res.problems, "\n"), "wrong reads") {
		t.Errorf("problems %v do not report the wrong read", res.problems)
	}
}
