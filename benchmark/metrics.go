package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"strings"
	"syscall"
	"time"

	"cadcam"
	"cadcam/internal/serve"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// median is 0 for no samples, so a result never holds a NaN, which JSON
// cannot encode.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantileUs is the nearest-rank q-quantile of sorted durations, in µs,
// or 0 for no samples.
func quantileUs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[max(i, 0)].Nanoseconds()) / 1e3
}

// ratio divides, reporting 0 for an empty base.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// calibrate times a fixed pure-Go loop (xorshift, no allocation, no I/O)
// and returns the median of five timings in ns. It tells machine drift
// from a code change; nothing is normalised by it.
func calibrate() float64 {
	var ts []float64
	for r := 0; r < 5; r++ {
		x := uint64(88172645463325252)
		t0 := time.Now()
		for i := 0; i < 1<<22; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		ts = append(ts, float64(time.Since(t0).Nanoseconds()))
		calibSink = x
	}
	return median(ts)
}

var calibSink uint64

// dirBytes sums the sizes of the regular files in dir whose names have
// the prefix.
func dirBytes(dir, prefix string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		if !e.Type().IsRegular() || !strings.HasPrefix(e.Name(), prefix) {
			continue
		}
		fi, err := os.Stat(filepath.Join(dir, e.Name()))
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}

// procStats is the process-level counter snapshot taken around a phase.
type procStats struct {
	cpu      time.Duration
	maxRSSKB int64
	gcCycles uint64
	pauses   *metrics.Float64Histogram
}

var procSamples = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/sched/pauses/total/gc:seconds"},
}

func readProc() procStats {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := slices.Clone(procSamples)
	metrics.Read(s)
	p := procStats{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSSKB: ru.Maxrss,
	}
	if s[0].Value.Kind() == metrics.KindUint64 {
		p.gcCycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64Histogram {
		p.pauses = s[1].Value.Float64Histogram()
	}
	return p
}

// pauseP99Us is the p99 of the GC pauses that happened between two
// snapshots, read from the histogram's bucket upper bounds.
func pauseP99Us(before, after *metrics.Float64Histogram) float64 {
	if before == nil || after == nil {
		return 0
	}
	var total uint64
	d := make([]uint64, len(after.Counts))
	for i := range d {
		d[i] = after.Counts[i] - before.Counts[i]
		total += d[i]
	}
	if total == 0 {
		return 0
	}
	need := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, n := range d {
		seen += n
		if seen >= need {
			hi := after.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = after.Buckets[i]
			}
			return hi * 1e6
		}
	}
	return 0
}

// phaseCounters snapshots every counter a phase's per-layer metrics are
// deltas of.
type phaseCounters struct {
	db       cadcam.DBStats
	srv      serve.ServerStats
	proc     procStats
	walBytes int64
}

func readCounters(db *cadcam.Database, srv *serve.Server, dir string) (phaseCounters, error) {
	wb, err := dirBytes(dir, "wal-")
	if err != nil {
		return phaseCounters{}, err
	}
	return phaseCounters{db: db.Stats(), srv: srv.Stats(), proc: readProc(), walBytes: wb}, nil
}

// liveObjects counts the store's objects across shards.
func liveObjects(st cadcam.DBStats) int {
	n := 0
	for _, sh := range st.PerShard {
		n += sh.Objects
	}
	return n
}
