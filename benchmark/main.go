// Command benchmark drives cadserve's wire protocol the way CAD tools do
// and prints every end-to-end or per-layer metric as one JSON line.
//
//	bash benchmark/run.sh --workload browse --seed 1 --seconds 10 --trace 0
//	cd benchmark && go run . -workload edit -seed 2 -trace 1
//
// One run: set up the corpus (three times, reporting the median), drive
// a fixed, seeded op count from two closed-loop sessions over loopback
// TCP, then run the epilogue (checkpoint, recovery and follower catch-up
// rounds) on the same directory. With -trace 1 a second copy of the
// corpus runs the same ops again with spans, and the per-layer metrics
// are printed instead. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"cadcam"
	"cadcam/internal/paperschema"
	"cadcam/internal/schema"
	"cadcam/internal/serve"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	dir      string  // work directory: databases and the trace file
	scale    float64 // corpus and op counts relative to the reference sizes; tests shrink it
	// corruptRead, when > 0, falsifies the corruptRead-th read of session
	// 0; tests use it to prove the correctness gate fires.
	corruptRead int
	log         io.Writer // human-readable progress; the JSON goes elsewhere
}

// setupRounds is how many times a run builds the corpus to report the
// median set-up time; a traced run builds it once, since it reports no
// set-up time.
const setupRounds = 3

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "browse, edit, rebind or bulk")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the corpus and of every op")
	flag.IntVar(&cfg.seconds, "seconds", 10, "sizes the phase: seconds x the workload's nominal rate ops")
	flag.IntVar(&trace, "trace", 0, "1: also run the traced phase and print the per-layer metrics")
	flag.StringVar(&cfg.dir, "dir", ".bench_build", "work directory")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.scale = 1
	cfg.log = os.Stdout
	if cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, res.endToEnd}
	if cfg.trace {
		out.Metrics = res.perLayer
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "benchmark: correctness:", p)
	}
	line, err := json.Marshal(&out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.correct() {
		os.Exit(1)
	}
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	problems          []string // failed correctness checks
	endToEnd          map[string]metric
	perLayer          map[string]metric
	spans             int
}

func (r *result) correct() bool { return len(r.problems) == 0 }

// env is one served database.
type env struct {
	dir       string
	db        *cadcam.Database
	cor       *corpus
	srv       *serve.Server
	addr      string
	serveDone chan error
}

// setup loads the corpus with asynchronous acknowledgment, checkpoints,
// closes, reopens with the default flush policy (SyncEvery 0: every
// group-commit batch is fsynced before its writes are acknowledged) and
// starts the server on a loopback listener.
func setup(cat *schema.Catalog, m *model, dir string) (*env, time.Duration, error) {
	t0 := time.Now()
	db, err := cadcam.Open(cat, cadcam.Options{Dir: dir, SyncEvery: -1})
	if err != nil {
		return nil, 0, err
	}
	cor, err := load(db, m)
	if err == nil {
		err = db.Checkpoint()
	}
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, 0, fmt.Errorf("load: %w", err)
	}
	db, err = cadcam.Open(cat, cadcam.Options{Dir: dir})
	if err != nil {
		return nil, 0, err
	}
	e := &env{dir: dir, db: db, cor: cor, serveDone: make(chan error, 1)}
	if e.srv, err = serve.New(serve.Config{DB: db}); err != nil {
		db.Close()
		return nil, 0, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.srv.Shutdown(time.Second)
		db.Close()
		return nil, 0, err
	}
	e.addr = l.Addr().String()
	go func() { e.serveDone <- e.srv.Serve(l) }()
	return e, time.Since(t0), nil
}

// stopServer drains the server and waits for its accept loop.
func (e *env) stopServer() error {
	if e.srv == nil {
		return nil
	}
	err := e.srv.Shutdown(10 * time.Second)
	// ErrDraining: the shutdown came before Serve registered the
	// listener, so Serve closed it without accepting.
	if serr := <-e.serveDone; err == nil && !errors.Is(serr, serve.ErrDraining) {
		err = serr
	}
	e.srv = nil
	return err
}

func (e *env) close() error {
	err := e.stopServer()
	if e.db != nil {
		if cerr := e.db.Close(); err == nil {
			err = cerr
		}
		e.db = nil
	}
	return err
}

func run(cfg config) (res *result, err error) {
	w, err := workloadNamed(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.log == nil {
		cfg.log = io.Discard
	}
	res = &result{endToEnd: map[string]metric{}, perLayer: map[string]metric{}}
	calib := calibrate()
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(cfg.dir, "run-")
	if err != nil {
		return nil, err
	}
	defer func() {
		if rerr := os.RemoveAll(root); err == nil {
			err = rerr
		}
	}()
	cat := paperschema.MustGates()
	p := newPlan(cfg, w)

	rounds := setupRounds
	if cfg.trace {
		rounds = 1
	}
	var e *env
	var setups []float64
	for i := 0; i < rounds; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(e.dir); err != nil {
				return nil, err
			}
		}
		runtime.GC() // start every round from the same heap: the last copy is garbage
		var d time.Duration
		e, d, err = setup(cat, p.initial, filepath.Join(root, fmt.Sprintf("db%d", i)))
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	defer func() {
		if e != nil {
			e.close()
		}
	}()
	fmt.Fprintf(cfg.log, "setup: %d objects, %v s\n", liveObjects(e.db.Stats()), setups)

	ph, err := runPhase(e, p, cfg, nil, nil)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer() // the epilogue records its wal and repl spans
	}
	epStart := time.Now()
	ep, err := epilogue(cat, e, p, ph.clients, tr)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.log, "epilogue: %.2f s; checkpoint %.3f s, recovery %.3f s, follower %.3f s (medians)\n",
		time.Since(epStart).Seconds(), median(ep.checkpointS), median(ep.recoveryS), median(ep.catchupS))
	e = nil // the epilogue closed it
	res.attempted = ph.attempted + ep.attempted
	res.failed = ph.failed + ep.failed
	res.problems = append(ph.problems, ep.problems...)

	ops := float64(ph.attempted)
	res.endToEnd = map[string]metric{
		"setup_s":               {median(setups), "s"},
		"wal_bytes_per_write":   {ratio(float64(ph.after.walBytes-ph.before.walBytes), float64(ph.writes)), "B/write"},
		"disk_bytes_per_object": {ep.diskBytesPerObject, "B/object"},
		"rss_peak_mb":           {float64(readProc().maxRSSKB) / 1024, "MB"},
	}

	b, a := ph.before, ph.after
	hits := float64(a.db.Hits - b.db.Hits)
	misses := float64(a.db.Misses - b.db.Misses)
	records := float64(a.db.WAL.Records - b.db.WAL.Records)
	batches := float64(a.db.WAL.Batches - b.db.WAL.Batches)
	fs := ep.follower
	pl := map[string]metric{
		// Seen by a user, but on a shared two-CPU box their run-to-run
		// spread is too wide for a bound (SPREAD.md): unbounded here.
		"ops_per_s":          {ph.opsPerSec, "1/s"},
		"read_p50_us":        {ph.p50Us[clsRead], "us"},
		"write_p50_us":       {ph.p50Us[clsWrite], "us"},
		"query_p50_us":       {ph.p50Us[clsQuery], "us"},
		"checkpoint_s":       {median(ep.checkpointS), "s"},
		"recovery_s":         {median(ep.recoveryS), "s"},
		"follower_catchup_s": {median(ep.catchupS), "s"},

		"serve.read_p99_us":           {quantileUs(ph.lat[clsRead], 0.99), "us"},
		"serve.read_p99_n":            {float64(len(ph.lat[clsRead])), "count"},
		"serve.write_p99_us":          {quantileUs(ph.lat[clsWrite], 0.99), "us"},
		"serve.write_p99_n":           {float64(len(ph.lat[clsWrite])), "count"},
		"serve.query_p99_us":          {quantileUs(ph.lat[clsQuery], 0.99), "us"},
		"serve.query_p99_n":           {float64(len(ph.lat[clsQuery])), "count"},
		"serve.pipeline_hw":           {float64(a.srv.PipelineHW), "count"},
		"serve.busy_rejected":         {float64(a.srv.BusyRejected - b.srv.BusyRejected), "count"},
		"serve.fail_ratio":            {ratio(float64(res.failed), float64(res.attempted)), "ratio"},
		"object.route_hit_ratio":      {ratio(hits, hits+misses), "ratio"},
		"object.route_hits":           {hits, "count"},
		"object.route_misses":         {misses, "count"},
		"object.invalidations_per_op": {ratio(float64(a.db.Invalidations-b.db.Invalidations), ops), "1/op"},
		"object.mvcc_retained":        {float64(a.db.MVCC.Retained - b.db.MVCC.Retained), "count"},
		"object.mvcc_extra_versions":  {float64(a.db.MVCC.ExtraVersions), "count"},
		"txn.lock_queued_hw":          {float64(ph.lockHW), "count"},
		"storage.records_per_batch":   {ratio(records, batches), "count"},
		"storage.syncs_per_write":     {ratio(float64(a.db.WAL.Syncs-b.db.WAL.Syncs), float64(ph.writes)), "1/write"},
		"storage.stall_us_per_record": {ratio(float64(a.db.WAL.StallNs-b.db.WAL.StallNs)/1e3, records), "us"},
		"wal.recovery_decode_s":       {median(ep.decodeS), "s"},
		"wal.recovery_replay_s":       {median(ep.replayS), "s"},
		"wal.replay_ops":              {float64(ep.replayOps), "count"},
		"wal.checkpoint_lock_hold_us": {median(ep.lockHoldUs), "us"},
		"wal.checkpoint_bytes":        {median(ep.ckptBytes), "B"},
		"wal.segments_written":        {median(ep.segments), "count"},
		"repl.applied_per_s":          {ratio(float64(fs.Applied), median(ep.catchupS)), "1/s"},
		"repl.batches":                {float64(fs.Batches), "count"},
		"repl.resyncs":                {float64(fs.Resyncs), "count"},
		"proc.cpu_us_per_op":          {ratio(float64((a.proc.cpu - b.proc.cpu).Microseconds()), ops), "us"},
		"proc.gc_cycles_per_kop":      {ratio(float64(a.proc.gcCycles-b.proc.gcCycles), ops/1000), "1/kop"},
		"proc.gc_pause_p99_us":        {pauseP99Us(b.proc.pauses, a.proc.pauses), "us"},
		"proc.calib_ns":               {calib, "ns"},
	}
	if !cfg.trace {
		res.perLayer = pl
		// spread.sh reads this line to measure the unbounded metrics too.
		if line, err := json.Marshal(pl); err == nil {
			fmt.Fprintf(cfg.log, "per-layer: %s\n", line)
		}
		return res, nil
	}

	// The traced run: a fresh copy of the corpus, an in-memory mirror,
	// and the same ops again.
	tp := newPlan(cfg, w)
	te, _, err := setup(cat, tp.initial, filepath.Join(root, "traced"))
	if err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	defer te.close()
	mirror, err := cadcam.OpenMemory(cat)
	if err != nil {
		return nil, err
	}
	defer mirror.Close()
	mcor, err := load(mirror, tp.initial)
	if err != nil {
		return nil, fmt.Errorf("mirror: %w", err)
	}
	if !slices.Equal(mcor.impls, te.cor.impls) || !slices.Equal(mcor.ifaces, te.cor.ifaces) {
		return nil, errors.New("mirror: surrogates differ from the durable corpus")
	}
	tph, err := runPhase(te, tp, cfg, tr, mirror)
	if err != nil {
		return nil, err
	}
	res.problems = append(res.problems, tph.problems...)
	traceFile := filepath.Join(cfg.dir, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
	if err := tr.write(traceFile, cfg.workload, cfg.seed); err != nil {
		return nil, err
	}
	res.spans = len(tr.spans)
	fmt.Fprintf(cfg.log, "trace: %d spans written to %s\n", len(tr.spans), traceFile)
	tr.printSelfTimes(cfg.log)
	m := tr.medianUs
	pl["serve.self_us"] = metric{m("serve.GetAttr") - m("cadcam.GetAttr"), "us"}
	pl["object.get_attr_ns"] = metric{m("object.GetAttr") * 1e3, "ns"}
	pl["query.plan_us"] = metric{m("query.Plan"), "us"}
	pl["query.exec_us"] = metric{m("cadcam.Query") - m("query.Plan"), "us"}
	pl["query.candidates_per_result"] = metric{ratio(float64(tr.candidates), float64(tr.rows)), "ratio"}
	pl["txn.commit_us"] = metric{m("txn.Commit"), "us"}
	pl["storage.durable_minus_memory_us"] = metric{m("storage.durable") - m("storage.memory"), "us"}
	pl["proc.trace_overhead"] = metric{ratio(tph.opsPerSec, ph.opsPerSec), "ratio"}
	res.perLayer = pl
	return res, nil
}

// phase is what one run of the phase ops measured.
type phase struct {
	clients       [sessions]*client
	before, after phaseCounters
	lat           [nClasses][]time.Duration // sorted
	p50Us         [nClasses]float64         // see secondMedianUs
	opsPerSec     float64
	attempted     int
	failed        int
	writes        int
	lockHW        int
	problems      []string
}

// runPhase drives the phase ops from two closed-loop sessions.
func runPhase(e *env, p *plan, cfg config, tr *tracer, mirror *cadcam.Database) (*phase, error) {
	ph := &phase{}
	for s := range ph.clients {
		sc, err := serve.Dial(e.addr, serve.DialOptions{User: fmt.Sprintf("session%d", s)})
		if err != nil {
			return nil, err
		}
		ph.clients[s] = &client{id: s, c: sc, db: e.db, cor: e.cor, own: map[cadcam.Surrogate]bool{}, tr: tr, mirror: mirror}
	}
	if cfg.corruptRead > 0 {
		ph.clients[0].corruptRead = cfg.corruptRead
	}
	var err error
	runtime.GC()
	if ph.before, err = readCounters(e.db, e.srv, e.dir); err != nil {
		return nil, err
	}
	start := time.Now()
	var wg sync.WaitGroup
	for s, c := range ph.clients {
		c.rec = newRecorder(start, len(p.phase[s]))
		wg.Add(1)
		go func(c *client, ops []op) {
			defer wg.Done()
			c.run(ops)
		}(c, p.phase[s])
	}
	wg.Wait()
	elapsed := time.Since(start)
	if ph.after, err = readCounters(e.db, e.srv, e.dir); err != nil {
		return nil, err
	}
	// Only the phase's whole seconds count towards the per-second
	// statistics; the last, partial one would read low.
	full := int(elapsed / time.Second)
	perSec := make([]float64, full)
	var bySec [nClasses][][]time.Duration
	for cls := range bySec {
		bySec[cls] = make([][]time.Duration, full)
	}
	for _, c := range ph.clients {
		c.c.Close()
		c.c = nil
		r := c.rec
		for cls := range ph.lat {
			for _, s := range r.lat[cls] {
				ph.lat[cls] = append(ph.lat[cls], s.d)
				if int(s.sec) < full {
					perSec[s.sec]++
					bySec[cls][s.sec] = append(bySec[cls][s.sec], s.d)
				}
			}
		}
		ph.attempted += r.attempted
		ph.failed += r.failed
		ph.writes += r.writes
		ph.lockHW = max(ph.lockHW, r.lockHW)
		if r.bad > 0 {
			ph.problems = append(ph.problems, fmt.Sprintf("%d wrong reads; first: %s", r.bad, r.firstBad))
		}
		if r.firstErr != nil {
			fmt.Fprintf(cfg.log, "phase: session %d: %d failed requests; first: %v\n", c.id, r.failed, r.firstErr)
		}
	}
	for cls := range ph.lat {
		slices.Sort(ph.lat[cls])
		ph.p50Us[cls] = secondMedianUs(bySec[cls], ph.lat[cls])
	}
	ph.opsPerSec = median(perSec)
	if full < minSeconds {
		completed := 0
		for _, l := range ph.lat {
			completed += len(l)
		}
		ph.opsPerSec = float64(completed) / elapsed.Seconds()
	}
	fmt.Fprintf(cfg.log, "phase: %d requests in %.2f s, median %.0f/s over %d whole seconds, traced=%v\n",
		ph.attempted, elapsed.Seconds(), ph.opsPerSec, full, tr != nil)
	return ph, nil
}

// A per-second statistic needs minSeconds whole seconds, and a second
// counts towards a latency median only with minPerSecond samples of that
// class; short test phases fall back to whole-phase figures.
const (
	minSeconds   = 3
	minPerSecond = 10
)

// secondMedianUs is the median over the phase's whole seconds of each
// second's median latency, in µs. A burst of contention that lasts a
// second or two moves it less than it moves the median of all samples,
// which it falls back to when too few seconds qualify.
func secondMedianUs(bySec [][]time.Duration, sorted []time.Duration) float64 {
	var p50s []float64
	for _, ds := range bySec {
		if len(ds) >= minPerSecond {
			slices.Sort(ds)
			p50s = append(p50s, quantileUs(ds, 0.5))
		}
	}
	if len(p50s) < minSeconds {
		return quantileUs(sorted, 0.5)
	}
	return median(p50s)
}

// epi is what the epilogue measured.
type epi struct {
	checkpointS, lockHoldUs, ckptBytes, segments []float64
	recoveryS, decodeS, replayS                  []float64
	replayOps                                    int
	catchupS                                     []float64
	follower                                     struct{ Applied, Batches, Resyncs uint64 }
	diskBytesPerObject                           float64
	attempted, failed                            int
	problems                                     []string
}

// applyAll runs each session's write ops in-process, one goroutine per
// session, as the phase does over the wire.
func (ep *epi) applyAll(db *cadcam.Database, clients [sessions]*client, ops [sessions][]op) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	for s, c := range clients {
		wg.Add(1)
		go func(c *client, ops []op) {
			defer wg.Done()
			failed := 0
			var first error
			for i := range ops {
				if err := c.apply(db, &ops[i]); err != nil {
					failed++
					if first == nil {
						first = err
					}
				}
			}
			mu.Lock()
			ep.attempted += len(ops)
			ep.failed += failed
			if first != nil {
				ep.problems = append(ep.problems, fmt.Sprintf("epilogue: session %d: %d failed writes; first: %v", c.id, failed, first))
			}
			mu.Unlock()
		}(c, ops[s])
	}
	wg.Wait()
}

// epilogue measures checkpoint, recovery and follower catch-up on the
// phase's directory; every round does identical work on both commits
// because the phase ran a fixed op count.
func epilogue(cat *schema.Catalog, e *env, p *plan, clients [sessions]*client, tr *tracer) (*epi, error) {
	ep := &epi{}
	if err := e.stopServer(); err != nil {
		return nil, err
	}
	db := e.db
	for r := range p.slices {
		ep.applyAll(db, clients, p.slices[r])
		runtime.GC()
		before := db.Stats().Checkpoint
		t0 := time.Now()
		if err := db.Checkpoint(); err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		t1 := time.Now()
		after := db.Stats().Checkpoint
		ep.checkpointS = append(ep.checkpointS, t1.Sub(t0).Seconds())
		ep.lockHoldUs = append(ep.lockHoldUs, float64(after.LockHoldNs)/1e3)
		ep.ckptBytes = append(ep.ckptBytes, float64(after.BytesEncoded-before.BytesEncoded))
		ep.segments = append(ep.segments, float64(after.SegmentsWritten-before.SegmentsWritten))
		if tr != nil {
			tr.leaf("wal.Checkpoint", t0, t1)
		}
	}
	disk, err := dirBytes(e.dir, "")
	if err != nil {
		return nil, err
	}
	ep.diskBytesPerObject = ratio(float64(disk), float64(liveObjects(db.Stats())))

	ep.applyAll(db, clients, p.tail)
	e.db = nil
	if err := db.Close(); err != nil {
		return nil, err
	}
	var fresh [sessions][]cadcam.Surrogate
	for s, c := range clients {
		fresh[s] = c.fresh
	}
	for r := 0; r < recoveryRounds; r++ {
		runtime.GC()
		t0 := time.Now()
		db, err := cadcam.Open(cat, cadcam.Options{Dir: e.dir})
		if err != nil {
			return nil, fmt.Errorf("recovery: %w", err)
		}
		t1 := time.Now()
		rs := db.Stats().Recovery
		ep.recoveryS = append(ep.recoveryS, t1.Sub(t0).Seconds())
		ep.decodeS = append(ep.decodeS, float64(rs.DecodeNs)/1e9)
		ep.replayS = append(ep.replayS, float64(rs.ReplayNs)/1e9)
		ep.replayOps = rs.ReplayOps
		if tr != nil {
			tr.recordRecovery(t0, t1, rs)
		}
		if r == recoveryRounds-1 {
			// Every acknowledged write must have survived the restart.
			if bad, first := verify(db, p.model, e.cor, fresh); bad > 0 {
				ep.problems = append(ep.problems, fmt.Sprintf("after reopen: %d lost or wrong acknowledged values; first: %s", bad, first))
			}
			if v := db.CheckAll(); len(v) > 0 {
				ep.problems = append(ep.problems, fmt.Sprintf("CheckAll: %d constraint violations; first: %v", len(v), v[0]))
			}
		}
		if err := db.Close(); err != nil {
			return nil, err
		}
	}
	for r := 0; r < followerRounds; r++ {
		runtime.GC()
		t0 := time.Now()
		f, err := cadcam.OpenFollower(cat, e.dir, cadcam.FollowerOptions{})
		if err != nil {
			return nil, fmt.Errorf("follower: %w", err)
		}
		err = f.WaitCaughtUp(60 * time.Second)
		t1 := time.Now()
		if err == nil {
			err = checkFollower(f, p, e.cor, fresh, r)
		}
		st := f.Stats()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			ep.problems = append(ep.problems, fmt.Sprintf("follower round %d: %v", r, err))
		}
		ep.catchupS = append(ep.catchupS, t1.Sub(t0).Seconds())
		ep.follower.Applied, ep.follower.Batches = st.Applied, st.Batches
		// A new follower's first base-state load counts as a resync;
		// only the ones after it mean the stream broke.
		ep.follower.Resyncs += st.Resyncs - min(st.Resyncs, 1)
		if tr != nil {
			tr.leaf("repl.CatchUp", t0, t1)
		}
	}
	return ep, nil
}

// followerSamples is how many implementations each follower round reads.
const followerSamples = 256

// checkFollower reads a seeded sample of implementations on the caught-up
// follower; each must equal the primary's acknowledged state.
func checkFollower(f *cadcam.Follower, p *plan, cor *corpus, fresh [sessions][]cadcam.Surrogate, round int) error {
	v, err := f.SnapshotView()
	if err != nil {
		return err
	}
	defer v.Release()
	m := p.model
	for k := 0; k < followerSamples; k++ {
		i := (k*7919 + round*104729) % m.impls
		want := m.width[m.bound[i]]
		got, err := v.GetAttr(cor.impls[i], "Width")
		if err != nil || !got.Equal(cadcam.Int(want)) {
			return fmt.Errorf("follower %v.Width = %v (err %v), primary acknowledged %d", cor.impls[i], got, err, want)
		}
	}
	for s := range fresh {
		for k, sur := range fresh[s] {
			if sur == 0 || k%97 != round {
				continue
			}
			want := m.fresh[s][k].timeBeh
			got, err := v.GetAttr(sur, "TimeBehavior")
			if err != nil || !got.Equal(cadcam.Int(want)) {
				return fmt.Errorf("follower %v.TimeBehavior = %v (err %v), primary acknowledged %d", sur, got, err, want)
			}
		}
	}
	return nil
}
