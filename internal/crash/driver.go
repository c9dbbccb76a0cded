package crash

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"

	"cadcam/internal/fault"
)

// FiredMarker is printed by the worker process (followed by the total
// failpoint hit count) when it finishes without crashing, so the driver
// can tell an error-kind firing from a round where the failpoint was
// never reached.
const FiredMarker = "CRASHMATRIX-FIRED"

var firedRE = regexp.MustCompile(FiredMarker + ` (\d+)`)

// matrixPoint describes how the matrix exercises one registered
// failpoint.
type matrixPoint struct {
	name string
	// errKind: the site threads an injected error into a real error
	// path, so an error-kind round is meaningful (exit-kind rounds run
	// for every point).
	errKind bool
	// checkpoint: the site only executes during a checkpoint, so its
	// rounds run with checkpointing enabled (which in turn disables the
	// ack multiset check: checkpointed ops legitimately leave the
	// journal).
	checkpoint bool
	// errAt is the error-kind round's countdown (0 means 1), past any
	// evaluation in Open, where an error would end the round unrun.
	errAt int
	// repl: the site lives on the replication path, so its rounds run
	// with an in-process follower attached and, after the standard
	// verify, replay the surviving directory through a fresh follower
	// and compare it against the truncated model oracle
	// (VerifyReplication).
	repl bool
	// serve: the site lives on the wire-protocol session path, so its
	// rounds route every writer through an in-process server and end
	// with a graceful drain over open transactions (Config.Serve).
	serve bool
}

// matrixPoints must cover every registered failpoint; RunMatrix
// cross-checks against fault.Names() so adding an injection site without
// matrix coverage fails the test.
var matrixPoints = []matrixPoint{
	{name: "wal/append-error", errKind: true},
	{name: "wal/sync-error", errKind: true},
	{name: "wal/torn-write"},
	{name: "wal/partial-batch"},
	{name: "group/leader-precommit", errKind: true},
	{name: "group/leader-encoded", errKind: true},
	{name: "group/straggler-window", errKind: true},
	{name: "object/pre-journal"},
	{name: "db/checkpoint-gap", errKind: true, checkpoint: true},
	{name: "db/segment-write", errKind: true, checkpoint: true},
	{name: "db/manifest-swap", errKind: true, checkpoint: true},
	{name: "db/segment-gc", errKind: true, checkpoint: true},
	{name: "wal/dir-sync", errKind: true, checkpoint: true, errAt: 2}, // past Open's
	// Replication path: a follower rides along, and the exit-kind rounds
	// kill primary and follower together mid-stream. The applier-crash
	// and resync-gap rounds checkpoint so that a restarted follower must
	// resync from a real manifest, not just replay epoch 0.
	{name: "repl/send-torn", errKind: true, repl: true},
	{name: "repl/send-partial", errKind: true, repl: true},
	{name: "repl/conn-drop", errKind: true, repl: true},
	{name: "repl/applier-crash", errKind: true, repl: true, checkpoint: true},
	{name: "repl/resync-gap", errKind: true, repl: true, checkpoint: true},
	// Wire-protocol session path: writers run through server sessions,
	// so a kill in the ack gap dies after durability but before the
	// response (the client must not have acked), and a kill in the
	// drain-abort window dies mid-reclaim of abandoned transactions.
	// Both keep checkpointing off so the ack multiset check stays on.
	{name: "serve/ack-gap", errKind: true, serve: true},
	{name: "serve/drain-abort", errKind: true, serve: true},
}

// Driver runs the crash matrix: for every registered failpoint it
// launches worker processes that die (or error) at the injection site,
// then verifies the surviving directory against the model oracle.
type Driver struct {
	// BaseDir receives one subdirectory per round.
	BaseDir string
	// Seed derives every round's workload seed deterministically.
	Seed int64
	// Writers and Ops size each round's workload.
	Writers, Ops int
	// LongReaders adds that many continuous snapshot-scan goroutines to
	// every round's workload (see Config.LongReaders).
	LongReaders int
	// Command builds the worker process for a round. The driver adds the
	// config and failpoint environment itself.
	Command func() *exec.Cmd
	// Logf receives one line per round (testing.T.Logf compatible).
	Logf func(format string, args ...any)
	// ArtifactDir, when set, receives a copy of the database directory
	// and worker output of any failing round.
	ArtifactDir string
	// Filter, when set, restricts the matrix to failpoints whose name
	// matches (the coverage cross-check still spans everything; the
	// every-point-must-fire check spans only the included points).
	Filter *regexp.Regexp
}

func (d *Driver) logf(format string, args ...any) {
	if d.Logf != nil {
		d.Logf(format, args...)
	}
}

// round is one worker launch + verify.
type round struct {
	point   matrixPoint
	spec    string // failpoint arming spec for the child
	label   string
	expect  string // "crash" (exit-kind) or "error" (error-kind)
	checkpt bool
}

// RunMatrix enumerates crash rounds for every registered failpoint and
// runs them. Every point must fire at least once; every surviving
// directory must verify. The first failure aborts with a reproducible
// description (seed, spec, worker output).
func (d *Driver) RunMatrix() error {
	if err := d.checkCoverage(); err != nil {
		return err
	}
	var rounds []round
	included := make([]matrixPoint, 0, len(matrixPoints))
	for _, p := range matrixPoints {
		if d.Filter == nil || d.Filter.MatchString(p.name) {
			included = append(included, p)
		}
	}
	for _, p := range included {
		for _, hit := range []int{1, 7} {
			rounds = append(rounds, round{
				point:   p,
				spec:    fmt.Sprintf("%s=exit(%d)@%d", p.name, fault.DefaultExitCode, hit),
				label:   fmt.Sprintf("%s/exit@%d", p.name, hit),
				expect:  "crash",
				checkpt: p.checkpoint,
			})
		}
		if p.errKind {
			at := max(p.errAt, 1)
			rounds = append(rounds, round{
				point:   p,
				spec:    fmt.Sprintf("%s=error(injected %s)@%d", p.name, p.name, at),
				label:   fmt.Sprintf("%s/error@%d", p.name, at),
				expect:  "error",
				checkpt: p.checkpoint,
			})
		}
	}
	fired := make(map[string]bool)
	for i, r := range rounds {
		ok, err := d.runRound(i, r)
		if err != nil {
			return err
		}
		if ok {
			fired[r.point.name] = true
		}
	}
	for _, p := range included {
		if !fired[p.name] {
			return fmt.Errorf("crash: failpoint %s never fired in any round (workload too small?)", p.name)
		}
	}
	return nil
}

// checkCoverage fails if a registered failpoint has no matrix entry (or
// the matrix names a point that no longer exists).
func (d *Driver) checkCoverage() error {
	covered := make(map[string]bool, len(matrixPoints))
	for _, p := range matrixPoints {
		covered[p.name] = true
	}
	registered := make(map[string]bool)
	for _, name := range fault.Names() {
		registered[name] = true
		if !covered[name] {
			return fmt.Errorf("crash: registered failpoint %q has no crash-matrix coverage; add it to matrixPoints", name)
		}
	}
	for _, p := range matrixPoints {
		if !registered[p.name] {
			return fmt.Errorf("crash: matrixPoints names %q but no such failpoint is registered", p.name)
		}
	}
	return nil
}

// runRound runs one round, retrying with fresh seeds when the failpoint
// was simply never reached. It reports whether the point fired.
func (d *Driver) runRound(i int, r round) (fired bool, err error) {
	const attempts = 3
	for a := 0; a < attempts; a++ {
		cfg := Config{
			Dir:         filepath.Join(d.BaseDir, fmt.Sprintf("r%03d-a%d", i, a)),
			AckDir:      filepath.Join(d.BaseDir, fmt.Sprintf("r%03d-a%d-ack", i, a)),
			Seed:        d.Seed + int64(i)*7919 + int64(a)*104729,
			Writers:     d.Writers,
			Ops:         d.Ops * (a + 1), // longer workloads on retry reach rarer sites
			LongReaders: d.LongReaders,
		}
		if r.checkpt {
			cfg.CheckpointEvery = 20
		}
		cfg.Repl = r.point.repl
		cfg.Serve = r.point.serve
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return false, err
		}
		outcome, output, err := d.runWorker(cfg, r.spec)
		if err != nil {
			return false, d.fail(r, cfg, output, err)
		}
		switch outcome {
		case "crash", "error":
			vErr := Verify(cfg.Dir, cfg.AckDir, VerifyOptions{
				AckCheck: cfg.CheckpointEvery == 0,
				Unbind:   cfg.Unbind,
			})
			if vErr == nil && r.point.repl {
				// The replication half of the oracle: a fresh follower on
				// the surviving directory must reproduce the primary's
				// serial replay — in full, and truncated at an arbitrary
				// batch boundary.
				vErr = VerifyReplication(cfg.Dir, VerifyOptions{Unbind: cfg.Unbind})
			}
			if vErr != nil {
				return false, d.fail(r, cfg, output, vErr)
			}
			d.logf("crashmatrix %-34s seed=%-12d outcome=%s verify=ok", r.label, cfg.Seed, outcome)
			return true, nil
		case "clean":
			d.logf("crashmatrix %-34s seed=%-12d outcome=not-fired (attempt %d/%d)", r.label, cfg.Seed, a+1, attempts)
			// Not fired: still verify the clean run, then retry bigger.
			if vErr := Verify(cfg.Dir, cfg.AckDir, VerifyOptions{
				AckCheck: cfg.CheckpointEvery == 0,
				Unbind:   cfg.Unbind,
			}); vErr != nil {
				return false, d.fail(r, cfg, output, vErr)
			}
		}
	}
	d.logf("crashmatrix %-34s NEVER FIRED after %d attempts", r.label, attempts)
	return false, nil
}

// runWorker launches one worker process and classifies its exit:
// "crash" (died at the failpoint with the crash exit code), "error"
// (finished after the failpoint fired as an error), "clean" (finished
// without reaching the failpoint).
func (d *Driver) runWorker(cfg Config, spec string) (outcome string, output []byte, err error) {
	cmd := d.Command()
	cmd.Env = append(os.Environ(),
		EnvConfig+"="+cfg.Encode(),
		fault.EnvVar+"="+spec,
	)
	output, runErr := cmd.CombinedOutput()
	if runErr == nil {
		if m := firedRE.FindSubmatch(output); m != nil {
			if n, _ := strconv.Atoi(string(m[1])); n > 0 {
				return "error", output, nil
			}
			return "clean", output, nil
		}
		return "", output, fmt.Errorf("crash: worker exited 0 without %s marker", FiredMarker)
	}
	if ee, ok := runErr.(*exec.ExitError); ok && ee.ExitCode() == fault.DefaultExitCode {
		return "crash", output, nil
	}
	return "", output, fmt.Errorf("crash: worker failed: %w", runErr)
}

// fail preserves a failing round's evidence and wraps the error with
// everything needed to reproduce it.
func (d *Driver) fail(r round, cfg Config, output []byte, cause error) error {
	where := ""
	if d.ArtifactDir != "" {
		dst := filepath.Join(d.ArtifactDir, filepath.Base(cfg.Dir))
		if err := CopyDir(cfg.Dir, dst); err == nil {
			_ = CopyDir(cfg.AckDir, dst+"-ack")
			_ = os.WriteFile(dst+"-worker.log", output, 0o644)
			where = " artifacts=" + dst
		}
	}
	return fmt.Errorf("crash: round %s seed=%d spec=%q failed%s: %w\nworker output:\n%s",
		r.label, cfg.Seed, r.spec, where, cause, output)
}

// RunTailFuzz runs a clean in-process workload, then attacks copies of
// the resulting directory: clipping the journal at arbitrary byte
// offsets (recovery must succeed and match the oracle on the surviving
// prefix) and flipping single bytes (recovery must either fail cleanly
// or verify — never panic, never invent state that passes neither way).
func (d *Driver) RunTailFuzz(rounds int) (err error) {
	cleanDir := filepath.Join(d.BaseDir, "tailfuzz-clean")
	ackDir := cleanDir + "-ack"
	cfg := Config{Dir: cleanDir, AckDir: ackDir, Seed: d.Seed, Writers: d.Writers, Ops: d.Ops,
		LongReaders: d.LongReaders}
	if err := os.MkdirAll(cleanDir, 0o755); err != nil {
		return err
	}
	if err := RunWorkload(cfg); err != nil {
		return fmt.Errorf("crash: tail-fuzz base workload (seed=%d): %w", d.Seed, err)
	}
	if err := Verify(cleanDir, ackDir, VerifyOptions{AckCheck: true}); err != nil {
		return fmt.Errorf("crash: tail-fuzz base verify (seed=%d): %w", d.Seed, err)
	}
	walName := WALName(cleanDir)
	if walName == "" {
		return fmt.Errorf("crash: tail-fuzz: no journal file in %s", cleanDir)
	}

	rng := rand.New(rand.NewSource(d.Seed ^ 0x7a17f0))
	for i := 0; i < rounds; i++ {
		mode, dir := "clip", filepath.Join(d.BaseDir, fmt.Sprintf("tailfuzz-%03d", i))
		if i%2 == 1 {
			mode = "flip"
		}
		if err := CopyDir(cleanDir, dir); err != nil {
			return err
		}
		target := filepath.Join(dir, walName)
		var detail string
		switch mode {
		case "clip":
			n, err := ClipTail(target, rng)
			if err != nil {
				return err
			}
			detail = fmt.Sprintf("clip to %d bytes", n)
			// A prefix of the journal is always a consistent state; the
			// ack check must be off because clipping discards durable
			// records by design.
			if vErr := verifyNoPanic(dir, ackDir, VerifyOptions{}); vErr != nil {
				return fmt.Errorf("crash: tail-fuzz round %d (seed=%d, %s): %w", i, d.Seed, detail, vErr)
			}
		case "flip":
			off, err := FlipByte(target, rng)
			if err != nil {
				return err
			}
			detail = fmt.Sprintf("flip byte at %d", off)
			// A flipped byte may truncate the tail (CRC mismatch on the
			// last frame ≡ torn write), surface as a corruption error on
			// reopen, or be in already-dead bytes. Panics and silent
			// wrong states are the bugs.
			vErr := verifyNoPanic(dir, ackDir, VerifyOptions{})
			if vErr != nil && !isCleanFailure(vErr) {
				return fmt.Errorf("crash: tail-fuzz round %d (seed=%d, %s): %w", i, d.Seed, detail, vErr)
			}
		}
		d.logf("tailfuzz %-28s ok", detail)
		_ = os.RemoveAll(dir)
	}
	return nil
}

// verifyNoPanic runs Verify, converting a panic (a decoder or recovery
// crash on corrupt input) into an error that reports it as a bug.
func verifyNoPanic(dir, ackDir string, opts VerifyOptions) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("PANIC during recovery/verify: %v", r)
		}
	}()
	return Verify(dir, ackDir, opts)
}

// isCleanFailure reports whether a verify error is an acceptable
// rejection of corrupt input (an error, not a panic or divergence).
func isCleanFailure(err error) bool {
	s := err.Error()
	if regexp.MustCompile(`(?i)panic`).MatchString(s) {
		return false
	}
	// Divergence and invariant failures mean recovery *accepted* corrupt
	// input and produced a wrong state — those are bugs. Everything else
	// (scan/decode/open errors) is the decoder correctly refusing.
	for _, bad := range []string{"diverged", "differs from oracle", "violates invariants", "lost durable write"} {
		if regexp.MustCompile(regexp.QuoteMeta(bad)).MatchString(s) {
			return false
		}
	}
	return true
}
