// Package fault implements deterministic failpoints for crash-recovery
// testing. Production code registers named points at package init and
// evaluates them on the hot path; the whole facility costs one atomic
// load (plus a nil check) per evaluation while disabled, and nothing is
// armed unless a test (or the CADCAM_FAILPOINTS environment variable)
// says so.
//
// A point is armed with an action and a countdown: the Nth evaluation
// after arming fires exactly once. Two action kinds exist:
//
//   - error: the evaluation returns the configured error, simulating an
//     I/O failure (fsync error, write error);
//   - exit: the process terminates immediately with the configured exit
//     code (default 86), simulating a crash at the evaluation site.
//
// The spec grammar, used both by Arm and by CADCAM_FAILPOINTS, is a
// semicolon-separated list of entries:
//
//	wal/sync-error=error(injected)@3; group/leader-encoded=exit
//	wal/torn-write=exit(86,12)@1
//
// `@N` is the countdown (default 1); exit takes an optional exit code
// and an optional site-specific integer argument (e.g. the byte offset
// at which a torn write cuts). Unknown names are legal in a spec — the
// arming is held pending and attaches when the point registers, so env
// activation never depends on package init order.
package fault

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// EnvVar activates failpoints from the environment at process start.
const EnvVar = "CADCAM_FAILPOINTS"

// DefaultExitCode is the process exit status of an exit-kind action, so
// a crash-matrix driver can tell an injected crash (86) from a genuine
// worker failure.
const DefaultExitCode = 86

// Kind is the action kind of an armed failpoint.
type Kind uint8

const (
	// KindError makes the evaluation return an error.
	KindError Kind = iota
	// KindExit terminates the process at the evaluation site.
	KindExit
)

// Action is what an armed failpoint does when it fires.
type Action struct {
	Kind Kind
	Err  error // KindError: the error Hit returns
	Code int   // KindExit: process exit status
	Arg  int   // optional site-specific argument (0 = site default)
}

// arming is one armed action with its one-shot countdown.
type arming struct {
	countdown atomic.Int64
	act       Action
}

// Point is one registered failpoint. Points are package-level singletons
// created by New at init time and never removed.
type Point struct {
	name  string
	armed atomic.Pointer[arming]
	hits  atomic.Uint64 // firings, not evaluations
}

var (
	// enabled gates every evaluation; off means Hit/Fire are no-ops.
	enabled atomic.Bool

	mu      sync.Mutex
	points  = make(map[string]*Point)
	pending = make(map[string]*arming) // armed before the point registered
)

// New registers a failpoint (idempotent per name) and returns it. Call
// from package-level var initialization at each injection site.
func New(name string) *Point {
	mu.Lock()
	defer mu.Unlock()
	if p, ok := points[name]; ok {
		return p
	}
	p := &Point{name: name}
	if a, ok := pending[name]; ok {
		delete(pending, name)
		p.armed.Store(a)
	}
	points[name] = p
	return p
}

// Name returns the point's registered name.
func (p *Point) Name() string { return p.name }

// Fire evaluates the point and returns the action when it fires, nil
// otherwise. Sites that must do work before acting (write a torn prefix,
// then crash) use Fire and invoke Crash themselves; everyone else uses
// Hit. Exactly one evaluation observes the countdown reaching zero, so a
// firing is one-shot even under concurrent evaluation.
func (p *Point) Fire() *Action {
	if !enabled.Load() {
		return nil
	}
	a := p.armed.Load()
	if a == nil || a.countdown.Add(-1) != 0 {
		return nil
	}
	p.hits.Add(1)
	return &a.act
}

// Hit evaluates the point and performs the action: KindExit terminates
// the process; KindError returns the configured error. Returns nil when
// the point does not fire.
func (p *Point) Hit() error {
	a := p.Fire()
	if a == nil {
		return nil
	}
	if a.Kind == KindExit {
		Crash(*a)
	}
	return a.Err
}

// Crash terminates the process with the action's exit code. Split out so
// torn-write sites can complete their partial write first.
func Crash(a Action) {
	code := a.Code
	if code == 0 {
		code = DefaultExitCode
	}
	os.Exit(code)
}

// Enable turns evaluation on. Arm calls it implicitly.
func Enable() { enabled.Store(true) }

// Reset disables evaluation and clears every arming, pending spec and hit
// counter. Tests that arm points must defer it.
func Reset() {
	enabled.Store(false)
	mu.Lock()
	defer mu.Unlock()
	for _, p := range points {
		p.armed.Store(nil)
		p.hits.Store(0)
	}
	pending = make(map[string]*arming)
}

// Names lists the registered failpoints, sorted.
func Names() []string {
	mu.Lock()
	defer mu.Unlock()
	out := make([]string, 0, len(points))
	for n := range points {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Hits reports how many times the named point has fired since the last
// Reset (0 for unknown names).
func Hits(name string) uint64 {
	mu.Lock()
	p := points[name]
	mu.Unlock()
	if p == nil {
		return 0
	}
	return p.hits.Load()
}

// TotalHits sums the firings of every registered point.
func TotalHits() uint64 {
	mu.Lock()
	defer mu.Unlock()
	var n uint64
	for _, p := range points {
		n += p.hits.Load()
	}
	return n
}

// Arm parses a spec, arms the named points (pending for names not yet
// registered) and enables evaluation. Re-arming a point replaces its
// previous arming.
func Arm(spec string) error {
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, action, ok := strings.Cut(entry, "=")
		if !ok {
			return fmt.Errorf("fault: bad entry %q (want name=action)", entry)
		}
		name = strings.TrimSpace(name)
		a, err := parseAction(strings.TrimSpace(action))
		if err != nil {
			return fmt.Errorf("fault: %s: %w", name, err)
		}
		mu.Lock()
		if p, ok := points[name]; ok {
			p.armed.Store(a)
		} else {
			pending[name] = a
		}
		mu.Unlock()
	}
	Enable()
	return nil
}

// parseAction parses `error`, `error(msg)`, `exit`, `exit(code)` or
// `exit(code,arg)`, each with an optional `@N` countdown suffix.
func parseAction(s string) (*arming, error) {
	countdown := int64(1)
	if at := strings.LastIndex(s, "@"); at >= 0 {
		n, err := strconv.ParseInt(strings.TrimSpace(s[at+1:]), 10, 64)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad countdown %q", s[at+1:])
		}
		countdown = n
		s = strings.TrimSpace(s[:at])
	}
	verb, args := s, ""
	if open := strings.Index(s, "("); open >= 0 {
		if !strings.HasSuffix(s, ")") {
			return nil, fmt.Errorf("bad action %q", s)
		}
		verb = s[:open]
		args = s[open+1 : len(s)-1]
	}
	a := &arming{}
	switch verb {
	case "error":
		msg := args
		if msg == "" {
			msg = "injected fault"
		}
		a.act = Action{Kind: KindError, Err: errors.New(msg)}
	case "exit":
		a.act = Action{Kind: KindExit}
		if args != "" {
			parts := strings.SplitN(args, ",", 2)
			code, err := strconv.Atoi(strings.TrimSpace(parts[0]))
			if err != nil {
				return nil, fmt.Errorf("bad exit code %q", parts[0])
			}
			a.act.Code = code
			if len(parts) == 2 {
				arg, err := strconv.Atoi(strings.TrimSpace(parts[1]))
				if err != nil {
					return nil, fmt.Errorf("bad exit arg %q", parts[1])
				}
				a.act.Arg = arg
			}
		}
	default:
		return nil, fmt.Errorf("unknown action %q", verb)
	}
	a.countdown.Store(countdown)
	return a, nil
}

func init() {
	if spec := os.Getenv(EnvVar); spec != "" {
		if err := Arm(spec); err != nil {
			fmt.Fprintf(os.Stderr, "fault: %s: %v\n", EnvVar, err)
			os.Exit(2)
		}
	}
}
