package txn

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"cadcam/internal/domain"
)

// ErrCheckinConflict reports that an object changed in the database while
// checked out.
var ErrCheckinConflict = errors.New("txn: object changed since checkout")

// Workspace is a private design workspace for long (design) transactions:
// objects are checked out as snapshots, edited locally for any length of
// time without holding database locks, and checked back in atomically
// with optimistic validation — the engineering-transaction style the
// paper cites ([KLMP84], [KSUW85]).
type Workspace struct {
	mgr  *Manager
	user string

	mu      sync.Mutex
	entries map[domain.Surrogate]*wsEntry
}

type wsEntry struct {
	seqAtCheckout uint64
	edits         map[string]domain.Value
}

// NewWorkspace creates an empty workspace for a user.
func (m *Manager) NewWorkspace(user string) *Workspace {
	return &Workspace{mgr: m, user: user, entries: make(map[domain.Surrogate]*wsEntry)}
}

// Checkout snapshots an object into the workspace. No database locks are
// held afterwards; conflicting concurrent updates are detected at
// checkin.
func (w *Workspace) Checkout(sur domain.Surrogate) error {
	seq, err := w.mgr.store.ModSeq(sur)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, dup := w.entries[sur]; dup {
		return fmt.Errorf("txn: %s already checked out", sur)
	}
	w.entries[sur] = &wsEntry{seqAtCheckout: seq, edits: make(map[string]domain.Value)}
	return nil
}

// Set records a local edit of a checked-out object.
func (w *Workspace) Set(sur domain.Surrogate, attr string, v domain.Value) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	e, ok := w.entries[sur]
	if !ok {
		return fmt.Errorf("txn: %s is not checked out", sur)
	}
	e.edits[attr] = v
	return nil
}

// Get reads through the workspace: local edits win, otherwise the live
// database value.
func (w *Workspace) Get(sur domain.Surrogate, attr string) (domain.Value, error) {
	w.mu.Lock()
	if e, ok := w.entries[sur]; ok {
		if v, edited := e.edits[attr]; edited {
			w.mu.Unlock()
			return v, nil
		}
	}
	w.mu.Unlock()
	return w.mgr.store.GetAttr(sur, attr)
}

// Checkin validates that no checked-out object changed underneath the
// workspace, then applies all edits in one short transaction. On success
// the workspace is emptied; on conflict nothing is written and the
// workspace keeps its state for inspection or Revert.
func (w *Workspace) Checkin() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	surs := make([]domain.Surrogate, 0, len(w.entries))
	for sur := range w.entries {
		surs = append(surs, sur)
	}
	sort.Slice(surs, func(i, j int) bool { return surs[i] < surs[j] })

	t := w.mgr.Begin(w.user)
	abort := func(err error) error {
		_ = t.Abort()
		return err
	}
	for _, sur := range surs {
		e := w.entries[sur]
		// Lock first, then validate: the short transaction makes the
		// validate-and-write atomic.
		if err := t.lock(sur, X, nil); err != nil {
			return abort(err)
		}
		seq, err := w.mgr.store.ModSeq(sur)
		if err != nil {
			return abort(err)
		}
		if seq != e.seqAtCheckout {
			return abort(fmt.Errorf("%w: %s (checked out at seq %d, now %d)",
				ErrCheckinConflict, sur, e.seqAtCheckout, seq))
		}
	}
	for _, sur := range surs {
		e := w.entries[sur]
		attrs := make([]string, 0, len(e.edits))
		for a := range e.edits {
			attrs = append(attrs, a)
		}
		sort.Strings(attrs)
		for _, a := range attrs {
			if err := t.SetAttr(sur, a, e.edits[a]); err != nil {
				return abort(err)
			}
		}
	}
	if err := t.Commit(); err != nil {
		return err
	}
	w.entries = make(map[domain.Surrogate]*wsEntry)
	return nil
}

// Revert drops all checkouts and local edits.
func (w *Workspace) Revert() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.entries = make(map[domain.Surrogate]*wsEntry)
}
