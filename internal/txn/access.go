package txn

import (
	"sync"

	"cadcam/internal/domain"
)

// Right is an access right on an object.
type Right uint8

// Rights, ordered by strength.
const (
	RightNone Right = iota
	RightRead
	RightUpdate
)

// AccessControl is the access-control manager §6 requires the lock
// manager to consult: implicit locks taken by complex operations must not
// allow more than the user's rights admit. Heavily shared standard
// objects (bolts, nuts, VLSI standard cells) are typically readable but
// not updatable by normal users, so expansion locking takes only read
// locks on them.
type AccessControl struct {
	mu sync.RWMutex
	// perObject rights per user, the empty user for every user; without
	// an entry a user may update.
	perObject map[string]map[domain.Surrogate]Right
}

// NewAccessControl creates a manager granting everyone full update rights
// until configured otherwise.
func NewAccessControl() *AccessControl {
	return &AccessControl{perObject: make(map[string]map[domain.Surrogate]Right)}
}

// Grant sets a user's right on one object. The empty user name configures
// the right every user gets on that object unless overridden.
func (a *AccessControl) Grant(user string, sur domain.Surrogate, r Right) {
	a.mu.Lock()
	defer a.mu.Unlock()
	m := a.perObject[user]
	if m == nil {
		m = make(map[domain.Surrogate]Right)
		a.perObject[user] = m
	}
	m[sur] = r
}

// RightOf resolves the effective right of a user on an object.
func (a *AccessControl) RightOf(user string, sur domain.Surrogate) Right {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if m, ok := a.perObject[user]; ok {
		if r, ok := m[sur]; ok {
			return r
		}
	}
	if m, ok := a.perObject[""]; ok {
		if r, ok := m[sur]; ok {
			return r
		}
	}
	return RightUpdate
}

// MayUpdate reports whether the user may update the object.
func (a *AccessControl) MayUpdate(user string, sur domain.Surrogate) bool {
	return a.RightOf(user, sur) >= RightUpdate
}

// CapMode limits a requested lock mode to what the user's rights admit:
// an X (or IX) request on a read-only object is capped to S (or IS) —
// the paper's "only these parts of the standard cells are locked in
// read-mode". Requests on unreadable objects are left untouched here;
// the explicit operation fails its access check instead.
func (a *AccessControl) CapMode(user string, sur domain.Surrogate, mode Mode) Mode {
	if mode != X && mode != IX {
		return mode
	}
	if a.MayUpdate(user, sur) {
		return mode
	}
	if mode == X {
		return S
	}
	return IS
}
