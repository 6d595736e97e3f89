package server

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"chatgraph/internal/core"
	"chatgraph/internal/tenant"
)

// DefaultSessionTTL is how long an idle session survives when Options does
// not say otherwise.
const DefaultSessionTTL = 30 * time.Minute

// DefaultMaxSessions caps live sessions when Options does not say otherwise.
const DefaultMaxSessions = 4096

// ErrTooManySessions is returned by CreateWithID when the manager is at
// capacity even after expiring idle sessions.
var ErrTooManySessions = fmt.Errorf("server: session limit reached")

// ErrNoSession is returned by Get for unknown or expired session IDs.
var ErrNoSession = fmt.Errorf("server: no such session")

// ErrSessionExists is returned by CreateWithID when a caller-pinned session
// ID collides with a live session.
var ErrSessionExists = fmt.Errorf("server: session id already exists")

// ErrBadID is returned when a caller-pinned session or job ID is not
// lowercase hex of a sane length.
var ErrBadID = fmt.Errorf("server: pinned id must be 8-64 lowercase hex characters")

// managed is one live conversation plus its bookkeeping.
type managed struct {
	ID      string
	Session *core.Session
	Created time.Time
	// Tenant names the owning tenant; cross-tenant access is answered as
	// if the session did not exist. Empty means the anonymous tenant
	// (sessions recovered from pre-tenancy WALs).
	Tenant string
	// lastUsed is unix nanoseconds, advanced on every touch.
	lastUsed atomic.Int64
}

func (m *managed) touch(now time.Time)  { m.lastUsed.Store(now.UnixNano()) }
func (m *managed) idleSince() time.Time { return time.Unix(0, m.lastUsed.Load()) }
func (m *managed) expired(now time.Time, ttl time.Duration) bool {
	return now.Sub(m.idleSince()) > ttl
}

// SessionManager mints, finds, and expires per-conversation sessions over
// one shared Engine. The registry is a sync.Map so session lookups on the
// hot chat path never contend with each other; only the live-session count
// is shared, as an atomic. Expiry is lazy (checked on every access) plus a
// sweep when a create finds the manager full; the Server's sweeper also
// calls Sweep every half TTL, so an idle daemon releases expired sessions
// without traffic.
type SessionManager struct {
	eng *core.Engine
	ttl time.Duration
	max int

	sessions sync.Map // id → *managed
	count    atomic.Int64
	// createMu makes the capacity check-then-insert atomic so a burst of
	// creates cannot overshoot max.
	createMu sync.Mutex
	// Lifecycle tallies, read by the metrics counter funcs at scrape time.
	created  atomic.Int64
	expired  atomic.Int64
	deleted  atomic.Int64
	restored atomic.Int64
}

// NewSessionManager returns a manager minting sessions from eng. ttl ≤ 0
// uses DefaultSessionTTL; max ≤ 0 uses DefaultMaxSessions.
func NewSessionManager(eng *core.Engine, ttl time.Duration, max int) *SessionManager {
	if ttl <= 0 {
		ttl = DefaultSessionTTL
	}
	if max <= 0 {
		max = DefaultMaxSessions
	}
	return &SessionManager{eng: eng, ttl: ttl, max: max}
}

// TTL reports the idle timeout sessions are expired after.
func (sm *SessionManager) TTL() time.Duration { return sm.ttl }

// Len reports the number of live (possibly idle-but-unexpired) sessions.
func (sm *SessionManager) Len() int { return int(sm.count.Load()) }

// CreateWithID creates a session owned by the tenant named tenantName,
// expiring idle ones first if at capacity. A non-empty id is caller-chosen —
// the hook a cluster router uses to pin a session onto the backend its
// rendezvous hash selects: the router mints the ID, derives the owner from
// it, and forwards the create with the ID attached, so every later request
// for that session hashes back to the same backend with no routing table. An
// empty id mints a random one. Pinned IDs must be 8-64 lowercase hex
// characters (ErrBadID) and must not collide with a live session
// (ErrSessionExists).
func (sm *SessionManager) CreateWithID(id, tenantName string) (*managed, error) {
	if id != "" && !validPinnedID(id) {
		return nil, ErrBadID
	}
	sm.createMu.Lock()
	defer sm.createMu.Unlock()
	if id != "" {
		if _, exists := sm.sessions.Load(id); exists {
			return nil, ErrSessionExists
		}
	} else {
		id = newSessionID()
	}
	if int(sm.count.Load()) >= sm.max {
		sm.Sweep()
		if int(sm.count.Load()) >= sm.max {
			return nil, ErrTooManySessions
		}
	}
	now := time.Now()
	m := &managed{
		ID:      id,
		Session: sm.eng.NewSession(),
		Created: now,
		Tenant:  tenantName,
	}
	m.touch(now)
	sm.sessions.Store(m.ID, m)
	sm.count.Add(1)
	sm.created.Add(1)
	return m, nil
}

// Restore re-inserts a session recovered from the durability layer under
// its original ID, with its original creation time, idle clock, and tenant
// ownership (the caller applies TTL policy before deciding to restore).
// The live-session cap governs creation only: a session whose turns were
// acknowledged comes back even when the cap is lower than it was, and
// CreateWithID refuses until the count is under the cap again. The
// restored session's history is empty; the caller rebuilds it via
// core.Session.RestoreHistory.
func (sm *SessionManager) Restore(id string, created, lastUsed time.Time, tenantName string) (*managed, error) {
	if id == "" {
		return nil, fmt.Errorf("server: restore: empty session id")
	}
	sm.createMu.Lock()
	defer sm.createMu.Unlock()
	if _, exists := sm.sessions.Load(id); exists {
		return nil, fmt.Errorf("server: restore: session %s already live", id)
	}
	m := &managed{
		ID:      id,
		Session: sm.eng.NewSession(),
		Created: created,
		Tenant:  tenantName,
	}
	m.lastUsed.Store(lastUsed.UnixNano())
	sm.sessions.Store(m.ID, m)
	sm.count.Add(1)
	sm.restored.Add(1)
	return m, nil
}

// Get returns the live session with the given ID if owner owns it, touching
// its idle clock. Expired sessions are removed on sight and reported as
// ErrNoSession — and so is another tenant's session, before the touch: a
// caller that is told the session does not exist must not have kept it alive.
func (sm *SessionManager) Get(id string, owner *tenant.Tenant) (*managed, error) {
	v, ok := sm.sessions.Load(id)
	if !ok {
		return nil, ErrNoSession
	}
	m := v.(*managed)
	now := time.Now()
	if m.expired(now, sm.ttl) {
		sm.removeExpired(id)
		return nil, ErrNoSession
	}
	if !ownedBy(m.Tenant, owner) {
		return nil, ErrNoSession
	}
	m.touch(now)
	return m, nil
}

// Delete removes the session with the given ID, reporting whether it was
// live.
func (sm *SessionManager) Delete(id string) bool {
	if sm.remove(id) {
		sm.deleted.Add(1)
		return true
	}
	return false
}

// Sweep removes every expired session and returns how many it removed.
func (sm *SessionManager) Sweep() int {
	now := time.Now()
	removed := 0
	sm.sessions.Range(func(key, value any) bool {
		if value.(*managed).expired(now, sm.ttl) {
			if sm.removeExpired(key.(string)) {
				removed++
			}
		}
		return true
	})
	return removed
}

func (sm *SessionManager) removeExpired(id string) bool {
	if sm.remove(id) {
		sm.expired.Add(1)
		return true
	}
	return false
}

func (sm *SessionManager) remove(id string) bool {
	if _, loaded := sm.sessions.LoadAndDelete(id); loaded {
		sm.count.Add(-1)
		return true
	}
	return false
}

// newSessionID returns a 128-bit random hex session identifier.
func newSessionID() string { return RandomHex(16) }

// validPinnedID accepts 8-64 lowercase hex characters — the shape RandomHex
// produces, so pinned and minted IDs are indistinguishable on the wire.
func validPinnedID(id string) bool {
	if len(id) < 8 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// RandomHex returns 2n hex characters of crypto/rand entropy: the
// session, request and router placement ids.
func RandomHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		// crypto/rand never fails on supported platforms; panic beats
		// silently handing out colliding IDs.
		panic(fmt.Sprintf("server: id entropy: %v", err))
	}
	return hex.EncodeToString(b)
}
