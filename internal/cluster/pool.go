// Package cluster is the scale-out tier: a pool of chatgraphd replica
// backends with rendezvous (highest-random-weight) hashing, health-probed
// failure marking with half-open recovery, and the reverse-proxy Router
// that fronts the pool (see router.go). One chatgraphd saturates one core;
// this package is how N of them serve as one endpoint.
//
// Routing model, in one paragraph: every piece of per-conversation state
// (a session, a job) lives on exactly one backend — nothing is replicated.
// Identity is therefore the routing key: the Router mints session and job
// IDs itself and hashes id → backend with HRW, so any later request
// carrying that id deterministically re-derives its owner, with no routing
// table, across router restarts, for any router replica fed the same
// backend list. Job submissions, which carry a graph but no identity yet,
// are placed by the graph's content hash instead, so identical
// interned graphs concentrate on one shard's caches rather than duplicating
// across the pool. Stateless routes spread round-robin over healthy
// backends and may retry on the next hop.
package cluster

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"io"
	"net/url"
	"strings"
	"sync"
	"time"

	"chatgraph/internal/metrics"
)

// State is one backend's health, as seen by the failure-marking machine.
type State int32

const (
	// StateDown backends receive no traffic. Backends are born down and
	// earn StateUp from their first successful probe, so a router booted
	// against a half-started pool never routes into the void.
	StateDown State = iota
	// StateUp backends receive traffic.
	StateUp
	// StateHalfOpen marks a down backend whose cooldown has expired and
	// whose recovery probe is in flight: still no traffic, but one probe
	// is allowed to test the water.
	StateHalfOpen
)

func (s State) String() string {
	switch s {
	case StateUp:
		return "up"
	case StateHalfOpen:
		return "half-open"
	default:
		return "down"
	}
}

// Policy tunes the failure-marking state machine.
type Policy struct {
	// FailAfter is how many consecutive failures (probe or transport) mark
	// an up backend down. 0 → 3.
	FailAfter int
	// RecoverAfter is how long a down backend rests before a half-open
	// recovery probe may test it. 0 → 5s.
	RecoverAfter time.Duration
}

func (p Policy) withDefaults() Policy {
	if p.FailAfter <= 0 {
		p.FailAfter = 3
	}
	if p.RecoverAfter <= 0 {
		p.RecoverAfter = 5 * time.Second
	}
	return p
}

// Backend is one chatgraphd replica in the pool.
type Backend struct {
	// Name labels the backend in metrics and the X-Backend response
	// header: the URL's host:port.
	Name string
	// URL is the backend's base URL (scheme + host, no path).
	URL *url.URL

	policy Policy

	mu        sync.Mutex
	state     State
	fails     int
	downSince time.Time

	// Metric handles, resolved once at pool construction.
	up       *metrics.Gauge
	requests *metrics.Counter
	errors   *metrics.Counter
	duration *metrics.Histogram
}

// State reports the backend's current health state.
func (b *Backend) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Routable reports whether the backend may receive traffic right now.
func (b *Backend) Routable() bool { return b.State() == StateUp }

// MarkSuccess records a successful probe or proxied request: failures
// reset, and a down or half-open backend returns to service.
func (b *Backend) MarkSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	if b.state != StateUp {
		b.state = StateUp
		b.up.Set(1)
	}
}

// MarkFailure records a failed probe or a transport-level proxy failure.
// An up backend goes down after FailAfter consecutive failures; a
// half-open backend goes straight back down (the recovery probe failed),
// with a fresh cooldown either way.
func (b *Backend) MarkFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	if b.state == StateUp && b.fails < b.policy.FailAfter {
		return
	}
	if b.state != StateDown {
		b.state = StateDown
		b.up.Set(0)
	}
	b.downSince = time.Now()
}

// BeginProbe asks to transition a rested down backend to half-open so the
// caller can run the one allowed recovery probe. It reports false when the
// backend is not down, still cooling down, or already half-open.
func (b *Backend) BeginProbe(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != StateDown || now.Sub(b.downSince) < b.policy.RecoverAfter {
		return false
	}
	b.state = StateHalfOpen
	return true
}

// Pool is the fixed set of backends the router fronts. Membership is
// static for the pool's lifetime (restart the router to resize), which is
// what makes HRW owners stable identities.
type Pool struct {
	backends []*Backend
}

// NewPool builds a pool over the given backend base URLs (scheme + host,
// e.g. "http://10.0.0.1:8080"), instrumenting each backend into reg (nil →
// metrics.Default()). Backends start down and are promoted by the first
// successful health probe.
func NewPool(rawURLs []string, policy Policy, reg *metrics.Registry) (*Pool, error) {
	if reg == nil {
		reg = metrics.Default()
	}
	policy = policy.withDefaults()
	if len(rawURLs) == 0 {
		return nil, fmt.Errorf("cluster: pool needs at least one backend")
	}
	p := &Pool{}
	seen := make(map[string]bool, len(rawURLs))
	for _, raw := range rawURLs {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		u, err := url.Parse(raw)
		if err != nil {
			return nil, fmt.Errorf("cluster: backend url %q: %w", raw, err)
		}
		if u.Scheme != "http" && u.Scheme != "https" {
			return nil, fmt.Errorf("cluster: backend url %q: scheme must be http or https", raw)
		}
		if u.Host == "" {
			return nil, fmt.Errorf("cluster: backend url %q: missing host", raw)
		}
		name := u.Host
		if seen[name] {
			return nil, fmt.Errorf("cluster: duplicate backend %q", name)
		}
		seen[name] = true
		labels := metrics.Labels{"backend": name}
		b := &Backend{
			Name:   name,
			URL:    &url.URL{Scheme: u.Scheme, Host: u.Host},
			policy: policy,
			state:  StateDown,
			up: reg.Gauge("chatgraph_router_backend_up",
				"1 while the backend is routable, 0 while it is marked down or half-open.", labels),
			requests: reg.Counter("chatgraph_router_requests_total",
				"Requests proxied to the backend.", labels),
			errors: reg.Counter("chatgraph_router_errors_total",
				"Proxied requests that failed in transport or answered 5xx.", labels),
			duration: reg.Histogram("chatgraph_router_request_duration_seconds",
				"Proxied request latency by backend.", metrics.DefBuckets, labels),
		}
		b.up.Set(0)
		p.backends = append(p.backends, b)
	}
	if len(p.backends) == 0 {
		return nil, fmt.Errorf("cluster: pool needs at least one backend")
	}
	return p, nil
}

// Backends returns the pool members in configuration order.
func (p *Pool) Backends() []*Backend { return p.backends }

// UpCount reports how many backends are currently routable.
func (p *Pool) UpCount() int {
	n := 0
	for _, b := range p.backends {
		if b.Routable() {
			n++
		}
	}
	return n
}

// hrwScore is the rendezvous weight of (backend, key): each backend hashes
// the key independently and the highest score owns it, so removing one
// backend re-homes only that backend's keys (~1/N of the keyspace) and
// adding one steals only the keys it now wins.
func hrwScore(backend, key string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, backend) //nolint:errcheck // fnv never fails
	h.Write([]byte{0})         //nolint:errcheck
	io.WriteString(h, key)     //nolint:errcheck
	// FNV-1a diffuses weakly on short inputs, enough to visibly skew the
	// keyspace split across similar backend names; a splitmix64 finalizer
	// restores the balance.
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Owner returns the backend whose rendezvous score for key is highest,
// over the full membership and regardless of health: ownership is an
// identity, not an availability fact — a session on a dead backend is
// unavailable, not re-homed (nothing is replicated to re-home it to).
func (p *Pool) Owner(key string) *Backend {
	var best *Backend
	var bestScore uint64
	for _, b := range p.backends {
		if s := hrwScore(b.Name, key); best == nil || s > bestScore || (s == bestScore && b.Name < best.Name) {
			best, bestScore = b, s
		}
	}
	return best
}

// Rank returns every backend ordered by descending rendezvous score for
// key — the hop order for placement fallback and retry-on-next-hop.
func (p *Pool) Rank(key string) []*Backend {
	out := make([]*Backend, len(p.backends))
	copy(out, p.backends)
	scores := make(map[*Backend]uint64, len(out))
	for _, b := range out {
		scores[b] = hrwScore(b.Name, key)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && (scores[out[j]] > scores[out[j-1]] ||
			(scores[out[j]] == scores[out[j-1]] && out[j].Name < out[j-1].Name)); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// FirstRoutable returns the highest-ranked routable backend for key, or
// nil when the whole pool is down.
func (p *Pool) FirstRoutable(key string) *Backend {
	for _, b := range p.Rank(key) {
		if b.Routable() {
			return b
		}
	}
	return nil
}

// mintAttempts bounds MintKeyFor's rejection sampling. Each draw lands on
// the target with probability ~1/N, so 256 attempts miss with probability
// (1-1/N)^256 — about 1e-7 at N=16.
const mintAttempts = 256

// MintKeyFor generates a random hex key whose Owner is target — how the
// router pins a freshly created session or job onto the backend placement
// chose, while keeping the id → owner derivation purely hash-based. The
// extremely unlikely sampling failure returns the last key drawn (the
// object stays reachable wherever it was created; only cache locality is
// lost), so callers route by Owner(key), never by assuming target.
func (p *Pool) MintKeyFor(target *Backend) string {
	var key string
	for i := 0; i < mintAttempts; i++ {
		key = randomHex(12)
		if p.Owner(key) == target {
			return key
		}
	}
	return key
}

// MintRoutableKey draws random keys until one is owned by a routable
// backend — uniform placement over live backends, weighted by keyspace
// share. It returns the key and its owner, or ("", nil) when the whole
// pool is down.
func (p *Pool) MintRoutableKey() (string, *Backend) {
	for i := 0; i < mintAttempts; i++ {
		key := randomHex(12)
		if b := p.Owner(key); b != nil && b.Routable() {
			return key, b
		}
	}
	return "", nil
}

// randomHex returns 2n hex characters of crypto/rand entropy.
func randomHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		panic(fmt.Sprintf("cluster: id entropy: %v", err))
	}
	return hex.EncodeToString(b)
}
