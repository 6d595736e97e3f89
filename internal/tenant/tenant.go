// Package tenant is the multi-tenant admission layer: API-key → tenant
// resolution from a JSON config file, per-tenant token-bucket quotas
// (request rate and max-in-flight), and a weighted-fair in-flight gate
// that turns a server's single global max-in-flight semaphore into
// guaranteed per-tenant shares plus a small shared borrow pool.
//
// The fairness model is deliberately simple enough to state as an
// invariant: given capacity C and per-tenant weights w_i, each tenant is
// guaranteed share_i = floor(C·w_i/Σw) in-flight slots, and the remainder
// C−Σshare_i forms a borrow pool any tenant may draw from. A tenant
// running below its guaranteed share is therefore never shed by the gate,
// no matter how hard every other tenant is saturating — which is exactly
// the noisy-neighbor property the isolation tests pin.
//
// Identity is bounded by construction: the set of tenants is fixed at
// config-load time (plus the built-in anonymous tenant), so anything
// keyed by tenant name — metric labels, fair shares, ownership records —
// has known cardinality. Unknown API keys resolve to an error, never to a
// fresh tenant.
package tenant

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"os"
	"sync/atomic"
	"time"

	"chatgraph/internal/ratelimit"
)

// AnonymousName is the reserved name of the built-in tenant that owns
// unauthenticated traffic (and, for compatibility, everything recorded
// before tenancy existed).
const AnonymousName = "anonymous"

// Resolution errors, mapped by the server to 401/403.
var (
	// ErrKeyRequired means anonymous access is disabled and the request
	// carried no API key (HTTP 401).
	ErrKeyRequired = errors.New("tenant: api key required")
	// ErrUnknownKey means the presented API key matches no configured
	// tenant — never silently downgraded to anonymous (HTTP 401).
	ErrUnknownKey = errors.New("tenant: unknown api key")
	// ErrDisabled means the key resolved to a tenant that is switched off
	// (HTTP 403).
	ErrDisabled = errors.New("tenant: tenant disabled")
)

// maxWeight bounds a configured weight. Fair shares are c·w_i/Σw: with
// every weight at most 2²⁰ the sum cannot leave int64 for any tenant list
// that fits in memory, and a typo like 144115188075855873 fails at load
// instead of wrapping the sum negative and voiding every guarantee.
const maxWeight = 1 << 20

// Quota is one tenant's admission budget. Zero values mean "unlimited"
// for that axis; the weighted-fair share still applies regardless.
type Quota struct {
	// RPS is the tenant's token-bucket refill rate in requests/second
	// across all gated routes. 0 disables the per-tenant rate check.
	RPS float64 `json:"rps,omitempty"`
	// Burst is the bucket capacity (0 → one second's worth of tokens,
	// minimum 1).
	Burst int `json:"burst,omitempty"`
	// MaxInFlight caps this tenant's concurrently admitted requests even
	// when the fair gate would allow more. 0 disables the cap.
	MaxInFlight int `json:"max_in_flight,omitempty"`
}

// TenantConfig is one tenant entry in the config file.
type TenantConfig struct {
	Name   string   `json:"name"`
	Keys   []string `json:"keys"`
	Weight int      `json:"weight,omitempty"`
	Quota
	Disabled bool `json:"disabled,omitempty"`
}

// AnonymousConfig overrides the built-in anonymous tenant. Disabled
// makes unauthenticated requests fail with 401 instead of admitting
// them under the anonymous budget.
type AnonymousConfig struct {
	Weight int `json:"weight,omitempty"`
	Quota
	Disabled bool `json:"disabled,omitempty"`
}

// Config is the -tenants file shape.
type Config struct {
	Tenants   []TenantConfig   `json:"tenants"`
	Anonymous *AnonymousConfig `json:"anonymous,omitempty"`
}

// Tenant is one resolved tenant plus its live admission state. The
// identity fields are immutable after registry construction; the
// in-flight counter and rate bucket are the mutable hot-path state.
type Tenant struct {
	Name     string
	Weight   int
	Quota    Quota
	Disabled bool

	// share is the guaranteed in-flight slot count computed by
	// SetCapacity; 0 when no capacity is configured.
	share    int64
	inflight atomic.Int64
	bucket   ratelimit.Bucket
}

// TakeToken spends one token from the tenant's rate bucket, reporting
// how long until a token is available when the bucket is empty. Tenants
// without an RPS quota always admit.
func (t *Tenant) TakeToken(now time.Time) (ok bool, retryAfter time.Duration) {
	if t.Quota.RPS <= 0 {
		return true, 0
	}
	return t.bucket.Take(t.Quota.RPS, ratelimit.Burst(t.Quota.Burst, t.Quota.RPS), now)
}

// Registry resolves API keys to tenants and runs the weighted-fair
// in-flight gate. Build it once from config; resolution and admission
// are lock-free afterwards.
type Registry struct {
	tenants []*Tenant // configured tenants, file order
	anon    *Tenant
	byKey   map[string]*Tenant

	capacity int
	slack    int64
	borrowed atomic.Int64
}

// New builds a registry from cfg. A nil cfg yields the default single-
// tenant world: only the anonymous tenant, unlimited quota, weight 1 —
// admission behaves exactly like the pre-tenancy global semaphore.
func New(cfg *Config) (*Registry, error) {
	r := &Registry{byKey: make(map[string]*Tenant)}
	anon := &Tenant{Name: AnonymousName, Weight: 1}
	if cfg != nil && cfg.Anonymous != nil {
		a := cfg.Anonymous
		if a.Weight > maxWeight {
			return nil, fmt.Errorf("tenant: anonymous: weight %d above the maximum %d", a.Weight, maxWeight)
		}
		anon.Quota = a.Quota
		anon.Disabled = a.Disabled
		if a.Weight > 0 {
			anon.Weight = a.Weight
		}
	}
	r.anon = anon
	if cfg == nil {
		return r, nil
	}
	seenName := map[string]bool{AnonymousName: true}
	for i, tc := range cfg.Tenants {
		if tc.Name == "" {
			return nil, fmt.Errorf("tenant: tenants[%d]: name is required", i)
		}
		if seenName[tc.Name] {
			return nil, fmt.Errorf("tenant: duplicate tenant name %q (note %q is reserved; override it via the top-level anonymous field)", tc.Name, AnonymousName)
		}
		seenName[tc.Name] = true
		if tc.Weight < 0 || tc.RPS < 0 || tc.Burst < 0 || tc.MaxInFlight < 0 {
			return nil, fmt.Errorf("tenant: tenant %q: negative weight or quota", tc.Name)
		}
		if tc.Weight > maxWeight {
			return nil, fmt.Errorf("tenant: tenant %q: weight %d above the maximum %d", tc.Name, tc.Weight, maxWeight)
		}
		if len(tc.Keys) == 0 && !tc.Disabled {
			return nil, fmt.Errorf("tenant: tenant %q: at least one key is required", tc.Name)
		}
		t := &Tenant{Name: tc.Name, Weight: tc.Weight, Quota: tc.Quota, Disabled: tc.Disabled}
		if t.Weight == 0 {
			t.Weight = 1
		}
		for _, k := range tc.Keys {
			if k == "" {
				return nil, fmt.Errorf("tenant: tenant %q: empty key", tc.Name)
			}
			if _, dup := r.byKey[k]; dup {
				return nil, fmt.Errorf("tenant: key %q assigned to more than one tenant", k)
			}
			r.byKey[k] = t
		}
		r.tenants = append(r.tenants, t)
	}
	return r, nil
}

// Load parses a Config from JSON bytes, rejecting unknown fields so a
// typo in a quota name fails loudly instead of silently unlimiting.
func Load(data []byte) (*Registry, error) {
	var cfg Config
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("tenant: parse config: %w", err)
	}
	return New(&cfg)
}

// LoadFile reads and parses the -tenants config file.
func LoadFile(path string) (*Registry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tenant: %w", err)
	}
	return Load(data)
}

// Resolve maps an API key (empty = no key presented) to its tenant.
func (r *Registry) Resolve(key string) (*Tenant, error) {
	if key == "" {
		if r.anon.Disabled {
			return nil, ErrKeyRequired
		}
		return r.anon, nil
	}
	t, ok := r.byKey[key]
	if !ok {
		return nil, ErrUnknownKey
	}
	if t.Disabled {
		return nil, ErrDisabled
	}
	return t, nil
}

// Names returns every tenant name the registry can produce — the
// configured tenants plus the anonymous tenant — which is exactly the
// bounded label set metric families may use.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.tenants)+1)
	for _, t := range r.tenants {
		out = append(out, t.Name)
	}
	return append(out, AnonymousName)
}

// Anonymous returns the built-in anonymous tenant.
func (r *Registry) Anonymous() *Tenant { return r.anon }

// SetCapacity distributes capacity c into guaranteed per-tenant shares
// by weight: share_i = floor(c·w_i/Σw) over the enabled tenants, with
// the flooring remainder kept as a shared borrow pool. c ≤ 0 disables
// the fair gate (per-tenant MaxInFlight quotas still apply). Call it
// once at boot, before traffic — shares are read without locks.
func (r *Registry) SetCapacity(c int) {
	r.capacity = c
	r.slack = 0
	all := append(append([]*Tenant{}, r.tenants...), r.anon)
	if c <= 0 {
		for _, t := range all {
			t.share = 0
		}
		return
	}
	var sumW uint64 // cannot wrap: every weight is at most maxWeight
	for _, t := range all {
		if !t.Disabled {
			sumW += uint64(t.Weight)
		}
	}
	var assigned int64
	for _, t := range all {
		if t.Disabled || sumW == 0 {
			t.share = 0
			continue
		}
		// c·w in 128 bits: the quotient is at most c (w ≤ Σw), but the
		// product leaves int64 once a capacity passes 2⁴³.
		hi, lo := bits.Mul64(uint64(c), uint64(t.Weight))
		share, _ := bits.Div64(hi, lo, sumW)
		t.share = int64(share)
		assigned += t.share
	}
	r.slack = int64(c) - assigned
}

// Verdict is the fair gate's admission decision.
type Verdict int

const (
	// Admitted means the request holds a slot until release is called.
	Admitted Verdict = iota
	// RejectedQuota means the tenant hit its own MaxInFlight quota.
	RejectedQuota
	// RejectedShare means the tenant's guaranteed share and the shared
	// borrow pool are both exhausted.
	RejectedShare
)

// Acquire admits one request for t through the weighted-fair gate,
// returning the release to defer (nil unless Admitted). Admission order:
// the tenant's own MaxInFlight quota, then the guaranteed share, then
// the shared borrow pool. A tenant below its guaranteed share is always
// admitted — the invariant the noisy-neighbor isolation rests on.
func (r *Registry) Acquire(t *Tenant) (release func(), v Verdict) {
	n := t.inflight.Add(1)
	if q := int64(t.Quota.MaxInFlight); q > 0 && n > q {
		t.inflight.Add(-1)
		return nil, RejectedQuota
	}
	if r.capacity <= 0 || n <= t.share {
		return func() { t.inflight.Add(-1) }, Admitted
	}
	if b := r.borrowed.Add(1); b <= r.slack {
		return func() {
			r.borrowed.Add(-1)
			t.inflight.Add(-1)
		}, Admitted
	}
	r.borrowed.Add(-1)
	t.inflight.Add(-1)
	return nil, RejectedShare
}
