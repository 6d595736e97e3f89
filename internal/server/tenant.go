package server

import (
	"errors"
	"net/http"

	"chatgraph/internal/metrics"
	"chatgraph/internal/tenant"
)

// APIKeyHeader carries the caller's tenant credential. The cluster
// router forwards it untouched (it is not hop-by-hop), so backends make
// the same admission decision a single-node deployment would.
const APIKeyHeader = "X-API-Key"

// tenantCtxKey carries the resolved *tenant.Tenant in the request
// context once admission has authenticated the request.
type tenantCtxKey struct{}

// currentTenant returns the tenant admission resolved for r. Handlers
// behind the admission gate always find one; the anonymous tenant is the
// fallback for anything reached outside the gate.
func (s *Server) currentTenant(r *http.Request) *tenant.Tenant {
	if t, ok := r.Context().Value(tenantCtxKey{}).(*tenant.Tenant); ok {
		return t
	}
	return s.tenants.Anonymous()
}

// authTenant resolves the request's tenant from its API key, writing the
// 401/403 itself on failure. Admission-gated routes already carry the
// resolved tenant in context; the ungated job routes (status, stream,
// cancel) resolve here because ownership checks need an identity even
// where overload shedding must not apply.
func (s *Server) authTenant(w http.ResponseWriter, r *http.Request) (*tenant.Tenant, bool) {
	if t, ok := r.Context().Value(tenantCtxKey{}).(*tenant.Tenant); ok {
		return t, true
	}
	t, err := s.tenants.Resolve(r.Header.Get(APIKeyHeader))
	if err != nil {
		s.writeAuthError(w, r, err)
		return nil, false
	}
	return t, true
}

// writeAuthError maps a resolution failure to its HTTP status and counts
// it. Failures are counted by reason, never by key — an attacker spraying
// random keys must not mint metric series.
func (s *Server) writeAuthError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, tenant.ErrDisabled):
		s.tm.authDisabled.Inc()
		WriteError(w, r, http.StatusForbidden, "tenant disabled")
	case errors.Is(err, tenant.ErrKeyRequired):
		s.tm.authMissing.Inc()
		WriteError(w, r, http.StatusUnauthorized, "api key required")
	default:
		s.tm.authUnknown.Inc()
		WriteError(w, r, http.StatusUnauthorized, "unknown api key")
	}
}

// ownedBy reports whether a stored owner name matches the caller's
// tenant. Records written before tenancy existed (empty owner) belong to
// the anonymous tenant, so old WALs recover with sane ownership.
func ownedBy(owner string, t *tenant.Tenant) bool {
	if owner == "" {
		owner = tenant.AnonymousName
	}
	return owner == t.Name
}

// tenantSeries is one tenant's pre-resolved metric handles.
type tenantSeries struct {
	requests  *metrics.Counter
	shedFair  *metrics.Counter
	shedQuota *metrics.Counter
	shedRate  *metrics.Counter
	duration  *metrics.Histogram
}

// tenantMetrics holds the per-tenant series for the bounded label set
// (configured tenants + anonymous), resolved once at construction, plus
// the by-reason auth failure counters. Cardinality is fixed at boot: no
// request can create a series.
type tenantMetrics struct {
	byName       map[string]*tenantSeries
	authMissing  *metrics.Counter
	authUnknown  *metrics.Counter
	authDisabled *metrics.Counter
}

func newTenantMetrics(reg *metrics.Registry, tr *tenant.Registry) *tenantMetrics {
	authHelp := "Requests rejected at tenant resolution, by reason."
	tm := &tenantMetrics{
		byName:       make(map[string]*tenantSeries),
		authMissing:  reg.Counter("chatgraph_auth_failures_total", authHelp, metrics.Labels{"reason": "key_required"}),
		authUnknown:  reg.Counter("chatgraph_auth_failures_total", authHelp, metrics.Labels{"reason": "unknown_key"}),
		authDisabled: reg.Counter("chatgraph_auth_failures_total", authHelp, metrics.Labels{"reason": "disabled"}),
	}
	shedHelp := "Admission-gated requests shed per tenant, by reason."
	for _, name := range tr.Names() {
		tm.byName[name] = &tenantSeries{
			requests: reg.Counter("chatgraph_tenant_requests_total",
				"Admission-gated requests per tenant.", metrics.Labels{"tenant": name}),
			shedFair:  reg.Counter("chatgraph_tenant_shed_total", shedHelp, metrics.Labels{"tenant": name, "reason": "fair_share"}),
			shedQuota: reg.Counter("chatgraph_tenant_shed_total", shedHelp, metrics.Labels{"tenant": name, "reason": "tenant_inflight"}),
			shedRate:  reg.Counter("chatgraph_tenant_shed_total", shedHelp, metrics.Labels{"tenant": name, "reason": "tenant_rate"}),
			duration: reg.Histogram("chatgraph_tenant_request_duration_seconds",
				"Admitted request latency per tenant.", metrics.DefBuckets, metrics.Labels{"tenant": name}),
		}
	}
	return tm
}

// series returns the handles for t (always present: the registry's
// tenant set is exactly what newTenantMetrics enumerated).
func (tm *tenantMetrics) series(t *tenant.Tenant) *tenantSeries { return tm.byName[t.Name] }
