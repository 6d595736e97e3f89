package server

import (
	"context"
	"math"
	"net/http"
	"strconv"
	"time"

	"chatgraph/internal/ratelimit"
	"chatgraph/internal/tenant"
)

// admission gates h behind the server's overload policy. The stages run in
// one fixed order, and a request refused at one stage is never charged at a
// later one (DESIGN.md "Admission control" prints the same order as a
// table):
//
//  1. ready       — a server mid-recovery answers from a half-restored
//     world, so it refuses outright (503).
//  2. resolve key — API key → tenant (401/403); everything after is
//     accounted to that tenant.
//  3. fair gate   — the weighted-fair partition of MaxInFlight plus the
//     tenant's own in-flight quota (429).
//  4. tenant rate — the tenant's token bucket (429).
//  5. global rate — the MaxRPS bucket across all tenants (429).
//  6. deadline    — a context deadline, so a stuck chain cannot pin a
//     session lock forever (the handler answers 504).
//
// It is one flat function rather than a chain of middleware because each
// stage consumes the previous one's result (the tenant, the gate's release).
// Health and metrics routes are never gated — an overloaded server must
// still report that it is overloaded.
func (s *Server) admission(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() {
			shed(w, r, http.StatusServiceUnavailable, 0, "server recovering, retry later")
			return
		}

		tn, err := s.tenants.Resolve(r.Header.Get(APIKeyHeader))
		if err != nil {
			s.writeAuthError(w, r, err)
			return
		}
		r = r.WithContext(context.WithValue(r.Context(), tenantCtxKey{}, tn))
		ts := s.tm.series(tn)
		ts.requests.Inc()

		release, verdict := s.tenants.Acquire(tn)
		if verdict != tenant.Admitted {
			s.hm.shedInFlight.Inc()
			if verdict == tenant.RejectedQuota {
				ts.shedQuota.Inc()
			} else {
				ts.shedFair.Inc()
			}
			shed(w, r, http.StatusTooManyRequests, 0, "tenant over capacity, retry later")
			return
		}
		defer release()

		if ok, retry := tn.TakeToken(time.Now()); !ok {
			s.hm.shedTenantRate.Inc()
			ts.shedRate.Inc()
			shed(w, r, http.StatusTooManyRequests, retry, "tenant rate limit exceeded, retry later")
			return
		}

		// The gauge tracks total admitted occupancy across tenants — the
		// value the old single semaphore enforced, kept for dashboards.
		s.hm.gatedInFlight.Inc()
		defer s.hm.gatedInFlight.Dec()
		if rate := s.opts.MaxRPS; rate > 0 {
			// Burst is ~a quarter second of budget so short arrival spikes
			// ride through while the sustained rate holds at the cap.
			if ok, retry := s.globalBucket.Take(rate, ratelimit.Burst(0, rate/4), time.Now()); !ok {
				s.hm.shedRPS.Inc()
				shed(w, r, http.StatusTooManyRequests, retry, "server rate capacity exceeded, retry later")
				return
			}
		}

		if t := s.opts.RequestTimeout; t > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), t)
			defer cancel()
			r = r.WithContext(ctx)
		}
		start := time.Now()
		next(w, r)
		ts.duration.Observe(time.Since(start).Seconds())
	}
}

// shed writes one load-shedding reply — 429, or 503 while recovering — with
// its Retry-After. Every refusal that asks the client to come back goes
// through here, so all of them agree on the header and the error body.
// retryAfter is the refill wait when a bucket knows one, 0 otherwise.
func shed(w http.ResponseWriter, r *http.Request, status int, retryAfter time.Duration, msg string) {
	setRetryAfter(w, retryAfter)
	WriteError(w, r, status, msg)
}

// setRetryAfter stamps the Retry-After header: d rounded up to the integer
// seconds the header carries, never below 1 — the one rounding every shed
// path shares.
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	w.Header().Set("Retry-After", strconv.Itoa(max(1, int(math.Ceil(d.Seconds())))))
}
