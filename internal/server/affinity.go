package server

import "strings"

// This file is the routing contract shared between the server and the
// chatgraph-router proxy tier (internal/cluster). The router never imports
// the engine — it imports these helpers so that what the proxy believes
// about a route (which backend owns it, whether a failed attempt may be
// retried on another hop) is defined next to the handlers that implement
// the route, and pinned against the server's route table by a test.

// AffinityClass says which backend in a cluster may serve a route.
type AffinityClass int

const (
	// AffinityNone routes may be served by any healthy backend: they touch
	// only engine-immutable state (retrieval index, API registry, config).
	AffinityNone AffinityClass = iota
	// AffinitySession routes must reach the backend that owns the session
	// named in the path (conversation state is not replicated). An empty
	// Key marks session creation: the id does not exist yet, so the caller
	// mints one and derives the owner from it.
	AffinitySession
	// AffinityJob routes must reach the backend that owns the job named in
	// the path. An empty Key marks job submission.
	AffinityJob
	// AffinityFanout routes aggregate state that lives on every backend
	// (list endpoints); a cluster tier answers them by merging per-backend
	// responses.
	AffinityFanout
)

// String names the class for logs and metrics labels.
func (c AffinityClass) String() string {
	switch c {
	case AffinitySession:
		return "session"
	case AffinityJob:
		return "job"
	case AffinityFanout:
		return "fanout"
	default:
		return "none"
	}
}

// RouteAffinity is one route's cluster-routing contract.
type RouteAffinity struct {
	Class AffinityClass
	// Key is the identity extracted from the path (session or job id);
	// empty for create/submit routes and for keyless classes.
	Key string
	// Idempotent reports whether a failed attempt may be replayed against
	// another backend. Chat and submission POSTs are never idempotent: the
	// first attempt may have executed before the connection died, and
	// replaying it would double-run the chain.
	Idempotent bool
}

// ClassifyRoute maps one request (method, URL path) onto its routing
// contract. Unknown paths classify as AffinityNone and non-idempotent, the
// conservative default: any backend may 404 them, and nothing retries.
func ClassifyRoute(method, path string) RouteAffinity {
	switch {
	case path == "/v1/sessions":
		if method == "GET" {
			return RouteAffinity{Class: AffinityFanout, Idempotent: true}
		}
		// POST: creation — the id is minted by the caller or the backend.
		return RouteAffinity{Class: AffinitySession}
	case strings.HasPrefix(path, "/v1/sessions/"):
		rest := strings.TrimPrefix(path, "/v1/sessions/")
		id, sub, _ := strings.Cut(rest, "/")
		// Chat executes a chain (side effects, rate-limit tokens); history
		// and delete are safe to replay — though all of them are bound to
		// the one owning backend regardless.
		idem := !(method == "POST" && sub == "chat")
		return RouteAffinity{Class: AffinitySession, Key: id, Idempotent: idem}
	case path == "/v1/jobs":
		if method == "GET" {
			return RouteAffinity{Class: AffinityFanout, Idempotent: true}
		}
		return RouteAffinity{Class: AffinityJob}
	case strings.HasPrefix(path, "/v1/jobs/"):
		id := strings.TrimPrefix(path, "/v1/jobs/")
		// GET polls; DELETE cancel is idempotent by contract (terminal
		// cancels echo the settled state).
		return RouteAffinity{Class: AffinityJob, Key: id, Idempotent: true}
	case path == "/v1/retrieve":
		// Stateless read over the engine-immutable index: any backend,
		// retry freely.
		return RouteAffinity{Class: AffinityNone, Idempotent: true}
	case path == "/apis" || path == "/suggest" || path == "/config" || path == "/healthz" || path == "/readyz" || path == "/metrics":
		return RouteAffinity{Class: AffinityNone, Idempotent: true}
	default:
		return RouteAffinity{}
	}
}
