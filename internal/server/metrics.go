package server

import (
	"net/http"
	"time"

	"chatgraph/internal/metrics"
)

// httpMetrics holds the server's pre-resolved metric handles: everything the
// per-request path touches is created once here, so handlers pay atomics
// only, never a registry lookup.
type httpMetrics struct {
	reg *metrics.Registry
	// inFlight counts requests inside any instrumented handler.
	inFlight *metrics.Gauge
	// gatedInFlight counts requests currently admitted past the max-in-flight
	// gate — the value the cap is enforced against.
	gatedInFlight  *metrics.Gauge
	shedInFlight   *metrics.Counter
	shedTenantRate *metrics.Counter
	shedRPS        *metrics.Counter
	routes         map[string]*routeMetrics
}

// routeMetrics is one route's instrument set: a latency histogram plus one
// counter per status class (1xx..5xx), resolved at registration time.
type routeMetrics struct {
	classes  [6]*metrics.Counter
	duration *metrics.Histogram
}

var statusClasses = [6]string{"", "1xx", "2xx", "3xx", "4xx", "5xx"}

func newHTTPMetrics(reg *metrics.Registry) *httpMetrics {
	return &httpMetrics{
		reg: reg,
		inFlight: reg.Gauge("chatgraph_http_in_flight",
			"Requests currently being served.", nil),
		gatedInFlight: reg.Gauge("chatgraph_http_gated_in_flight",
			"Requests admitted past the max-in-flight gate and still running.", nil),
		shedInFlight: reg.Counter("chatgraph_http_shed_total",
			"Requests shed with 429.", metrics.Labels{"reason": "in_flight"}),
		shedTenantRate: reg.Counter("chatgraph_http_shed_total",
			"Requests shed with 429.", metrics.Labels{"reason": "tenant_rate"}),
		shedRPS: reg.Counter("chatgraph_http_shed_total",
			"Requests shed with 429.", metrics.Labels{"reason": "max_rps"}),
		routes: make(map[string]*routeMetrics),
	}
}

// route registers (or returns) the instrument set for one route name. Called
// only while the Handler route table is built.
func (hm *httpMetrics) route(name string) *routeMetrics {
	if rm, ok := hm.routes[name]; ok {
		return rm
	}
	rm := &routeMetrics{
		duration: hm.reg.Histogram("chatgraph_http_request_duration_seconds",
			"Request latency by route.", metrics.DefBuckets, metrics.Labels{"route": name}),
	}
	for class := 1; class <= 5; class++ {
		rm.classes[class] = hm.reg.Counter("chatgraph_http_requests_total",
			"Requests by route and status class.",
			metrics.Labels{"route": name, "class": statusClasses[class]})
	}
	hm.routes[name] = rm
	return rm
}

// statusWriter captures the response status for the class counter while
// passing Flush through so NDJSON streaming keeps working.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps h with the per-route request counter, latency histogram,
// and the process-wide in-flight gauge.
func (s *Server) instrument(route string, h http.Handler) http.Handler {
	rm := s.hm.route(route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.hm.inFlight.Inc()
		defer s.hm.inFlight.Dec()
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(sw, r)
		rm.duration.Observe(time.Since(start).Seconds())
		class := sw.status / 100
		if class < 1 || class > 5 {
			class = 2 // a handler that never wrote implies an implicit 200
		}
		rm.classes[class].Inc()
	})
}
