package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "requests", Labels{"route": "chat"})
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	// Same name+labels returns the same instance.
	if r.Counter("requests_total", "", Labels{"route": "chat"}) != c {
		t.Fatal("get-or-create returned a new counter")
	}
	// Different labels, different instance, same family.
	c2 := r.Counter("requests_total", "", Labels{"route": "retrieve"})
	if c2 == c {
		t.Fatal("distinct label sets share a counter")
	}

	g := r.Gauge("in_flight", "in flight", nil)
	g.Inc()
	g.Inc()
	g.Dec()
	if g.Value() != 1 {
		t.Fatalf("gauge = %d", g.Value())
	}
	g.Set(-7)
	if g.Value() != -7 {
		t.Fatalf("gauge after Set = %d", g.Value())
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", "latency", []float64{0.01, 0.1, 1}, nil)
	for i := 0; i < 90; i++ {
		h.Observe(0.005) // ≤ 0.01 bucket
	}
	for i := 0; i < 9; i++ {
		h.Observe(0.05) // ≤ 0.1 bucket
	}
	h.Observe(5) // +Inf bucket

	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	wantSum := 90*0.005 + 9*0.05 + 5
	if math.Abs(h.Sum()-wantSum) > 1e-9 {
		t.Fatalf("sum = %g, want %g", h.Sum(), wantSum)
	}
	bounds, cum := h.Snapshot()
	if len(bounds) != 3 || len(cum) != 4 {
		t.Fatalf("snapshot shapes: %d bounds, %d cum", len(bounds), len(cum))
	}
	if cum[0] != 90 || cum[1] != 99 || cum[2] != 99 || cum[3] != 100 {
		t.Fatalf("cumulative = %v", cum)
	}
}

func TestTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on counter/gauge name conflict")
		}
	}()
	r.Gauge("x_total", "", nil)
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("chatgraph_http_requests_total", "HTTP requests", Labels{"route": "chat", "class": "2xx"}).Add(3)
	r.Gauge("chatgraph_http_in_flight", "in-flight", nil).Set(2)
	h := r.Histogram("chatgraph_http_request_duration_seconds", "latency", []float64{0.1, 1}, Labels{"route": "chat"})
	h.Observe(0.05)
	h.Observe(0.5)
	r.GaugeFunc("chatgraph_sessions_live", "live sessions", nil, func() float64 { return 42 })
	r.CounterFunc("chatgraph_cache_hits_total", "hits", nil, func() float64 { return 7 })

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE chatgraph_http_requests_total counter",
		`chatgraph_http_requests_total{class="2xx",route="chat"} 3`,
		"# TYPE chatgraph_http_in_flight gauge",
		"chatgraph_http_in_flight 2",
		`chatgraph_http_request_duration_seconds_bucket{route="chat",le="0.1"} 1`,
		`chatgraph_http_request_duration_seconds_bucket{route="chat",le="+Inf"} 2`,
		`chatgraph_http_request_duration_seconds_sum{route="chat"} 0.55`,
		`chatgraph_http_request_duration_seconds_count{route="chat"} 2`,
		"chatgraph_sessions_live 42",
		"chatgraph_cache_hits_total 7",
		"# HELP chatgraph_http_requests_total HTTP requests",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families are sorted by name: cache before http before sessions.
	if strings.Index(out, "chatgraph_cache_hits_total") > strings.Index(out, "chatgraph_http_in_flight") {
		t.Fatalf("families not sorted:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("weird_total", "", Labels{"q": "a\"b\\c\nd"}).Inc()
	var b strings.Builder
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), `q="a\"b\\c\nd"`) {
		t.Fatalf("label not escaped:\n%s", b.String())
	}
}

// TestRegistryConcurrentHammer is the -race stress: concurrent registration,
// increments, observations, and scrapes on one registry must be data-race
// free and must not lose counted increments.
func TestRegistryConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	const (
		workers = 8
		iters   = 2000
	)
	routes := []string{"chat", "retrieve", "history"}
	// Register one metric up front so scrapers started before the first
	// worker increment still see a non-empty exposition.
	r.Gauge("hammer_in_flight", "", nil)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				route := routes[(w+i)%len(routes)]
				// Exercise the get-or-create path deliberately: real hot
				// paths hold handles, but creation must also be safe.
				r.Counter("hammer_requests_total", "", Labels{"route": route}).Inc()
				r.Gauge("hammer_in_flight", "", nil).Inc()
				r.Histogram("hammer_latency_seconds", "", nil, Labels{"route": route}).Observe(float64(i%100) / 1000)
				r.Gauge("hammer_in_flight", "", nil).Dec()
			}
		}(w)
	}
	// Concurrent scrapers.
	stop := make(chan struct{})
	var scrape sync.WaitGroup
	for s := 0; s < 2; s++ {
		scrape.Add(1)
		go func() {
			defer scrape.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var b strings.Builder
				r.WritePrometheus(&b)
				if b.Len() == 0 {
					t.Error("empty scrape mid-hammer")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	scrape.Wait()

	var total uint64
	for _, route := range routes {
		total += r.Counter("hammer_requests_total", "", Labels{"route": route}).Value()
	}
	if total != workers*iters {
		t.Fatalf("lost increments: %d != %d", total, workers*iters)
	}
	if got := r.Gauge("hammer_in_flight", "", nil).Value(); got != 0 {
		t.Fatalf("in-flight gauge should settle at 0, got %d", got)
	}
	var hcount uint64
	for _, route := range routes {
		hcount += r.Histogram("hammer_latency_seconds", "", nil, Labels{"route": route}).Count()
	}
	if hcount != workers*iters {
		t.Fatalf("lost observations: %d != %d", hcount, workers*iters)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "", nil)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "", nil, nil)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(0.0042)
		}
	})
}
