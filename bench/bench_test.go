package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"chatgraph/internal/apis"
	"chatgraph/internal/server"
)

// TestMain lets the test binary stand in for the benchmark's own binary when
// startCalibrator re-executes it as the calibration child.
func TestMain(m *testing.M) {
	if os.Getenv(calibEnv) != "" {
		runCalibrator()
	}
	os.Exit(m.Run())
}

func TestQuantileCountsSamplesBeyond(t *testing.T) {
	samples := make([]float64, 240)
	for i := range samples {
		samples[len(samples)-1-i] = float64(i + 1) // unsorted on purpose
	}
	v, beyond := quantile(samples, 0.95)
	if v != 228 || beyond != 12 {
		t.Fatalf("p95 of 1..240 = %v with %d beyond, want 228 with 12", v, beyond)
	}
	if beyond < minBeyond {
		t.Fatalf("240 samples must support p95 (%d beyond < %d)", beyond, minBeyond)
	}
	if _, beyond := quantile(samples[:100], 0.95); beyond >= minBeyond {
		t.Fatalf("100 samples leave %d beyond p95; the rule must reject that", beyond)
	}
	if v, _ := quantile(samples, 0.5); v != 120 {
		t.Fatalf("median of 1..240 = %v, want 120", v)
	}
	if v, beyond := quantile(nil, 0.95); v != 0 || beyond != 0 {
		t.Fatalf("empty input = (%v, %d), want (0, 0)", v, beyond)
	}
	if samples[0] != 240 {
		t.Fatal("quantile reordered its input")
	}
}

func TestQuietHalfLeavesOutABurst(t *testing.T) {
	// 1000 paced latencies of 1..2 ms in schedule order, with a 250-sample
	// stretch in the middle during which the host ran at half speed: the
	// plain median feels it, the quieter half of the ten slices does not.
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = 1 + float64(i%100)/100
		if i >= 420 && i < 670 {
			samples[i] *= 2
		}
	}
	quiet := quietHalf(samples)
	if len(quiet) != 500 {
		t.Fatalf("quiet half holds %d samples, want 500", len(quiet))
	}
	for _, v := range quiet {
		if v > 2 {
			t.Fatalf("quiet half contains a burst sample (%v)", v)
		}
	}
	if got, plain := median(quiet), median(samples); got != 1.49 || plain <= got {
		t.Fatalf("median of the quiet half = %v (plain %v), want the steady 1.49 below the plain one", got, plain)
	}
	// Too few samples to slice are returned as they are, and nothing is
	// reordered in place.
	if got := quietHalf(samples[:19]); len(got) != 19 {
		t.Fatalf("19 samples: got %d back", len(got))
	}
	if samples[0] != 1 || samples[999] != 1.99 {
		t.Fatal("quietHalf reordered its input")
	}
}

func TestGenerateIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads() {
		a, b, c := w.generate(7, 40), w.generate(7, 40), w.generate(8, 40)
		schedule(a, w.pacedRate, 7)
		schedule(b, w.pacedRate, 7)
		schedule(c, w.pacedRate, 8)
		same, differs := true, false
		for i := range a {
			if a[i].kind != b[i].kind || !bytes.Equal(a[i].body, b[i].body) || a[i].due != b[i].due {
				same = false
			}
			if !bytes.Equal(a[i].body, c[i].body) || a[i].due != c[i].due {
				differs = true
			}
		}
		if !same {
			t.Errorf("%s: seed 7 generated two different request sequences", w.name)
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 generated the same request sequence", w.name)
		}
		// A longer run extends the sequence; it does not reshuffle it.
		if long := w.generate(7, 60); !bytes.Equal(long[39].body, a[39].body) {
			t.Errorf("%s: op 39 depends on how many ops were requested", w.name)
		}
	}
}

func TestScheduleKeepsTheRate(t *testing.T) {
	ops := make([]op, 1000)
	schedule(ops, 200, 3)
	for i := 1; i < len(ops); i++ {
		if ops[i].due <= ops[i-1].due {
			t.Fatalf("due times not increasing at %d: %v then %v", i, ops[i-1].due, ops[i].due)
		}
	}
	if last := ops[len(ops)-1].due; last < 4980*time.Millisecond || last > 5*time.Second {
		t.Fatalf("1000 arrivals at 200/s end at %v, want just under 5s", last)
	}
}

func TestSpanSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "request", StartNS: 0, EndNS: 1000, Parent: -1},
		{Name: "llm.build_prompt", StartNS: 100, EndNS: 700, Parent: 0},
		{Name: "seq.sequentialize", StartNS: 2000, EndNS: 2450, Parent: 1}, // re-measured outside its parent
		{Name: "executor.run", StartNS: 700, EndNS: 900, Parent: 0},
		{Name: "llm.build_prompt", StartNS: 0, EndNS: 100, Parent: -1},
		{Name: "seq.sequentialize", StartNS: 0, EndNS: 150, Parent: 4}, // child longer than parent
	}}
	if got := tr.self(0); got != 200 {
		t.Errorf("request self = %d, want 1000-600-200 = 200", got)
	}
	if got := tr.self(1); got != 150 {
		t.Errorf("build_prompt self = %d, want 600-450 = 150", got)
	}
	if got := tr.self(4); got != 0 {
		t.Errorf("self below zero must clamp, got %d", got)
	}
	if sum, n := tr.total("seq.sequentialize"); sum != 600 || n != 2 {
		t.Errorf("total(seq.sequentialize) = (%d, %d), want (600, 2)", sum, n)
	}
	if got := tr.childTotal("request"); got != 800 {
		t.Errorf("childTotal(request) = %d, want 800", got)
	}
	var none *tracer
	none.end(none.begin("ignored", -1, 0)) // a nil tracer records nothing and must not panic
}

func TestParseProcStat(t *testing.T) {
	// comm may hold spaces and parentheses; utime=250 stime=50 ticks.
	line := "4242 (chat) graphd (x) S 1 4242 4242 0 -1 4194560 900 0 0 0 250 50 0 0 20 0 9 0 12345 1 2 3\n"
	got, err := parseProcStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3*time.Second {
		t.Fatalf("cpu = %v, want 300 ticks = 3s", got)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 10 eleven 12 13"} {
		if _, err := parseProcStat(bad); err == nil {
			t.Errorf("parseProcStat(%q) accepted a malformed line", bad)
		}
	}
	kb, err := parseProcStatusKB("Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   65536 kB\nVmRSS:\t 100 kB\n", "VmHWM")
	if err != nil || kb != 65536 {
		t.Fatalf("VmHWM = %v, %v; want 65536", kb, err)
	}
	if _, err := parseProcStatusKB("Name:\tx\n", "VmHWM"); err == nil {
		t.Fatal("missing VmHWM must be an error")
	}
}

func TestScrapeDeltas(t *testing.T) {
	doc := func(chat, retrieve float64) scrape {
		s, err := parseScrape(strings.NewReader("# HELP x y\n# TYPE x counter\n" +
			`chatgraph_http_request_duration_seconds_sum{route="v1.chat"} ` + jsonNum(chat) + "\n" +
			`chatgraph_http_request_duration_seconds_sum{route="v1.retrieve"} ` + jsonNum(retrieve) + "\n" +
			`chatgraph_http_request_duration_seconds_count{route="v1.chat"} 7` + "\n" +
			`chatgraph_http_shed_total{reason="in_flight"} 2` + "\n" +
			`chatgraph_http_shed_total{reason="max_rps"} 3` + "\n" +
			"chatgraph_wal_bytes_total 4096\n"))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	before, after := doc(1.5, 10), doc(2.25, 11)
	if got := delta(before, after, "chatgraph_http_request_duration_seconds_sum", `route="v1.chat"`); got != 0.75 {
		t.Errorf("chat duration delta = %v, want 0.75 (and the _count family must not leak in)", got)
	}
	if got := after.sum("chatgraph_http_shed_total"); got != 5 {
		t.Errorf("shed total across reasons = %v, want 5", got)
	}
	if got := after.sum("chatgraph_wal_bytes_total"); got != 4096 {
		t.Errorf("unlabelled series = %v, want 4096", got)
	}
}

func jsonNum(v float64) string { b, _ := json.Marshal(v); return string(b) }

// fakeDaemon serves just enough of chatgraphd for a retrieve-only load
// client: session creation and a /v1/retrieve the test scripts.
func fakeDaemon(t *testing.T, retrieve http.HandlerFunc) *loadClient {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusCreated)
		json.NewEncoder(w).Encode(server.SessionInfo{SessionID: "0123456789abcdef"}) //nolint:errcheck
	})
	mux.HandleFunc("POST /v1/retrieve", retrieve)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	lc, err := newLoadClient(srv.URL, workload{}, apis.Default(&apis.Env{}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.close)
	return lc
}

// retrieveOps returns n single-query retrieve ops whose expected hits are
// the first five registered APIs, and the reply body that satisfies them.
func retrieveOps(n int) ([]op, []byte) {
	names := apis.Default(&apis.Env{}).Names()[:retrieveK]
	hits := make([]server.RetrieveHit, retrieveK)
	for i, name := range names {
		hits[i] = server.RetrieveHit{Name: name, Description: "d", Distance: float32(i)}
	}
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{kind: opRetrieve, queries: []string{"q"}, body: []byte(`{"queries":["q"]}`), wantHits: [][]server.RetrieveHit{hits}}
	}
	return ops, mustJSON(server.RetrieveResponse{Results: [][]server.RetrieveHit{hits}})
}

func TestPacedLatencyIsTimedFromDueTime(t *testing.T) {
	ops, good := retrieveOps(12)
	for i := range ops {
		ops[i].due = time.Duration(i) * 10 * time.Millisecond
	}
	// Ops 2 and 3 are marked; the server stalls on them, which occupies
	// both clients from ~20 ms to ~220 ms while ops 4.. come due.
	ops[2].body = []byte(`{"queries":["stall"]}`)
	ops[3].body = ops[2].body
	lc := fakeDaemon(t, func(w http.ResponseWriter, r *http.Request) {
		if body, _ := io.ReadAll(r.Body); bytes.Contains(body, []byte("stall")) {
			time.Sleep(200 * time.Millisecond)
		}
		w.Write(good) //nolint:errcheck
	})
	samples := runPaced(ops, lc.do)
	for i, s := range samples {
		if !s.out.ok {
			t.Fatalf("op %d failed: %s", i, s.out.why)
		}
	}
	if !samples[1].idle || samples[1].latencyMS() > 50 {
		t.Errorf("op 1 before the stall: idle=%v latency=%.1f ms, want an idle client and a short latency", samples[1].idle, samples[1].latencyMS())
	}
	// Op 5 was due at 50 ms, could not be sent before ~220 ms, and was then
	// served at once: a closed loop would report a few ms, the open loop
	// must report the ~170 ms it waited.
	s := samples[5]
	service := ms(s.done - s.sent)
	if s.idle || s.latencyMS() < 100 || service > 50 {
		t.Errorf("op 5 during the stall: idle=%v latency-from-due=%.1f ms service=%.1f ms; want not idle, ≥ 100 ms, short service", s.idle, s.latencyMS(), service)
	}
	if d := meanDelay(samples[4:8]); d < 100 {
		t.Errorf("mean start delay of ops 4-7 = %.1f ms, want the stall to show", d)
	}
}

func TestRefusedAndWrongRepliesCountAsFailures(t *testing.T) {
	ops, good := retrieveOps(6)
	var wrong server.RetrieveResponse
	json.Unmarshal(good, &wrong) //nolint:errcheck
	wrong.Results[0][0], wrong.Results[0][1] = wrong.Results[0][1], wrong.Results[0][0]
	var n atomic.Int32
	lc := fakeDaemon(t, func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("X-Request-ID", "req-"+string(rune('0'+n.Load())))
		switch n.Add(1) {
		case 2:
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"shed"}`, http.StatusTooManyRequests)
		case 4:
			w.Write(mustJSON(wrong)) //nolint:errcheck // 200 OK, valid APIs, wrong ranking
		default:
			w.Write(good) //nolint:errcheck
		}
	})
	samples, _ := runClosed(ops, time.Minute, lc.do)
	attempted, failed, failures := tally(samples)
	if attempted != 6 || failed != 2 {
		t.Fatalf("attempted=%d failed=%d, want 6 and 2 (one 429, one wrong answer): %v", attempted, failed, failures)
	}
	joined := strings.Join(failures, "\n")
	if !strings.Contains(joined, "status 429") || !strings.Contains(joined, "in-process engine produced") || !strings.Contains(joined, "X-Request-ID req-") {
		t.Errorf("failure lines must name the status, the mismatch and the request id:\n%s", joined)
	}
	// A failed op misses any latency limit.
	lat := latencies(samples, nil)
	if p100, _ := quantile(lat, 1); p100 != failedLatency {
		t.Errorf("slowest latency = %v, want the failed-op sentinel", p100)
	}
}

func TestCheckerRejectsWrongChats(t *testing.T) {
	k := newChecker(apis.Default(&apis.Env{}))
	o := &op{wantKind: "social", wantChat: &chatWant{chain: "graph.stats -> report.compose", answer: "A"}}
	ok := server.ChatResponse{Answer: "A", Chain: "graph.stats -> report.compose", Kind: "social"}
	if err := k.chat(o, &ok); err != nil {
		t.Fatalf("correct reply rejected: %v", err)
	}
	for name, mutate := range map[string]func(*server.ChatResponse){
		"empty answer":       func(r *server.ChatResponse) { r.Answer = "" },
		"wrong kind":         func(r *server.ChatResponse) { r.Kind = "molecule" },
		"unregistered step":  func(r *server.ChatResponse) { r.Chain = "graph.stats -> no.such_api" },
		"unparseable chain":  func(r *server.ChatResponse) { r.Chain = "graph.stats -> -> x" },
		"other valid chain":  func(r *server.ChatResponse) { r.Chain = "graph.stats" },
		"other answer bytes": func(r *server.ChatResponse) { r.Answer = "A " },
	} {
		r := ok
		mutate(&r)
		if err := k.chat(o, &r); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the program declares %d+%d", len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		m := bf.EndToEnd[i]
		if (metricDecl{m.Name, m.Unit, m.Better}) != d {
			t.Errorf("end_to_end[%d] = %+v, program declares %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, d := range perLayer {
		if m := bf.PerLayer[i]; (metricDecl{m.Name, m.Unit, m.Better}) != d {
			t.Errorf("per_layer[%d] = %+v, program declares %+v", i, m, d)
		}
	}
	ws := workloads()
	if len(bf.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(bf.Workloads), len(ws))
	}
	for i, w := range ws {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workloads[%d] = %+v, program has %s: %s", i, bf.Workloads[i], w.name, w.why)
		}
	}
	if pacedN := 24 * splitPhases(float64(bf.RunSeconds)).paced.Seconds(); pacedN < 240 {
		t.Errorf("run_seconds %d gives the slowest-paced workload %.0f paced samples; p95 needs 240", bf.RunSeconds, pacedN)
	}
}

func TestThroughputIsTheFastestQuarter(t *testing.T) {
	// 4 s closed-loop phase: a slow first second (the ramp), then one
	// completion every 10 ms, except a 400 ms hole at 2.0 s (a host burst).
	var samples []sample
	at := func(d time.Duration, ok bool) {
		samples = append(samples, sample{done: d, out: outcome{ok: ok}})
	}
	for d := time.Duration(0); d < time.Second; d += 25 * time.Millisecond {
		at(d, true)
	}
	for d := time.Second; d < 4*time.Second; d += 10 * time.Millisecond {
		if d >= 2*time.Second && d < 2400*time.Millisecond {
			continue
		}
		at(d, true)
		at(d, false) // failed ops are not throughput
	}
	got := throughput(samples, 4*time.Second)
	if got < 99.9 || got > 100.1 {
		t.Fatalf("throughput = %.2f ops/s, want the steady 100 (a plain count over the phase would say %d)", got, (len(samples)-40)/2/4+10)
	}
	// Too few completions to cut into runs: the plain rate over the wall time.
	if got := throughput(samples[:8], 4*time.Second); got != 2 {
		t.Fatalf("8 completions in 4 s must read 2 ops/s, got %v", got)
	}
	if got := throughput(nil, 4*time.Second); got != 0 {
		t.Fatalf("no completions must read 0, got %v", got)
	}
}

func TestCalibrationKernelIsFixedWork(t *testing.T) {
	raw := calibInput()
	if !bytes.Equal(raw, calibInput()) {
		t.Fatal("the kernel's input differs between two calls")
	}
	if len(raw) < 25_000 || calibKernel(raw) != len(raw) {
		t.Fatalf("kernel re-encoded %d input bytes into %d; want the same ≥ 25 KB document back", len(raw), calibKernel(raw))
	}
}

func TestSlowdownIsTheMedianKernelTimeOfThePhase(t *testing.T) {
	t0 := time.Unix(1_000, 0)
	c := &calibrator{}
	for i, v := range []float64{9, 9, 1.05, 2.1, 2.1, 2.1, 4.2, 9, 9} { // one sample per 100 ms
		c.samples = append(c.samples, calibSample{t0.Add(time.Duration(i) * 100 * time.Millisecond), v})
	}
	// The phase holds samples 2..6: median 2.1 ms, twice the reference.
	got, n := c.slowdown(t0.Add(200*time.Millisecond), t0.Add(700*time.Millisecond))
	if n != 5 || got != 2.1/calibRefMS {
		t.Fatalf("slowdown = %v over %d samples, want %v over 5", got, n, 2.1/calibRefMS)
	}
	// Too few samples to believe: no correction.
	if got, n := c.slowdown(t0, t0.Add(400*time.Millisecond)); got != 1 || n != 4 {
		t.Fatalf("4 samples: slowdown = %v (n=%d), want 1", got, n)
	}
	// A request feels ⅔ of the slowdown: 8× slower host, 4× longer request.
	if got := speedCorrected(40, 8); math.Abs(got-10) > 1e-9 {
		t.Fatalf("40 ms on an 8× slower host corrects to %v, want 10", got)
	}
	if got := speedCorrected(40, 1); got != 40 {
		t.Fatalf("a quiet host must leave the reading alone, got %v", got)
	}
}

func TestCalibratorChildReportsAndStops(t *testing.T) {
	start := time.Now()
	c, err := startCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(8 * calibInterval)
	factor, n := c.slowdown(start, time.Now())
	if err := c.stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if n < calibMinSamples || factor < 0.2 || factor > 20 {
		t.Fatalf("child reported %d kernel runs with slowdown %v in %v; want ≥ %d plausible ones", n, factor, time.Since(start), calibMinSamples)
	}
	if c.cmd.ProcessState == nil || !c.cmd.ProcessState.Exited() {
		t.Fatal("child still running after stop")
	}
}
