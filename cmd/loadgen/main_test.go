package main

import (
	"encoding/json"
	"errors"
	"flag"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chatgraph/internal/cluster"
	"chatgraph/internal/config"
	"chatgraph/internal/core"
	"chatgraph/internal/metrics"
	"chatgraph/internal/server"
	"chatgraph/internal/tenant"
)

// The tests drive run against in-process servers and check the report's
// arithmetic — every sample counted once, in one column, the same column on
// every row it touches — never its rates, so they hold on any machine and
// under -race.

var (
	engineOnce sync.Once
	testEngine *core.Engine
)

// engine is one small-model engine shared by every daemon of the tests.
func engine(t *testing.T) *core.Engine {
	t.Helper()
	engineOnce.Do(func() {
		p := config.Default()
		p.Finetune.Examples = 150
		eng, err := core.NewEngine(core.Config{TrainSeed: 1, Params: &p})
		if err != nil {
			panic(err)
		}
		testEngine = eng
	})
	return testEngine
}

// tenantsJSON is the tenant-isolation smoke's tenants file without its
// rate caps.
const tenantsJSON = `{
  "tenants": [
    {"name": "compliant", "keys": ["ck-1"], "weight": 3},
    {"name": "hostile", "keys": ["hk-1"], "weight": 1}
  ],
  "anonymous": {"disabled": true}
}`

// daemon serves a chatgraphd stack over the shared engine; with tenants it
// enforces tenantsJSON.
func daemon(t *testing.T, tenants bool) *httptest.Server {
	t.Helper()
	opts := server.Options{Metrics: metrics.NewRegistry(), MaxInFlight: 16}
	if tenants {
		reg, err := tenant.Load([]byte(tenantsJSON))
		if err != nil {
			t.Fatal(err)
		}
		opts.Tenants = reg
	}
	srv := server.New(engine(t), opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts
}

// router serves a chatgraph-router over the given daemons, every backend
// probed up before it returns.
func router(t *testing.T, backends ...*httptest.Server) *httptest.Server {
	t.Helper()
	urls := make([]string, len(backends))
	for i, b := range backends {
		urls[i] = b.URL
	}
	reg := metrics.NewRegistry()
	pool, err := cluster.NewPool(urls, cluster.Policy{}, reg)
	if err != nil {
		t.Fatal(err)
	}
	cluster.NewProber(pool, time.Hour, time.Second).ProbeOnce()
	if pool.UpCount() != len(backends) {
		t.Fatalf("%d of %d backends up after the probe", pool.UpCount(), len(backends))
	}
	ts := httptest.NewServer(cluster.NewRouter(pool, cluster.Options{Registry: reg}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// runReport runs loadgen with args plus -json and returns run's error and
// the report it wrote.
func runReport(t *testing.T, args ...string) (Report, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "report.json")
	err := run(append(args, "-json", path), io.Discard)
	var rep Report
	data, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatalf("run %v wrote no report (run: %v): %v", args, err, rerr)
	}
	if jerr := json.Unmarshal(data, &rep); jerr != nil {
		t.Fatal(jerr)
	}
	return rep, err
}

// checkArithmetic holds the report to the sums every row must satisfy.
func checkArithmetic(t *testing.T, rep Report) {
	t.Helper()
	row := func(name string, r OpReport) {
		if r.Requests != r.OK+r.Shed+r.Rejected+r.Errors {
			t.Errorf("%s: requests %d != ok %d + shed %d + rejected %d + errors %d",
				name, r.Requests, r.OK, r.Shed, r.Rejected, r.Errors)
		}
	}
	var sum OpReport
	for name, r := range rep.Ops {
		row("ops."+name, r)
		sum.Requests += r.Requests
		sum.OK += r.OK
		sum.Shed += r.Shed
		sum.Rejected += r.Rejected
		sum.Errors += r.Errors
	}
	row("total", rep.Total)
	if got := (OpReport{Requests: rep.Total.Requests, OK: rep.Total.OK, Shed: rep.Total.Shed, Rejected: rep.Total.Rejected, Errors: rep.Total.Errors}); got != sum {
		t.Errorf("total %+v != sum of the op rows %+v", got, sum)
	}
	for name, r := range rep.Backends {
		row("backends."+name, r)
	}
	share := 0.0
	for name, r := range rep.Tenants {
		row("tenants."+name, r.OpReport)
		if r.Admitted != r.OK+r.Rejected {
			t.Errorf("tenants.%s: admitted %d != ok %d + rejected %d", name, r.Admitted, r.OK, r.Rejected)
		}
		share += r.AdmittedShare
	}
	if len(rep.Tenants) > 0 && math.Abs(share-1) > 1e-3 {
		t.Errorf("tenant admitted shares sum to %g, want 1", share)
	}
	if j := rep.Jobs; j != nil {
		if j.Submitted != j.Completed+j.Failed+j.Cancelled+j.Stuck {
			t.Errorf("jobs: submitted %d != completed %d + failed %d + cancelled %d + stuck %d",
				j.Submitted, j.Completed, j.Failed, j.Cancelled, j.Stuck)
		}
		if j.ProbeAccepted+j.Probe429 > j.ProbeSubmitted {
			t.Errorf("jobs probe: accepted %d + 429 %d > submitted %d", j.ProbeAccepted, j.Probe429, j.ProbeSubmitted)
		}
	}
}

// errorsOf sums the errors column over a set of rows.
func errorsOf(rows map[string]OpReport) int {
	n := 0
	for _, r := range rows {
		n += r.Errors
	}
	return n
}

func TestPlainDaemon(t *testing.T) {
	d := daemon(t, false)
	rep, err := runReport(t, "-addr", d.URL, "-duration", "300ms", "-concurrency", "2",
		"-jobs-mix", "0.25", "-jobs-probe", "8", "-graphs", "3", "-strict")
	if err != nil {
		t.Fatal(err)
	}
	checkArithmetic(t, rep)
	if rep.Jobs == nil || rep.Jobs.ProbeSubmitted != 8 {
		t.Errorf("jobs block %+v, want the 8-submission probe recorded", rep.Jobs)
	}
	if rep.Cache == nil || !rep.HealthzOK || !rep.MetricsOK {
		t.Errorf("cache %+v, healthz %v, metrics %v: the post-run scrape failed", rep.Cache, rep.HealthzOK, rep.MetricsOK)
	}
}

// TestTenantsClosedLoop drives a tenant daemon with a hostile tenant mixed
// in; the report still names its one load model.
func TestTenantsClosedLoop(t *testing.T) {
	d := daemon(t, true)
	rep, err := runReport(t, "-addr", d.URL, "-duration", "300ms",
		"-concurrency", "4", "-graphs", "2", "-jobs-mix", "0.2",
		"-tenant-keys", "compliant=ck-1,hostile=hk-1", "-hostile-tenants", "hostile")
	if err != nil {
		t.Fatal(err)
	}
	checkArithmetic(t, rep)
	if rep.Mode != "closed" {
		t.Errorf("mode %q, want closed", rep.Mode)
	}
	if len(rep.Tenants) != 2 {
		t.Errorf("tenant rows %v, want compliant and hostile", rep.Tenants)
	}
}

// TestBackendRowsAgreeThroughRouter: a hostile tenant's expected 4xxs were
// rejections on its op and tenant rows but errors on the backend rows, so
// the per-backend breakdown reported errors the op rows did not have.
func TestBackendRowsAgreeThroughRouter(t *testing.T) {
	rt := router(t, daemon(t, true), daemon(t, true))
	rep, err := runReport(t, "-addr", rt.URL, "-duration", "400ms", "-concurrency", "4",
		"-sessions", "8", "-chat-frac", "0.5", "-jobs-mix", "0.2",
		"-tenant-keys", "compliant=ck-1,hostile=hk-1", "-hostile-tenants", "hostile", "-hostile-frac", "0.8")
	if err != nil {
		t.Fatal(err)
	}
	checkArithmetic(t, rep)
	if rep.Ops["hostile"].Rejected == 0 {
		t.Fatalf("no hostile request was rejected: %+v", rep.Ops["hostile"])
	}
	if got, want := errorsOf(rep.Backends), errorsOf(rep.Ops); got != want {
		t.Errorf("backend rows count %d errors, op rows %d (backends %+v, ops %+v)", got, want, rep.Backends, rep.Ops)
	}
	if rep.AffinityViolations != 0 {
		t.Errorf("%d affinity violations", rep.AffinityViolations)
	}
}

// TestFailedJobCountsOnItsBackend: a job its backend accepted and then
// failed was an error on the job row but ok on the backend row.
func TestFailedJobCountsOnItsBackend(t *testing.T) {
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Backend", "fake:1")
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/sessions":
			w.WriteHeader(http.StatusCreated)
			io.WriteString(w, `{"session_id":"s1"}`) //nolint:errcheck
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			w.WriteHeader(http.StatusAccepted)
			io.WriteString(w, `{"job_id":"j1","state":"queued"}`) //nolint:errcheck
		case r.Method == http.MethodGet && r.URL.Path == "/v1/jobs/j1":
			io.WriteString(w, `{"job_id":"j1","state":"failed"}`) //nolint:errcheck
		default:
			http.NotFound(w, r)
		}
	}))
	defer fake.Close()
	rep, err := runReport(t, "-addr", fake.URL, "-duration", "100ms", "-concurrency", "1", "-jobs-mix", "1")
	if err != nil {
		t.Fatal(err)
	}
	checkArithmetic(t, rep)
	job, be := rep.Ops["job"], rep.Backends["fake:1"]
	if job.Errors == 0 || rep.Jobs.Failed != job.Errors {
		t.Fatalf("job row %+v, jobs block %+v: want every job failed", job, rep.Jobs)
	}
	if be.Errors != job.Errors || be.OK != 0 {
		t.Errorf("backend row %+v, want the job row's %d errors and no ok", be, job.Errors)
	}
}

// TestRestartGraceRidesOut503: a daemon that answers 503 (recovery replay)
// before it serves, and 404 to a job's first poll (the job not yet
// restored), costs retries, not errors.
func TestRestartGraceRidesOut503(t *testing.T) {
	d := daemon(t, false)
	target, err := url.Parse(d.URL)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(target)
	var sessions503, poll404 atomic.Bool
	wrap := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/v1/sessions" && !sessions503.Swap(true):
			http.Error(w, "replaying", http.StatusServiceUnavailable)
		case strings.HasPrefix(r.URL.Path, "/v1/jobs/") && r.Method == http.MethodGet && !poll404.Swap(true):
			http.NotFound(w, r)
		default:
			proxy.ServeHTTP(w, r)
		}
	}))
	defer wrap.Close()
	rep, err := runReport(t, "-addr", wrap.URL, "-duration", "300ms", "-concurrency", "2",
		"-jobs-mix", "0.5", "-restart-grace", "10s", "-strict")
	if err != nil {
		t.Fatal(err)
	}
	checkArithmetic(t, rep)
	want := 1
	if rep.Jobs.Submitted > 0 {
		want = 2
	}
	if rep.Reconnects < want || rep.Total.Errors != 0 {
		t.Errorf("reconnects %d (want >= %d), errors %d (want 0)", rep.Reconnects, want, rep.Total.Errors)
	}
}

// TestClassify is the outcome rule's table (DESIGN.md "Load generator").
func TestClassify(t *testing.T) {
	transport := errors.New("connection refused")
	for _, tc := range []struct {
		op       string
		status   int
		err      error
		jobState string
		want     outcome
	}{
		{"chat", 200, nil, "", outOK},
		{"chat", 0, transport, "", outError},
		{"chat", 429, nil, "", outShed},
		{"chat", 404, nil, "", outError},
		{"retrieve", 503, nil, "", outError},
		{"hostile", 400, nil, "", outRejected},
		{"hostile", 413, nil, "", outRejected},
		{"hostile", 429, nil, "", outShed},
		{"hostile", 202, nil, "", outOK},
		{"hostile", 500, nil, "", outError},
		{"job", 202, nil, "done", outOK},
		{"job", 202, nil, "failed", outError},
		{"job", 202, nil, "cancelled", outError},
		{"job", 202, nil, "stuck", outError},
		{"job", 202, transport, "", outError},
		{"job", 429, nil, "", outShed},
		{"job", 400, nil, "", outError},
		{"job", 200, nil, "", outError},
	} {
		if got := classify(tc.op, tc.status, tc.err, tc.jobState); got != tc.want {
			t.Errorf("classify(%s, %d, %v, %q) = %d, want %d", tc.op, tc.status, tc.err, tc.jobState, got, tc.want)
		}
	}
}

// TestCommandLineErrors: a command-line mistake is errUsage (exit 2) and is
// caught before any request; a bad value is an ordinary error (exit 1).
func TestCommandLineErrors(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		usage bool
		want  string
	}{
		{args: []string{"stray"}, usage: true},
		{args: []string{"-k", "5"}, usage: true}, // -k and -queries are constants
		{args: []string{"-queries", "4"}, usage: true},
		{args: []string{"-duration", "soon"}, usage: true},
		{args: []string{"-mode", "open"}, usage: true}, // one load model: the closed loop
		{args: []string{"-chat-frac", "2"}, want: "-chat-frac must be in [0,1]"},
		{args: []string{"-hostile-tenants", "h"}, want: "-hostile-tenants requires -tenant-keys"},
		{args: []string{"-targets", " , "}, want: "-targets supplied but empty"},
	} {
		err := run(append([]string{"-addr", "http://127.0.0.1:1"}, tc.args...), io.Discard)
		switch {
		case tc.usage && !errors.Is(err, errUsage):
			t.Errorf("%v: err = %v, want errUsage", tc.args, err)
		case !tc.usage && (err == nil || errors.Is(err, errUsage) || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%v: err = %v, want an exit-1 error containing %q", tc.args, err, tc.want)
		}
	}
	if err := run([]string{"-h"}, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: err = %v, want flag.ErrHelp", err)
	}
}
