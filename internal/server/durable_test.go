package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"chatgraph/internal/apis"
	"chatgraph/internal/core"
	"chatgraph/internal/durable"
	"chatgraph/internal/finetune"
	"chatgraph/internal/graph"
	"chatgraph/internal/tenant"
)

var (
	durModelOnce sync.Once
	durModel     *finetune.Model
)

// durableEngine builds a fresh engine (own env, registry, graph store) for
// crash-recovery tests. The finetuned model is trained once and shared —
// training dominates engine construction and the durability layer never
// touches it, while a fresh graph store per engine is exactly what proves
// recovery re-interns blobs instead of inheriting warm state.
func durableEngine(t *testing.T) *core.Engine {
	t.Helper()
	mk := func(model *finetune.Model) *core.Engine {
		env := &apis.Env{}
		reg := apis.Default(env)
		core.SeedMoleculeDB(env, 30, rand.New(rand.NewSource(1)))
		eng, err := core.NewEngine(core.Config{Registry: reg, Env: env, Model: model, TrainSeed: 1, Params: examples(250)})
		if err != nil {
			t.Fatalf("engine: %v", err)
		}
		return eng
	}
	durModelOnce.Do(func() { durModel = mk(nil).Model() })
	return mk(durModel)
}

func TestReadyzWithoutDurable(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz without durable store = %d, want 200", resp.StatusCode)
	}
}

// TestCrashRecovery is the kill-and-recover pin: sessions, transcripts,
// interned graphs, and terminal job records written before an unflushed
// crash must all come back in a fresh process (fresh engine, fresh graph
// store), and the restored session must keep serving chats.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	dstore, state, err := durable.Open(durable.Options{Dir: dir, Sync: durable.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	eng1 := durableEngine(t)
	srv1 := New(eng1, Options{Durable: dstore, Tenants: durTenants(t)})
	ts1 := httptest.NewServer(srv1.Handler())

	// Before Recover the server must refuse gated work and fail readiness.
	resp, err := http.Get(ts1.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz before Recover = %d, want 503", resp.StatusCode)
	}
	resp, err = http.Post(ts1.URL+"/v1/sessions", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("gated route before Recover = %d, want 503", resp.StatusCode)
	}
	if err := srv1.Recover(state); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts1.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after Recover = %d, want 200", resp.StatusCode)
	}

	// Build committed state: one session with two chats over an uploaded
	// graph, plus one async job driven to completion.
	gj, err := json.Marshal(graph.PlantedCommunities(2, 10, 0.5, 0.05, rand.New(rand.NewSource(3))))
	if err != nil {
		t.Fatal(err)
	}
	var si SessionInfo
	postTo(t, ts1.URL+"/v1/sessions", nil, http.StatusCreated, &si)
	var answers []string
	for _, q := range []string{"Write a brief report for G", "How many communities does G have?"} {
		var cr ChatResponse
		postTo(t, ts1.URL+"/v1/sessions/"+si.SessionID+"/chat", ChatRequest{Question: q, Graph: gj}, http.StatusOK, &cr)
		if cr.Answer == "" {
			t.Fatalf("chat %q: empty answer", q)
		}
		answers = append(answers, cr.Answer)
	}
	var ji JobInfo
	postTo(t, ts1.URL+"/v1/jobs", JobRequest{Question: "Write a brief report for G", Graph: gj}, http.StatusAccepted, &ji)
	deadline := time.Now().Add(30 * time.Second)
	for {
		var cur JobInfo
		getTo(t, ts1.URL+"/v1/jobs/"+ji.JobID, &cur)
		if cur.State == "done" {
			ji = cur
			break
		}
		if cur.State == "failed" || cur.State == "cancelled" {
			t.Fatalf("job settled %s: %s", cur.State, cur.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", cur.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if ji.Result == nil || ji.Result.Answer == "" {
		t.Fatalf("done job result = %+v", ji.Result)
	}
	interned := eng1.Graphs().Len()
	if interned < 1 {
		t.Fatalf("interned graphs = %d", interned)
	}

	// Tenant ownership must survive the crash: a keyed tenant's session and
	// job have to come back owned (a fresh rate bucket is fine, lost
	// ownership is not). The job is deliberately left running so its owner
	// rides the submit record alone.
	ownedResp := doReqJSON(t, http.MethodPost, ts1.URL+"/v1/sessions", "k-dur", nil)
	if ownedResp.status != http.StatusCreated {
		t.Fatalf("owned session create = %d", ownedResp.status)
	}
	ownedSID := ownedResp.body["session_id"].(string)
	ownedChat, err := json.Marshal(ChatRequest{Question: "Write a brief report for G", Graph: gj})
	if err != nil {
		t.Fatal(err)
	}
	if r := doReq(t, http.MethodPost, ts1.URL+"/v1/sessions/"+ownedSID+"/chat", "k-dur", ownedChat); r.StatusCode != http.StatusOK {
		t.Fatalf("owned chat = %d", r.StatusCode)
	}
	ownedJobResp := doReqJSON(t, http.MethodPost, ts1.URL+"/v1/jobs", "k-dur", ownedChat)
	if ownedJobResp.status != http.StatusAccepted {
		t.Fatalf("owned job submit = %d", ownedJobResp.status)
	}
	ownedJID := ownedJobResp.body["job_id"].(string)

	// Crash: the store drops its file handle without flushing; nothing on
	// the serving side gets a goodbye.
	dstore.Abort()
	ts1.Close()

	// Second incarnation: new store over the same dir, new engine with an
	// empty graph store.
	dstore2, state2, err := durable.Open(durable.Options{Dir: dir, Sync: durable.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer dstore2.Close()
	if state2.Truncations != 0 {
		// SyncNone writes reach the page cache whole; an in-process "crash"
		// must not tear frames.
		t.Fatalf("truncations = %d", state2.Truncations)
	}
	eng2 := durableEngine(t)
	if eng2.Graphs().Len() != 0 {
		t.Fatalf("fresh engine graph store = %d", eng2.Graphs().Len())
	}
	srv2 := New(eng2, Options{Durable: dstore2, Tenants: durTenants(t)})
	defer srv2.Close()
	if err := srv2.Recover(state2); err != nil {
		t.Fatal(err)
	}

	// 100% of committed state must be back: the session with both turns...
	m, err := srv2.mgr.Get(si.SessionID, srv2.tenants.Anonymous())
	if err != nil {
		t.Fatalf("session %s not recovered: %v", si.SessionID, err)
	}
	hist := m.Session.History()
	if len(hist) != len(answers) {
		t.Fatalf("recovered turns = %d, want %d", len(hist), len(answers))
	}
	for i, a := range answers {
		if hist[i].Answer != a {
			t.Fatalf("turn %d answer = %q, want %q", i, hist[i].Answer, a)
		}
		if hist[i].Chain == nil {
			t.Fatalf("turn %d chain lost", i)
		}
	}
	// ...the graph re-interned into the fresh store...
	if eng2.Graphs().Len() != interned {
		t.Fatalf("recovered graphs = %d, want %d", eng2.Graphs().Len(), interned)
	}
	// ...and the job's terminal record, result included.
	j2, ok := srv2.jobs.Get(ji.JobID)
	if !ok {
		t.Fatalf("job %s not recovered", ji.JobID)
	}
	st2 := j2.Status()
	if st2.State.String() != "done" {
		t.Fatalf("recovered job state = %s", st2.State)
	}
	recovered, ok := st2.Result.(ChatResponse)
	if !ok || recovered.Answer != ji.Result.Answer {
		t.Fatalf("recovered job result = %+v, want answer %q", st2.Result, ji.Result.Answer)
	}

	// Ownership came back from the log: the restored session and job carry
	// their tenant.
	durTenant, err := srv2.tenants.Resolve("k-dur")
	if err != nil {
		t.Fatal(err)
	}
	ownedM, err := srv2.mgr.Get(ownedSID, durTenant)
	if err != nil {
		t.Fatalf("owned session not recovered: %v", err)
	}
	if ownedM.Tenant != "dur" {
		t.Fatalf("recovered session tenant = %q, want dur", ownedM.Tenant)
	}
	ownedJ, ok := srv2.jobs.Get(ownedJID)
	if !ok {
		t.Fatalf("owned job %s not recovered", ownedJID)
	}
	if ownedJ.Owner != "dur" {
		t.Fatalf("recovered job owner = %q, want dur", ownedJ.Owner)
	}

	// The restored session keeps serving: one more chat over HTTP, on the
	// same session ID, against the re-interned graph.
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	var cr ChatResponse
	postTo(t, ts2.URL+"/v1/sessions/"+si.SessionID+"/chat", ChatRequest{Question: "How many nodes does G have?", Graph: gj}, http.StatusOK, &cr)
	if cr.Answer == "" {
		t.Fatal("chat on recovered session: empty answer")
	}
	// And ownership is enforced over HTTP exactly as before the crash:
	// another tenant sees 404, the owner sees its state.
	if r := doReq(t, http.MethodGet, ts2.URL+"/v1/sessions/"+ownedSID+"/history", "k-other", nil); r.StatusCode != http.StatusNotFound {
		t.Fatalf("cross-tenant history after recovery = %d, want 404", r.StatusCode)
	}
	if r := doReq(t, http.MethodGet, ts2.URL+"/v1/sessions/"+ownedSID+"/history", "k-dur", nil); r.StatusCode != http.StatusOK {
		t.Fatalf("owner history after recovery = %d", r.StatusCode)
	}
	if r := doReq(t, http.MethodGet, ts2.URL+"/v1/jobs/"+ownedJID, "k-other", nil); r.StatusCode != http.StatusNotFound {
		t.Fatalf("cross-tenant job after recovery = %d, want 404", r.StatusCode)
	}
	if r := doReq(t, http.MethodGet, ts2.URL+"/v1/jobs/"+ownedJID, "k-dur", nil); r.StatusCode != http.StatusOK {
		t.Fatalf("owner job after recovery = %d", r.StatusCode)
	}
	if got := len(m.Session.History()); got != len(answers)+1 {
		t.Fatalf("history after post-recovery chat = %d", got)
	}

	// A checkpoint of the recovered state must round-trip through a third
	// incarnation: the snapshot segment + empty WAL tail carry everything.
	if err := srv2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := dstore2.Close(); err != nil {
		t.Fatal(err)
	}
	dstore3, state3, err := durable.Open(durable.Options{Dir: dir, Sync: durable.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer dstore3.Close()
	s3, ok := state3.Sessions[si.SessionID]
	if !ok || len(s3.Turns) != len(answers)+1 {
		t.Fatalf("post-checkpoint session = %+v", s3)
	}
	if _, ok := state3.Jobs[ji.JobID]; !ok {
		t.Fatalf("post-checkpoint jobs = %v", state3.Jobs)
	}
	if len(state3.Graphs) == 0 {
		t.Fatal("post-checkpoint graphs empty")
	}
	if s3o, ok := state3.Sessions[ownedSID]; !ok || s3o.Tenant != "dur" {
		t.Fatalf("post-checkpoint owned session = %+v, want tenant dur", s3o)
	}
}

// durTenants is the two-tenant registry the crash-recovery test runs under:
// ownership must come back from the WAL, not from process memory.
func durTenants(t *testing.T) *tenant.Registry {
	t.Helper()
	return mustRegistry(t, &tenant.Config{Tenants: []tenant.TenantConfig{
		{Name: "dur", Keys: []string{"k-dur"}},
		{Name: "other", Keys: []string{"k-other"}},
	}})
}

func postTo(t *testing.T, url string, body any, wantStatus int, out any) {
	t.Helper()
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s = %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

func getTo(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverExpiredSessions checks the TTL policy is applied during
// recovery: a session idle past the TTL while the daemon was down stays
// dead, exactly as the sweeper would have decided.
func TestRecoverExpiredSessions(t *testing.T) {
	dir := t.TempDir()
	dstore, _, err := durable.Open(durable.Options{Dir: dir, Sync: durable.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * time.Hour)
	if err := dstore.Append(&durable.Record{Type: durable.RecSessionCreate, TS: old.UnixNano(),
		Session: &durable.SessionRecord{ID: "stale", CreatedUnixNS: old.UnixNano()}}); err != nil {
		t.Fatal(err)
	}
	if err := dstore.LogSessionCreate("fresh", time.Now(), ""); err != nil {
		t.Fatal(err)
	}
	dstore.Abort()

	dstore2, state, err := durable.Open(durable.Options{Dir: dir, Sync: durable.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer dstore2.Close()
	srv := New(durableEngine(t), Options{Durable: dstore2, SessionTTL: time.Hour})
	defer srv.Close()
	if err := srv.Recover(state); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.mgr.Get("stale", srv.tenants.Anonymous()); err == nil {
		t.Fatal("stale session resurrected past its TTL")
	}
	if _, err := srv.mgr.Get("fresh", srv.tenants.Anonymous()); err != nil {
		t.Fatalf("fresh session not recovered: %v", err)
	}
	if n := srv.mgr.restored.Load(); n != 1 {
		t.Fatalf("restored = %d, want 1", n)
	}
}

// TestRecoverInterruptedJob checks a job whose submit record survived without
// a terminal record is restored failed, with the interruption spelled out.
func TestRecoverInterruptedJob(t *testing.T) {
	dir := t.TempDir()
	dstore, _, err := durable.Open(durable.Options{Dir: dir, Sync: durable.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if err := dstore.LogJobSubmit(durable.JobRecord{
		ID: "iob-1", Priority: "high", Question: "count nodes", State: "queued",
		SubmittedUnixNS: time.Now().UnixNano(),
	}); err != nil {
		t.Fatal(err)
	}
	dstore.Abort()

	dstore2, state, err := durable.Open(durable.Options{Dir: dir, Sync: durable.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer dstore2.Close()
	srv := New(durableEngine(t), Options{Durable: dstore2})
	defer srv.Close()
	if err := srv.Recover(state); err != nil {
		t.Fatal(err)
	}
	j, ok := srv.jobs.Get("iob-1")
	if !ok {
		t.Fatal("interrupted job not recovered")
	}
	st := j.Status()
	if st.State.String() != "failed" || st.Err == nil {
		t.Fatalf("interrupted job = %s err %v, want failed", st.State, st.Err)
	}
	if want := "interrupted by restart"; st.Err != nil && !bytes.Contains([]byte(st.Err.Error()), []byte(want)) {
		t.Fatalf("error %q does not mention %q", st.Err, want)
	}
	if fmt.Sprint(st.Priority) != "high" {
		t.Fatalf("priority = %s", st.Priority)
	}
}
