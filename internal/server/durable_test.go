package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"chatgraph/internal/apis"
	"chatgraph/internal/core"
	"chatgraph/internal/durable"
	"chatgraph/internal/finetune"
	"chatgraph/internal/graph"
	"chatgraph/internal/metrics"
	"chatgraph/internal/tenant"
)

var (
	durModelOnce sync.Once
	durModel     *finetune.Model
)

// durableEngine builds a fresh engine (own env, registry, graph store) for
// crash-recovery tests. The finetuned model is trained once and shared —
// training dominates engine construction and the durability layer never
// touches it, while a fresh graph store per engine is what shows that
// recovery interns nothing and that a re-upload needs no warm state.
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

// TestCrashRecovery is the kill-and-recover pin: sessions, transcripts, and
// terminal job records written before an unflushed crash must all come back
// in a fresh process (fresh engine, fresh graph store), and the restored
// session must keep serving chats. Uploaded graphs are not persisted: the
// fresh graph store stays empty through Recover, and re-posting the
// pre-crash question and graph still returns the pre-crash answer.
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
	// ...no graph interned, because nothing recovered refers to one...
	if n := eng2.Graphs().Len(); n != 0 {
		t.Fatalf("graph store after Recover = %d, want 0", n)
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

	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	// No reader needed the pre-crash graph: the first upload after recovery,
	// the pre-crash question over the same graph on a fresh session, gets
	// the pre-crash answer.
	var fresh SessionInfo
	postTo(t, ts2.URL+"/v1/sessions", nil, http.StatusCreated, &fresh)
	var again ChatResponse
	postTo(t, ts2.URL+"/v1/sessions/"+fresh.SessionID+"/chat", ChatRequest{Question: "Write a brief report for G", Graph: gj}, http.StatusOK, &again)
	if again.Answer != answers[0] {
		t.Fatalf("re-upload after recovery answered %q, want the pre-crash %q", again.Answer, answers[0])
	}
	// The restored session keeps serving: one more chat over HTTP, on the
	// same session ID, with the graph uploaded again.
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

// TestClosedStoreKeepsServing makes every log-and-continue site on the
// request path fire: the server's store is closed under it, so each WAL
// append fails. The policy it pins is that a failed append is counted and
// the turn is still acknowledged: statuses and answers equal a store-less
// server's, chatgraph_wal_append_errors_total rises by exactly the appends
// attempted, /readyz stays 200, and only Checkpoint reports the failure.
func TestClosedStoreKeepsServing(t *testing.T) {
	reg := metrics.NewRegistry()
	dstore, state, err := durable.Open(durable.Options{Dir: t.TempDir(), Sync: durable.SyncAlways, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	durSrv := New(durableEngine(t), Options{Durable: dstore})
	if err := durSrv.Recover(state); err != nil {
		t.Fatal(err)
	}
	plainSrv := New(durableEngine(t), Options{})
	appendErrs := reg.Counter("chatgraph_wal_append_errors_total", "", nil)
	if err := dstore.Close(); err != nil {
		t.Fatal(err)
	}

	gj, err := json.Marshal(graph.PlantedCommunities(2, 10, 0.5, 0.05, rand.New(rand.NewSource(3))))
	if err != nil {
		t.Fatal(err)
	}
	chat, err := json.Marshal(ChatRequest{Question: "Write a brief report for G", Graph: gj})
	if err != nil {
		t.Fatal(err)
	}
	// drive runs the traffic and returns what a client sees of it.
	drive := func(srv *Server) []string {
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		var seen []string
		created := doReqJSON(t, http.MethodPost, ts.URL+"/v1/sessions", "", nil)
		sid, _ := created.body["session_id"].(string)
		seen = append(seen, fmt.Sprint("create ", created.status))
		chatted := doReqJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+sid+"/chat", "", chat)
		seen = append(seen, fmt.Sprint("chat ", chatted.status, " ", chatted.body["chain"], " ", chatted.body["answer"]))
		submitted := doReqJSON(t, http.MethodPost, ts.URL+"/v1/jobs", "", chat)
		seen = append(seen, fmt.Sprint("job ", submitted.status))
		jid, _ := submitted.body["job_id"].(string)
		var ji JobInfo
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			getTo(t, ts.URL+"/v1/jobs/"+jid, &ji)
			if ji.State != "queued" && ji.State != "running" || time.Now().After(deadline) {
				break
			}
		}
		answer := ""
		if ji.Result != nil {
			answer = ji.Result.Answer
		}
		seen = append(seen, "job "+ji.State+" "+answer)
		deleted := doReq(t, http.MethodDelete, ts.URL+"/v1/sessions/"+sid, "", nil)
		seen = append(seen, fmt.Sprint("delete ", deleted.StatusCode))
		ready := doReq(t, http.MethodGet, ts.URL+"/readyz", "", nil)
		seen = append(seen, fmt.Sprint("readyz ", ready.StatusCode))
		return seen
	}
	want := drive(plainSrv)
	got := drive(durSrv)
	if !slices.Equal(got, want) {
		t.Fatalf("with a closed store the client saw\n%q\nwithout a store\n%q", got, want)
	}
	if want[len(want)-1] != "readyz 200" || !strings.HasPrefix(want[1], "chat 200 ") || !strings.HasPrefix(want[3], "job done ") {
		t.Fatalf("store-less run: %q", want)
	}
	// Appends attempted: the session create; the chat's turn; the job's
	// submit and terminal records; the delete. Uploads are not persisted,
	// so neither graph is attempted. The terminal record is appended after
	// the job reads done, so wait for it.
	const attempted = 5
	for deadline := time.Now().Add(5 * time.Second); appendErrs.Value() < attempted && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	if n := appendErrs.Value(); n != attempted {
		t.Fatalf("chatgraph_wal_append_errors_total = %d, want %d", n, attempted)
	}
	if err := durSrv.Checkpoint(); err == nil {
		t.Fatal("Checkpoint on a closed store succeeded")
	}
	if err := plainSrv.Checkpoint(); err != nil {
		t.Fatalf("store-less Checkpoint: %v", err)
	}
	durSrv.Close()
	plainSrv.Close()
}

// TestRecoverDataDirWithGraphBlobs recovers a data dir in the format the
// daemon wrote while it still persisted uploads: graph records in the
// snapshot and in the segment on top of it, jobs naming a blob by
// graph_sha, and the blobs themselves under blobs/. Every session, turn and
// job must come back; the graph records must be counted as replayed and
// change nothing, against the same dir written without them; and the blob
// files must be left exactly as they were, through a checkpoint too.
func TestRecoverDataDirWithGraphBlobs(t *testing.T) {
	var blobs [2][]byte
	var shas [2]string
	for i := range blobs {
		data, err := json.Marshal(graph.PlantedCommunities(2, 6+i, 0.5, 0.05, rand.New(rand.NewSource(int64(i)))))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		blobs[i], shas[i] = data, hex.EncodeToString(sum[:])
	}
	now := time.Now().UnixNano()
	result := `{"answer":"snap answer","chain":"graph.stats","kind":"social","elapsed_ms":2}`
	snap := []string{
		fmt.Sprintf(`{"t":"session_create","ts":%d,"session":{"id":"s-snap","created_unix_ns":%d}}`, now-4000, now-5000),
		`{"t":"turn","ts":0,"turn":{"session_id":"s-snap","index":0,"question":"q0","kind":"social","chain":"graph.stats","answer":"a0","elapsed_ms":1}}`,
		fmt.Sprintf(`{"t":"job_done","ts":0,"job":{"id":"j-snap","priority":"normal","question":"q","graph_sha":%q,"state":"done","result":%s,"submitted_unix_ns":%d,"finished_unix_ns":%d}}`, shas[0], result, now-4000, now-3500),
		fmt.Sprintf(`{"t":"graph","ts":0,"graph":{"sha":%q}}`, shas[0]),
	}
	seg := []string{
		fmt.Sprintf(`{"t":"graph","ts":%d,"graph":{"sha":%q}}`, now-3000, shas[1]),
		fmt.Sprintf(`{"t":"session_create","ts":%d,"session":{"id":"s-wal","created_unix_ns":%d}}`, now-3000, now-3000),
		fmt.Sprintf(`{"t":"turn","ts":%d,"turn":{"session_id":"s-wal","index":0,"question":"q1","kind":"molecule","chain":"graph.stats -> report.compose","answer":"a1","elapsed_ms":3}}`, now-2000),
		fmt.Sprintf(`{"t":"turn","ts":%d,"turn":{"session_id":"s-snap","index":1,"question":"q2","kind":"social","chain":"graph.stats","answer":"a2","elapsed_ms":4}}`, now-1000),
		fmt.Sprintf(`{"t":"job_submit","ts":%d,"job":{"id":"j-wal","priority":"high","question":"q3","graph_sha":%q,"state":"queued","submitted_unix_ns":%d}}`, now-500, shas[1], now-500),
	}
	// writeImage writes one segment image (the magic, then one frame per
	// record), leaving out the graph records unless withGraphs is set.
	writeImage := func(path string, recs []string, withGraphs bool) {
		data := []byte("CGWAL001")
		for _, r := range recs {
			if withGraphs || !strings.HasPrefix(r, `{"t":"graph"`) {
				data = durable.AppendFrame(data, []byte(r))
			}
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	open := func(dir string, withGraphs bool) (*durable.Store, *durable.State) {
		writeImage(filepath.Join(dir, "snap", "snap-00000002.wal"), snap, withGraphs)
		writeImage(filepath.Join(dir, "wal", "seg-00000002.wal"), seg, withGraphs)
		dstore, state, err := durable.Open(durable.Options{Dir: dir, Sync: durable.SyncNone, Metrics: metrics.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		return dstore, state
	}

	dir := t.TempDir()
	blobDir := filepath.Join(dir, "blobs")
	if err := os.MkdirAll(blobDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, data := range blobs {
		if err := os.WriteFile(filepath.Join(blobDir, shas[i]+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// blobFiles lists blobs/ with each file's bytes and modification time.
	blobFiles := func() []string {
		ents, err := os.ReadDir(blobDir)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, e := range ents {
			info, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(filepath.Join(blobDir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprint(e.Name(), " ", info.ModTime().UnixNano(), " ", string(data)))
		}
		return out
	}
	blobsBefore := blobFiles()

	dstore, state := open(dir, true)
	defer dstore.Close()
	plainStore, plain := open(t.TempDir(), false)
	plainStore.Close()
	if state.Records != plain.Records+1 {
		t.Fatalf("records replayed on top of the snapshot = %d, want %d plus the segment's graph record", state.Records, plain.Records)
	}
	if state.Truncations != 0 || !reflect.DeepEqual(state.Sessions, plain.Sessions) || !reflect.DeepEqual(state.Jobs, plain.Jobs) {
		t.Fatalf("graph records changed the recovered state:\n%+v\nwithout them:\n%+v", state, plain)
	}

	srv := New(durableEngine(t), Options{Durable: dstore})
	defer srv.Close()
	if err := srv.Recover(state); err != nil {
		t.Fatal(err)
	}
	if n := srv.eng.Graphs().Len(); n != 0 {
		t.Fatalf("graph store after Recover = %d, want 0", n)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for id, want := range map[string][]HistoryTurn{
		"s-snap": {{"q0", "social", "graph.stats", "a0", 1}, {"q2", "social", "graph.stats", "a2", 4}},
		"s-wal":  {{"q1", "molecule", "graph.stats -> report.compose", "a1", 3}},
	} {
		var hist struct{ Turns []HistoryTurn }
		getTo(t, ts.URL+"/v1/sessions/"+id+"/history", &hist)
		if !slices.Equal(hist.Turns, want) {
			t.Fatalf("session %s history = %+v, want %+v", id, hist.Turns, want)
		}
	}
	var done, interrupted JobInfo
	getTo(t, ts.URL+"/v1/jobs/j-snap", &done)
	if done.State != "done" || done.Result == nil || done.Result.Answer != "snap answer" {
		t.Fatalf("j-snap = %+v", done)
	}
	getTo(t, ts.URL+"/v1/jobs/j-wal", &interrupted)
	if interrupted.State != "failed" || interrupted.Priority != "high" || !strings.Contains(interrupted.Error, "interrupted by restart") {
		t.Fatalf("j-wal = %+v", interrupted)
	}

	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := blobFiles(); !slices.Equal(got, blobsBefore) {
		t.Fatalf("blobs/ after recovery and a checkpoint:\n%q\nwas:\n%q", got, blobsBefore)
	}
}
