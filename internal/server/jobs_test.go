package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"chatgraph/internal/graph"
)

// postJob submits a job and decodes the JobInfo reply (whatever the status).
func postJob(t *testing.T, base string, req JobRequest) (*http.Response, JobInfo) {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info JobInfo
	json.NewDecoder(resp.Body).Decode(&info) //nolint:errcheck // error bodies aren't JobInfo
	return resp, info
}

// mustSubmitJob submits a job and requires 202 Accepted.
func mustSubmitJob(t *testing.T, base string, req JobRequest) JobInfo {
	t.Helper()
	resp, info := postJob(t, base, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	if info.JobID == "" {
		t.Fatal("submit returned no job_id")
	}
	return info
}

// getJob fetches one job's status, requiring 200.
func getJob(t *testing.T, base, id string) JobInfo {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get job status = %d, want 200", resp.StatusCode)
	}
	var info JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

// waitJobState polls until the job reports state (or fails the test).
func waitJobState(t *testing.T, base, id, state string) JobInfo {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		info := getJob(t, base, id)
		if info.State == state {
			return info
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %q (last: %q)", id, state, getJob(t, base, id).State)
	return JobInfo{}
}

// cancelJob issues DELETE /v1/jobs/{id} and returns the response status plus
// the state echoed back (empty on error statuses).
func cancelJob(t *testing.T, base, id string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		State string `json:"state"`
	}
	json.NewDecoder(resp.Body).Decode(&body) //nolint:errcheck
	return resp.StatusCode, body.State
}

// jobStreamLine is one NDJSON line of GET /v1/jobs/{id}?stream=1: either a
// progress event (Type = executor event name) or the terminal result/error.
type jobStreamLine struct {
	Type   string        `json:"type"`
	Step   string        `json:"step,omitempty"`
	Result *ChatResponse `json:"result,omitempty"`
	Error  string        `json:"error,omitempty"`
}

// streamJobLines tails a job's NDJSON stream to completion.
func streamJobLines(t *testing.T, base, id string) []jobStreamLine {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type = %q", ct)
	}
	var lines []jobStreamLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line jobStreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestJobCompletesBeyondRequestTimeout is the acceptance criterion for the
// async path: a chat that blows through the synchronous RequestTimeout (504)
// completes when submitted as a job, with its progress stream readable both
// live (while the job runs) and as a replay (after it finished).
func TestJobCompletesBeyondRequestTimeout(t *testing.T) {
	eng := slowEngine(t, 300*time.Millisecond)
	_, ts := newAdmissionServer(t, eng, Options{RequestTimeout: 50 * time.Millisecond, JobWorkers: 1})

	// Synchronously the chain cannot fit inside the deadline.
	sess := mustCreateSession(t, ts)
	resp, err := http.Post(ts.URL+"/v1/sessions/"+sess.SessionID+"/chat", "application/json", bytes.NewReader(chatBody(t)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("sync chat status = %d, want 504", resp.StatusCode)
	}

	// The same payload as a job escapes the request deadline.
	info := mustSubmitJob(t, ts.URL, JobRequest{
		Question: "Summarize the statistics of the graph",
		Graph:    socialGraphJSON(t, 7),
	})
	if info.State != "queued" && info.State != "running" {
		t.Fatalf("fresh job state = %q", info.State)
	}

	// Live tail: attached while the job is still executing, the stream must
	// follow it to the terminal result line.
	live := streamJobLines(t, ts.URL, info.JobID)
	if len(live) < 2 {
		t.Fatalf("live stream produced %d lines, want events + result", len(live))
	}
	last := live[len(live)-1]
	if last.Type != "result" || last.Result == nil || last.Result.Answer == "" {
		t.Fatalf("live stream terminal line = %+v", last)
	}

	// Replay: the same URL after completion serves the persisted events again.
	replay := streamJobLines(t, ts.URL, info.JobID)
	if len(replay) != len(live) {
		t.Fatalf("replay produced %d lines, live produced %d", len(replay), len(live))
	}
	if rl := replay[len(replay)-1]; rl.Type != "result" || rl.Result == nil || rl.Result.Answer != last.Result.Answer {
		t.Fatalf("replay terminal line = %+v", rl)
	}

	// And the plain status view agrees.
	done := waitJobState(t, ts.URL, info.JobID, "done")
	if done.Result == nil || done.Result.Answer == "" {
		t.Fatalf("done job has no result: %+v", done)
	}
	if done.Events != len(live)-1 {
		t.Fatalf("done job persisted %d events, stream emitted %d", done.Events, len(live)-1)
	}
	if done.FinishedAt == nil || done.StartedAt == nil {
		t.Fatalf("done job missing timestamps: %+v", done)
	}
}

// TestJobQueueFullSheds fills a 1-worker/1-slot pool and checks the next
// submission is shed with 429 + Retry-After while earlier ones stand.
func TestJobQueueFullSheds(t *testing.T) {
	eng := slowEngine(t, 2*time.Second)
	_, ts := newAdmissionServer(t, eng, Options{JobWorkers: 1, JobQueue: 1})

	req := JobRequest{Question: "Summarize the statistics of the graph", Graph: socialGraphJSON(t, 7)}
	running := mustSubmitJob(t, ts.URL, req)
	waitJobState(t, ts.URL, running.JobID, "running")
	queued := mustSubmitJob(t, ts.URL, req)

	resp, _ := postJob(t, ts.URL, req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// The accepted jobs were not disturbed by the shed.
	if st := getJob(t, ts.URL, running.JobID).State; st != "running" {
		t.Fatalf("running job state after shed = %q", st)
	}
	if st := getJob(t, ts.URL, queued.JobID).State; st != "queued" {
		t.Fatalf("queued job state after shed = %q", st)
	}

	// Cancelling the queued job frees the slot for a new submission.
	if status, state := cancelJob(t, ts.URL, queued.JobID); status != http.StatusAccepted || state != "cancelled" {
		t.Fatalf("cancel queued: status %d state %q", status, state)
	}
	mustSubmitJob(t, ts.URL, req)
}

// TestJobCancel covers the cancel semantics over HTTP: a queued job settles
// immediately, a running one settles when the executor sees the dead
// context, cancelling a finished job is an idempotent no-op, and unknown
// ids are 404 on every method.
func TestJobCancel(t *testing.T) {
	eng := slowEngine(t, 2*time.Second)
	_, ts := newAdmissionServer(t, eng, Options{JobWorkers: 1})

	req := JobRequest{Question: "Summarize the statistics of the graph", Graph: socialGraphJSON(t, 7)}
	run := mustSubmitJob(t, ts.URL, req)
	waitJobState(t, ts.URL, run.JobID, "running")
	wait := mustSubmitJob(t, ts.URL, req)

	// Queued: cancelled synchronously.
	if status, state := cancelJob(t, ts.URL, wait.JobID); status != http.StatusAccepted || state != "cancelled" {
		t.Fatalf("cancel queued: status %d state %q", status, state)
	}

	// Running: DELETE returns the in-flight state, then the job settles.
	if status, state := cancelJob(t, ts.URL, run.JobID); status != http.StatusAccepted || state != "running" {
		t.Fatalf("cancel running: status %d state %q", status, state)
	}
	settled := waitJobState(t, ts.URL, run.JobID, "cancelled")
	if settled.Error == "" {
		t.Fatalf("cancelled job carries no error: %+v", settled)
	}

	// Idempotent: a second DELETE reports the settled state.
	if status, state := cancelJob(t, ts.URL, run.JobID); status != http.StatusAccepted || state != "cancelled" {
		t.Fatalf("re-cancel: status %d state %q", status, state)
	}

	if status, _ := cancelJob(t, ts.URL, "no-such-job"); status != http.StatusNotFound {
		t.Fatalf("cancel unknown: status %d, want 404", status)
	}
	if resp, err := http.Get(ts.URL + "/v1/jobs/no-such-job"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("get unknown: status %d, want 404", resp.StatusCode)
		}
	}
}

// TestJobValidation checks every synchronously rejectable payload comes back
// 400 instead of becoming a job that fails later.
func TestJobValidation(t *testing.T) {
	base := testServer(t).URL
	cases := []struct {
		name string
		req  JobRequest
	}{
		{"empty question", JobRequest{}},
		{"bad priority", JobRequest{Question: "q", Priority: "urgent"}},
		{"unknown chain api", JobRequest{Question: "q", Chain: "no.such_api"}},
		{"malformed chain", JobRequest{Question: "q", Chain: "graph.stats -> ("}},
		{"bad graph", JobRequest{Question: "q", Graph: json.RawMessage(`{"nodes": 3}`)}},
	}
	for _, tc := range cases {
		resp, _ := postJob(t, base, tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
	}
}

// TestJobList submits jobs and checks the listing includes them newest
// first with their terminal state.
func TestJobList(t *testing.T) {
	base := testServer(t).URL
	req := JobRequest{
		Question: "Run the pinned stats chain",
		Graph:    socialGraphJSON(t, 11),
		Chain:    "graph.stats",
		Priority: "high",
	}
	first := mustSubmitJob(t, base, req)
	waitJobState(t, base, first.JobID, "done")
	second := mustSubmitJob(t, base, req)
	waitJobState(t, base, second.JobID, "done")

	resp, err := http.Get(base + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Jobs []JobInfo `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, j := range body.Jobs {
		pos[j.JobID] = i
		if !j.SubmittedAt.IsZero() && i > 0 && body.Jobs[i-1].SubmittedAt.Before(j.SubmittedAt) {
			t.Fatalf("listing not newest-first at index %d", i)
		}
	}
	fi, ok1 := pos[first.JobID]
	si, ok2 := pos[second.JobID]
	if !ok1 || !ok2 {
		t.Fatalf("listing missing submitted jobs (have %d jobs)", len(body.Jobs))
	}
	if si > fi {
		t.Fatalf("second job listed after first (%d > %d)", si, fi)
	}
	if body.Jobs[fi].Priority != "high" {
		t.Fatalf("listed priority = %q", body.Jobs[fi].Priority)
	}
}

// TestAsyncMutatingChainUsesClone is the regression for mutating chains on
// interned graphs run asynchronously: the job's chain edits the graph, but
// the edit must land on the executor's private clone — the shared interned
// instance stays byte-identical, and (under -race) the store's mutation
// tripwire stays silent.
func TestAsyncMutatingChainUsesClone(t *testing.T) {
	base := testServer(t).URL
	gj := socialGraphJSON(t, 99)
	orig, err := graph.ParseJSON(gj)
	if err != nil {
		t.Fatal(err)
	}
	wantEdges := orig.NumEdges()

	info := mustSubmitJob(t, base, JobRequest{
		Question: "Add an audit edge and recount",
		Graph:    gj,
		Chain:    fmt.Sprintf("graph.add_edge(from=%d, to=%d, label=async-audit) -> graph.stats", 0, 1),
	})
	done := waitJobState(t, base, info.JobID, "done")
	if done.Result == nil || done.Result.Answer == "" {
		t.Fatalf("mutating job has no result: %+v", done)
	}

	// Re-interning the same payload must resolve to the instance uploaded by
	// the job — and that shared instance must not carry the job's edit.
	again, err := graph.ParseJSON(gj)
	if err != nil {
		t.Fatal(err)
	}
	shared := srvEngine.Graphs().Intern(again)
	if shared == again {
		t.Fatal("job upload was not interned: re-intern produced a fresh instance")
	}
	if !shared.Shared() {
		t.Fatal("interned graph not marked shared")
	}
	if got := shared.NumEdges(); got != wantEdges {
		t.Fatalf("shared graph mutated by async job: %d edges, want %d", got, wantEdges)
	}
}

// TestCommunityDetectRejectsNonPositiveRounds: a job pinning
// community.detect(max_iters=0) or a negative count fails naming the
// argument, where the kernel used to read it as its default of 20 rounds and
// the job reported success; one round is still a valid request.
func TestCommunityDetectRejectsNonPositiveRounds(t *testing.T) {
	base := testServer(t).URL
	gj := socialGraphJSON(t, 5)
	for _, rounds := range []string{"0", "-3"} {
		info := mustSubmitJob(t, base, JobRequest{
			Question: "Detect the communities",
			Graph:    gj,
			Chain:    "community.detect(max_iters=" + rounds + ")",
		})
		failed := waitJobState(t, base, info.JobID, "failed")
		if !strings.Contains(failed.Error, "max_iters") {
			t.Fatalf("max_iters=%s: job failed with %q, want an error naming max_iters", rounds, failed.Error)
		}
	}
	info := mustSubmitJob(t, base, JobRequest{
		Question: "Detect the communities",
		Graph:    gj,
		Chain:    "community.detect(max_iters=1)",
	})
	done := waitJobState(t, base, info.JobID, "done")
	if done.Result == nil || !strings.Contains(done.Result.Answer, "communities") {
		t.Fatalf("max_iters=1: job result %+v, want a community report", done.Result)
	}
}
