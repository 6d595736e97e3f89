package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	"chatgraph/internal/chain"
	"chatgraph/internal/core"
	"chatgraph/internal/executor"
	"chatgraph/internal/jobs"
)

// JobRequest is the POST /v1/jobs payload: the same question/graph shape as
// a chat, plus the async-only knobs. A request with a Chain skips LLM
// generation and runs exactly that chain — the path heavy, known analytics
// take — while one without goes through the full pipeline (retrieval,
// prompt, generation, execution) like a synchronous chat would.
type JobRequest struct {
	Question string `json:"question"`
	// Graph is the uploaded graph in the graph JSON wire format (optional).
	Graph json.RawMessage `json:"graph,omitempty"`
	// Chain optionally pins the exact chain to execute, in the chain text
	// form ("graph.stats -> report.compose"); it is validated at submission
	// so a bad chain fails fast with 400, not asynchronously.
	Chain string `json:"chain,omitempty"`
	// Priority is low, normal (default), or high.
	Priority string `json:"priority,omitempty"`
	// JobID optionally pins the new job's identity (8-64 lowercase hex).
	// The cluster router mints it so the rendezvous hash of job id →
	// backend keeps polls and cancels on the backend that owns the job.
	JobID string `json:"job_id,omitempty"`
}

// JobInfo describes one job on the wire.
type JobInfo struct {
	JobID       string     `json:"job_id"`
	State       string     `json:"state"`
	Priority    string     `json:"priority"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	// QueueWaitMS is how long the job waited for a worker (present once it
	// has started); ElapsedMS is execution time so far (running) or total
	// (finished).
	QueueWaitMS int64 `json:"queue_wait_ms,omitempty"`
	ElapsedMS   int64 `json:"elapsed_ms,omitempty"`
	// Events is how many progress events have been persisted; tail them at
	// GET /v1/jobs/{id}?stream=1.
	Events int `json:"events"`
	// Result is the chat response once the job is done.
	Result *ChatResponse `json:"result,omitempty"`
	// Error is set for failed and cancelled jobs.
	Error string `json:"error,omitempty"`
}

// jobInfo converts a job status snapshot to its wire form.
func jobInfo(st jobs.Status) JobInfo {
	info := JobInfo{
		JobID:       st.ID,
		State:       st.State.String(),
		Priority:    st.Priority.String(),
		SubmittedAt: st.Submitted,
		Events:      st.Events,
	}
	if !st.Started.IsZero() {
		started := st.Started
		info.StartedAt = &started
		info.QueueWaitMS = started.Sub(st.Submitted).Milliseconds()
		end := time.Now()
		if !st.Finished.IsZero() {
			end = st.Finished
		}
		info.ElapsedMS = end.Sub(started).Milliseconds()
	}
	if !st.Finished.IsZero() {
		finished := st.Finished
		info.FinishedAt = &finished
	}
	if resp, ok := st.Result.(ChatResponse); ok && st.State == jobs.StateDone {
		info.Result = &resp
	}
	if st.Err != nil && st.State.Terminal() && st.State != jobs.StateDone {
		info.Error = st.Err.Error()
	}
	return info
}

// handleJobCreate accepts a chat/chain payload for asynchronous execution.
// Everything that can be rejected is rejected here, synchronously — bad
// JSON, bad graph, bad chain, bad priority — so an accepted job only fails
// for execution reasons. The uploaded graph flows through the same intern
// layer as chat uploads (one shared instance per content), and the executor
// clones it if the chain mutates, exactly as on the synchronous path.
// A full queue sheds with 429 + Retry-After, mirroring the admission gate.
func (s *Server) handleJobCreate(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	up, err := readUpload(w, r, &req, &req.Graph)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, fmt.Sprintf("decode request: %v", err))
		return
	}
	if req.Question == "" {
		writeError(w, r, http.StatusBadRequest, "question is required")
		return
	}
	pri, err := jobs.ParsePriority(req.Priority)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	if req.JobID != "" && !validPinnedID(req.JobID) {
		writeError(w, r, http.StatusBadRequest, ErrBadID.Error())
		return
	}
	g, ok := s.internUpload(w, r, up)
	if !ok {
		return
	}
	var c chain.Chain
	if req.Chain != "" {
		if c, err = chain.Parse(req.Chain); err != nil {
			writeError(w, r, http.StatusBadRequest, fmt.Sprintf("bad chain: %v", err))
			return
		}
		if len(c) == 0 {
			writeError(w, r, http.StatusBadRequest, "chain is empty")
			return
		}
		if err := chain.Validate(c, s.eng.Registry()); err != nil {
			writeError(w, r, http.StatusBadRequest, fmt.Sprintf("bad chain: %v", err))
			return
		}
	}
	// Each job runs on its own private session over the shared engine — the
	// job store, not the session manager, owns its lifetime, so job history
	// can neither collide with nor expire under a live conversation.
	sess := s.eng.NewSession()
	question := req.Question
	task := func(ctx context.Context, emit func(executor.Event)) (any, error) {
		opts := core.AskOptions{OnEvent: emit}
		var turn core.Turn
		var err error
		if len(c) > 0 {
			turn, err = sess.AskWithChain(ctx, question, g, c, opts)
		} else {
			turn, err = sess.Ask(ctx, question, g, opts)
		}
		if err != nil {
			return nil, err
		}
		return chatResponse(turn), nil
	}
	j, err := s.jobs.SubmitOwned(req.JobID, s.currentTenant(r).Name, pri, task)
	switch {
	case errors.Is(err, jobs.ErrDuplicateID):
		writeError(w, r, http.StatusConflict, err.Error())
		return
	case errors.Is(err, jobs.ErrQueueFull):
		shed(w, r, http.StatusTooManyRequests, 0, "job queue full, retry later")
		return
	case errors.Is(err, jobs.ErrClosed):
		writeError(w, r, http.StatusServiceUnavailable, "job pool shut down")
		return
	case err != nil:
		writeError(w, r, http.StatusInternalServerError, err.Error())
		return
	}
	s.logJobSubmit(j, req)
	writeJSON(w, http.StatusAccepted, jobInfo(j.Status()))
}

// handleJobList reports the calling tenant's stored jobs (queued,
// running, retained finished), newest submission first.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	tn := s.currentTenant(r)
	all := s.jobs.All()
	sort.Slice(all, func(i, j int) bool { return all[i].Submitted.After(all[j].Submitted) })
	out := []JobInfo{}
	for _, st := range all {
		if ownedBy(st.Owner, tn) {
			out = append(out, jobInfo(st))
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

// getOwnedJob fetches a job and checks the caller's tenant owns it. These
// routes sit outside the admission gate (a long stream must outlive
// RequestTimeout, cancel must work on an overloaded server), so the
// tenant is resolved here; cross-tenant and unknown IDs are the same 404.
func (s *Server) getOwnedJob(w http.ResponseWriter, r *http.Request) (*jobs.Job, bool) {
	tn, ok := s.authTenant(w, r)
	if !ok {
		return nil, false
	}
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok || !ownedBy(j.Owner, tn) {
		writeError(w, r, http.StatusNotFound, "no such job")
		return nil, false
	}
	return j, true
}

// handleJobGet serves one job's status, or — with ?stream=1 — an NDJSON
// tail of its progress events: persisted events replay immediately, then
// the stream follows live until the job reaches a terminal state. The same
// stream works during and after execution, so a client may watch a running
// job or replay a finished one with the same request.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.getOwnedJob(w, r)
	if !ok {
		return
	}
	if wantsStream(r) {
		s.streamJob(w, r, j)
		return
	}
	writeJSON(w, http.StatusOK, jobInfo(j.Status()))
}

// streamJob writes the job's event tail as NDJSON in the chat-stream wire
// format: one line per execution event, then a final "result" or "error"
// line once the job is terminal.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, j *jobs.Job) {
	out := startNDJSON(w, r)
	n := 0
	for {
		evs, state, changed := j.EventsSince(n)
		for _, e := range evs {
			out.event(e)
		}
		n += len(evs)
		if state.Terminal() {
			break
		}
		select {
		case <-r.Context().Done():
			return
		case <-changed:
		}
	}
	st := j.Status()
	if resp, ok := st.Result.(ChatResponse); ok && st.State == jobs.StateDone {
		out.result(resp)
		return
	}
	msg := st.State.String()
	if st.Err != nil {
		msg = st.Err.Error()
	}
	out.fail(msg)
}

// handleJobCancel cancels the job: a queued job lands in "cancelled"
// immediately, a running one keeps reporting "running" until the executor
// observes the dead context between steps. Cancelling a finished job is a
// no-op that reports the settled state, so DELETE is safely idempotent.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.getOwnedJob(w, r); !ok {
		return
	}
	id := r.PathValue("id")
	st, ok := s.jobs.Cancel(id)
	if !ok {
		writeError(w, r, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"job_id": id, "state": st.String()})
}
