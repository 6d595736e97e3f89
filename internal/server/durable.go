package server

import (
	"cmp"
	"encoding/json"
	"errors"
	"log"
	"net/http"
	"slices"
	"strings"
	"time"

	"chatgraph/internal/chain"
	"chatgraph/internal/core"
	"chatgraph/internal/durable"
	"chatgraph/internal/graph"
	"chatgraph/internal/jobs"
)

// This file threads the durability layer through the serving stack. Every
// hook is a no-op when Options.Durable is nil, and every append failure is
// log-and-continue: the durable store counts its own errors
// (chatgraph_wal_append_errors_total), and a sick disk must degrade
// durability, not availability.

// handleReadyz is the readiness probe: 200 once recovery has completed
// (or immediately when the server has no durable store), 503 while the
// persisted state is still being replayed.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.ready.Load() {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
		return
	}
	setRetryAfter(w, 0)
	WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "recovering"})
}

func unixNS(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// logSessionCreate records a freshly minted session and attaches the
// transcript hook so its future turns reach the WAL.
func (s *Server) logSessionCreate(m *managed) {
	if s.opts.Durable == nil {
		return
	}
	if err := s.opts.Durable.LogSessionCreate(m.ID, m.Created, m.Tenant); err != nil {
		log.Printf("server: durable: session create %s: %v", m.ID, err)
	}
	s.attachTurnLog(m)
}

// logSessionDelete records an explicit delete so recovery does not
// resurrect the session.
func (s *Server) logSessionDelete(id string) {
	if s.opts.Durable == nil {
		return
	}
	if err := s.opts.Durable.LogSessionDelete(id); err != nil {
		log.Printf("server: durable: session delete %s: %v", id, err)
	}
}

// attachTurnLog registers the session's turn observer: every completed
// exchange is appended to the WAL with its dense history index, which is
// what makes replay idempotent across snapshot overlap.
func (s *Server) attachTurnLog(m *managed) {
	store := s.opts.Durable
	id := m.ID
	m.Session.SetTurnObserver(func(index int, t core.Turn) {
		if err := store.LogTurn(turnRecord(id, index, t)); err != nil {
			log.Printf("server: durable: turn %s[%d]: %v", id, index, err)
		}
	})
}

// turnRecord converts a completed turn to its durable wire form; Recover
// inverts it (chain.Parse, graph.ParseKind) into Session.RestoreHistory.
func turnRecord(sessionID string, index int, t core.Turn) durable.TurnRecord {
	return durable.TurnRecord{
		SessionID: sessionID,
		Index:     index,
		Question:  t.Question,
		Kind:      t.Kind.String(),
		Chain:     t.Chain.String(),
		Answer:    t.Answer,
		ElapsedMS: t.Elapsed.Milliseconds(),
	}
}

// jobRecord is the one place a job status becomes its durable form: the
// identity and timing fields, the error text, and — for a completed job —
// the result payload, so a restart can answer GET /v1/jobs/{id} for work
// that finished in a previous incarnation.
func jobRecord(st jobs.Status) durable.JobRecord {
	rec := durable.JobRecord{
		ID:              st.ID,
		Tenant:          st.Owner,
		Priority:        st.Priority.String(),
		State:           st.State.String(),
		SubmittedUnixNS: unixNS(st.Submitted),
		StartedUnixNS:   unixNS(st.Started),
		FinishedUnixNS:  unixNS(st.Finished),
	}
	if st.Err != nil {
		rec.Error = st.Err.Error()
	}
	if resp, ok := st.Result.(ChatResponse); ok && st.State == jobs.StateDone {
		if data, err := json.Marshal(resp); err == nil {
			rec.Result = data
		} else {
			log.Printf("server: durable: encode job %s result: %v", st.ID, err)
		}
	}
	return rec
}

// logJobSubmit records an accepted async job.
func (s *Server) logJobSubmit(j *jobs.Job, req JobRequest) {
	if s.opts.Durable == nil {
		return
	}
	// The submit record describes the job as accepted, whatever a fast
	// worker has done to it since; the terminal record carries the rest.
	st := j.Status()
	rec := jobRecord(jobs.Status{ID: st.ID, Owner: st.Owner, Priority: st.Priority, State: jobs.StateQueued, Submitted: st.Submitted})
	rec.Question, rec.Chain = req.Question, req.Chain
	if err := s.opts.Durable.LogJobSubmit(rec); err != nil {
		log.Printf("server: durable: job submit %s: %v", st.ID, err)
	}
}

// onJobTerminal is the job pool's OnTerminal hook: it records the settled
// outcome. The pool invokes it outside its locks.
func (s *Server) onJobTerminal(st jobs.Status) {
	if s.opts.Durable == nil {
		return
	}
	if err := s.opts.Durable.LogJobDone(jobRecord(st)); err != nil {
		log.Printf("server: durable: job done %s: %v", st.ID, err)
	}
}

// Recover rebuilds the server from a recovered State: live sessions get
// their IDs, idle clocks, and transcripts back, and terminal job records
// become queryable again. No graph is interned: nothing recovered names
// one. Jobs that were queued or running at the crash are restored as
// failed ("interrupted by restart") — their submission was durable, their
// execution was not. Sessions idle past the TTL at recovery time are
// dropped, exactly as the sweeper would have; every other session comes
// back, whatever MaxSessions is now.
//
// Recover must be called exactly once, before traffic, whenever
// Options.Durable is set (a fresh data dir yields an empty state); it
// flips the server ready at the end.
func (s *Server) Recover(st *durable.State) error {
	if s.opts.Durable == nil {
		s.ready.Store(true)
		return nil
	}
	if st == nil {
		st = durable.NewState()
	}
	start := time.Now()
	now := start
	ttl := s.mgr.TTL()
	sessions, turns, expired := 0, 0, 0
	for _, ss := range st.Sessions {
		if now.Sub(ss.LastUsed) > ttl {
			expired++
			continue
		}
		m, err := s.mgr.Restore(ss.ID, ss.Created, ss.LastUsed, ss.Tenant)
		if err != nil {
			log.Printf("server: recover: session %s: %v", ss.ID, err)
			continue
		}
		restored := make([]core.Turn, 0, len(ss.Turns))
		for _, tr := range ss.Turns {
			c, err := chain.Parse(tr.Chain)
			if err != nil {
				// A chain that fails to re-parse (version skew) loses its
				// structured form but not the exchange itself.
				log.Printf("server: recover: session %s turn %d chain: %v", ss.ID, tr.Index, err)
				c = nil
			}
			restored = append(restored, core.Turn{
				Question: tr.Question,
				Kind:     graph.ParseKind(tr.Kind),
				Chain:    c,
				Answer:   tr.Answer,
				Elapsed:  time.Duration(tr.ElapsedMS) * time.Millisecond,
			})
		}
		m.Session.RestoreHistory(restored)
		turns += len(restored)
		// Attach the WAL hook only after the bulk load, so restored turns
		// are not re-logged.
		s.attachTurnLog(m)
		sessions++
	}

	// Jobs restore in finish order to preserve the retention sweep's
	// eviction-queue invariant. Interrupted jobs all settle at the same
	// "now", so the ID breaks ties and the order does not follow the map's.
	recs := make([]durable.JobRecord, 0, len(st.Jobs))
	for _, jr := range st.Jobs {
		rec := *jr
		if jst, ok := jobs.ParseState(rec.State); !ok || !jst.Terminal() {
			rec.State = jobs.StateFailed.String()
			rec.Error = "interrupted by restart before completion"
			rec.FinishedUnixNS = now.UnixNano()
		}
		recs = append(recs, rec)
	}
	slices.SortFunc(recs, func(a, b durable.JobRecord) int {
		return cmp.Or(cmp.Compare(a.FinishedUnixNS, b.FinishedUnixNS), strings.Compare(a.ID, b.ID))
	})
	restoredJobs := 0
	for _, rec := range recs {
		jst, _ := jobs.ParseState(rec.State)
		pri, err := jobs.ParsePriority(rec.Priority)
		if err != nil {
			pri = jobs.PriorityNormal
		}
		var result any
		if jst == jobs.StateDone && len(rec.Result) > 0 {
			var resp ChatResponse
			if err := json.Unmarshal(rec.Result, &resp); err == nil {
				result = resp
			} else {
				log.Printf("server: recover: job %s result: %v", rec.ID, err)
			}
		}
		var jerr error
		if rec.Error != "" {
			jerr = errors.New(rec.Error)
		}
		toTime := func(ns int64) time.Time {
			if ns == 0 {
				return time.Time{}
			}
			return time.Unix(0, ns)
		}
		if s.jobs.Restore(rec.ID, rec.Tenant, pri, jst, toTime(rec.SubmittedUnixNS), toTime(rec.StartedUnixNS), toTime(rec.FinishedUnixNS), result, jerr) {
			restoredJobs++
		}
	}

	log.Printf("server: recovered %d sessions (%d turns, %d expired in absence), %d job records from %d WAL records in %s",
		sessions, turns, expired, restoredJobs, st.Records, time.Since(start).Round(time.Millisecond))
	s.ready.Store(true)
	return nil
}

// Checkpoint takes a snapshot of the live serving state through the durable
// store: the WAL rotates, the snapshot holds the records the live log would
// hold for every live session (creation, last-used time, transcript) and
// every stored job, and superseded segments and snapshots are pruned.
// Daemons call it periodically and once more during graceful shutdown
// (after Close, so final job cancellations are covered). A server without a
// durable store returns nil immediately.
func (s *Server) Checkpoint() error {
	if s.opts.Durable == nil {
		return nil
	}
	return s.opts.Durable.Snapshot(func() []durable.Record {
		var recs []durable.Record
		s.mgr.sessions.Range(func(_, value any) bool {
			m := value.(*managed)
			recs = append(recs, durable.Record{Type: durable.RecSessionCreate, TS: m.lastUsed.Load(),
				Session: &durable.SessionRecord{ID: m.ID, CreatedUnixNS: m.Created.UnixNano(), Tenant: m.Tenant}})
			for i, t := range m.Session.History() {
				tr := turnRecord(m.ID, i, t)
				recs = append(recs, durable.Record{Type: durable.RecTurn, Turn: &tr})
			}
			return true
		})
		for _, st := range s.jobs.All() {
			rec, typ := jobRecord(st), durable.RecJobSubmit
			if st.State.Terminal() {
				typ = durable.RecJobDone
			}
			recs = append(recs, durable.Record{Type: typ, Job: &rec})
		}
		return recs
	})
}
