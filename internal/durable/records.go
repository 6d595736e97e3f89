// Package durable is the persistence subsystem: an append-only WAL of
// CRC32C-framed JSON records for session lifecycle events, chat transcript
// entries, and job submissions/terminal states, and periodic snapshots
// after which the WAL is rotated and old segments pruned. A snapshot is
// itself a segment image: the records that recreate the live state, framed
// exactly like the log. On boot, Open replays the latest snapshot and then
// every surviving WAL segment on top of it through one loop (truncating a
// torn or corrupt tail), and hands the merged State to the serving layer so
// a restart — graceful or kill -9 — loses nothing that reached the log.
//
// Only what a client can read back persists. Uploaded graphs do not: every
// chat and job carries its own, no record names one (the per-process seeded
// graph.ContentHash could not anyway), and a data dir's old graph records
// are replayed as no-ops with its blobs/ files left in place.
package durable

import (
	"encoding/json"
	"time"
)

// RecordType tags one WAL record's payload shape.
type RecordType string

// The record types the serving layer appends.
const (
	// RecSessionCreate marks a v1 session coming alive.
	RecSessionCreate RecordType = "session_create"
	// RecSessionDelete marks an explicit session delete (TTL expiry is not
	// logged; recovery re-applies the TTL against record timestamps).
	RecSessionDelete RecordType = "session_delete"
	// RecTurn is one completed chat exchange on a session.
	RecTurn RecordType = "turn"
	// RecGraph marks a graph blob committed to the blob store. Replay
	// ignores it; only Store.PersistGraph writes it.
	RecGraph RecordType = "graph"
	// RecJobSubmit is an async job accepted into the queue.
	RecJobSubmit RecordType = "job_submit"
	// RecJobDone is an async job's terminal transition (done, failed, or
	// cancelled), carrying the result or error.
	RecJobDone RecordType = "job_done"
)

// Record is the envelope every frame carries, in a WAL segment and in a
// snapshot alike: a type tag, a timestamp, and exactly one populated
// payload field.
type Record struct {
	Type RecordType `json:"t"`
	// TS is the append wall-clock time in unix nanoseconds (in a snapshot,
	// a session_create carries the session's last-used time). Recovery uses
	// it to approximate each session's idle clock for TTL filtering.
	TS      int64          `json:"ts"`
	Session *SessionRecord `json:"session,omitempty"`
	Turn    *TurnRecord    `json:"turn,omitempty"`
	Graph   *GraphRecord   `json:"graph,omitempty"`
	Job     *JobRecord     `json:"job,omitempty"`
}

// SessionRecord identifies a session for create/delete events.
type SessionRecord struct {
	ID string `json:"id"`
	// CreatedUnixNS is set on RecSessionCreate only.
	CreatedUnixNS int64 `json:"created_unix_ns,omitempty"`
	// Tenant names the owning tenant on RecSessionCreate. Empty (all
	// pre-tenancy WALs) recovers as the anonymous tenant.
	Tenant string `json:"tenant,omitempty"`
}

// TurnRecord is one transcript entry: /history's server.HistoryTurn plus the
// session and the turn's index. The chain is stored in its text form and
// re-parsed on replay.
type TurnRecord struct {
	SessionID string `json:"session_id"`
	// Index is the turn's dense position in the session history; replay
	// appends a turn only when Index is the next free slot, which makes
	// records that overlap a snapshot harmless.
	Index     int    `json:"index"`
	Question  string `json:"question"`
	Kind      string `json:"kind"`
	Chain     string `json:"chain"`
	Answer    string `json:"answer"`
	ElapsedMS int64  `json:"elapsed_ms"`
}

// GraphRecord marks a content-addressed blob as committed. SHA is the
// SHA-256 hex of the graph's canonical JSON wire form — the blob filename.
type GraphRecord struct {
	SHA string `json:"sha"`
}

// JobRecord is an async job's durable form, written once at submission
// (state "queued") and once at the terminal transition (with result or
// error). A job whose submit record survives a crash without a matching
// terminal record is restored as failed ("interrupted by restart").
type JobRecord struct {
	ID string `json:"id"`
	// Tenant names the owning tenant (empty → anonymous).
	Tenant   string `json:"tenant,omitempty"`
	Priority string `json:"priority"`
	Question string `json:"question,omitempty"`
	Chain    string `json:"chain,omitempty"`
	// GraphSHA names a graph blob. The daemon never sets it and replay
	// ignores it; only bench/trace.go fills it, beside its PersistGraph call.
	GraphSHA string `json:"graph_sha,omitempty"`
	State    string `json:"state"`
	Error    string `json:"error,omitempty"`
	// Result is the job's wire-form result (the chat response JSON) for
	// state "done".
	Result          json.RawMessage `json:"result,omitempty"`
	SubmittedUnixNS int64           `json:"submitted_unix_ns,omitempty"`
	StartedUnixNS   int64           `json:"started_unix_ns,omitempty"`
	FinishedUnixNS  int64           `json:"finished_unix_ns,omitempty"`
}

// SessionState is one session's recovered state.
type SessionState struct {
	ID       string
	Tenant   string
	Created  time.Time
	LastUsed time.Time
	Turns    []TurnRecord
}

// State is the merged outcome of snapshot plus WAL replay — everything the
// serving layer needs to rebuild itself.
type State struct {
	// Sessions maps session ID to its recovered state (creates minus
	// deletes; TTL filtering is the caller's policy, applied against
	// LastUsed).
	Sessions map[string]*SessionState
	// Jobs maps job ID to its latest record; non-terminal entries are jobs
	// whose submit record survived but whose terminal record did not.
	Jobs map[string]*JobRecord

	// Records counts WAL records replayed after the snapshot; Truncations
	// counts segments and snapshots whose tail (or body) had to be cut at
	// the first invalid frame.
	Records     int
	Truncations int
}

// NewState returns an empty recovered state (what a fresh data dir yields).
func NewState() *State {
	return &State{
		Sessions: make(map[string]*SessionState),
		Jobs:     make(map[string]*JobRecord),
	}
}

// Apply merges one replayed record into the state. Every case is
// idempotent, so records that overlap the snapshot (or a double-applied
// rotation window) cannot corrupt the merge. A graph record is counted in
// Records and changes nothing else.
func (st *State) Apply(rec *Record) {
	st.Records++
	ts := time.Unix(0, rec.TS)
	switch rec.Type {
	case RecSessionCreate:
		if rec.Session == nil {
			return
		}
		if _, ok := st.Sessions[rec.Session.ID]; ok {
			return
		}
		created := ts
		if rec.Session.CreatedUnixNS != 0 {
			created = time.Unix(0, rec.Session.CreatedUnixNS)
		}
		st.Sessions[rec.Session.ID] = &SessionState{
			ID:       rec.Session.ID,
			Tenant:   rec.Session.Tenant,
			Created:  created,
			LastUsed: ts,
		}
	case RecSessionDelete:
		if rec.Session == nil {
			return
		}
		delete(st.Sessions, rec.Session.ID)
	case RecTurn:
		if rec.Turn == nil {
			return
		}
		s, ok := st.Sessions[rec.Turn.SessionID]
		if !ok {
			return
		}
		// Dense-index append: a turn replayed twice (snapshot overlap) or
		// out of order lands on an occupied slot and is dropped.
		if rec.Turn.Index == len(s.Turns) {
			s.Turns = append(s.Turns, *rec.Turn)
		}
		if ts.After(s.LastUsed) {
			s.LastUsed = ts
		}
	case RecJobSubmit:
		if rec.Job == nil {
			return
		}
		if _, ok := st.Jobs[rec.Job.ID]; ok {
			return
		}
		j := *rec.Job
		st.Jobs[rec.Job.ID] = &j
	case RecJobDone:
		if rec.Job == nil {
			return
		}
		// The terminal record always wins, but keep submission metadata the
		// terminal record does not re-carry.
		j := *rec.Job
		if prev, ok := st.Jobs[j.ID]; ok {
			if j.Question == "" {
				j.Question = prev.Question
			}
			if j.Chain == "" {
				j.Chain = prev.Chain
			}
			if j.Tenant == "" {
				j.Tenant = prev.Tenant
			}
			if j.SubmittedUnixNS == 0 {
				j.SubmittedUnixNS = prev.SubmittedUnixNS
			}
		}
		st.Jobs[j.ID] = &j
	}
}
