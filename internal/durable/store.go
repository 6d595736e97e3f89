package durable

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"chatgraph/internal/graph"
	"chatgraph/internal/metrics"
)

// SyncPolicy selects how eagerly WAL appends reach stable storage.
type SyncPolicy int

const (
	// SyncInterval fsyncs the active segment from a background ticker —
	// the default: bounded data loss (one interval) at near-SyncNone
	// append latency.
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs after every append: no committed record is lost
	// even to an OS crash, at the cost of one fsync per record.
	SyncAlways
	// SyncNone never fsyncs explicitly. Records still survive a process
	// kill -9 (the kernel has the written bytes); only an OS crash or
	// power loss can eat the un-flushed tail.
	SyncNone
)

// syncPolicyNames spells each SyncPolicy as a flag value; String and
// ParseSyncPolicy both read it.
var syncPolicyNames = [...]string{SyncInterval: "interval", SyncAlways: "always", SyncNone: "none"}

// String names the policy for flags and logs.
func (p SyncPolicy) String() string {
	if p < 0 || int(p) >= len(syncPolicyNames) {
		return "unknown"
	}
	return syncPolicyNames[p]
}

// ParseSyncPolicy reads a -wal-sync flag value; the empty string is
// SyncInterval.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	if s == "" {
		return SyncInterval, nil
	}
	if i := slices.Index(syncPolicyNames[:], s); i >= 0 {
		return SyncPolicy(i), nil
	}
	return 0, fmt.Errorf("durable: unknown sync policy %q (want always, interval, or none)", s)
}

// DefaultSyncInterval is the background fsync cadence for SyncInterval.
const DefaultSyncInterval = 100 * time.Millisecond

// Options configures Open.
type Options struct {
	// Dir is the data directory; Open creates it (plus wal/, blobs/,
	// snap/) as needed.
	Dir string
	// Sync is the WAL fsync policy (zero value → SyncInterval).
	Sync SyncPolicy
	// SyncInterval is the background fsync cadence under SyncInterval
	// (0 → DefaultSyncInterval).
	SyncInterval time.Duration
	// Metrics is the registry the store instruments into (nil →
	// metrics.Default()).
	Metrics *metrics.Registry
}

// storeMetrics are the persistence instruments.
type storeMetrics struct {
	appends      *metrics.Counter
	appendErrs   *metrics.Counter
	walBytes     *metrics.Counter
	fsyncs       *metrics.Counter
	snapshots    *metrics.Counter
	snapshotErrs *metrics.Counter
	blobsWritten *metrics.Counter
	truncations  *metrics.Counter
	activeSeg    *metrics.Gauge
	snapSessions *metrics.Gauge
	snapJobs     *metrics.Gauge
}

func newStoreMetrics(reg *metrics.Registry, s *Store) *storeMetrics {
	m := &storeMetrics{
		appends: reg.Counter("chatgraph_wal_appends_total",
			"Records appended to the WAL.", nil),
		appendErrs: reg.Counter("chatgraph_wal_append_errors_total",
			"WAL appends that failed to reach the segment file.", nil),
		walBytes: reg.Counter("chatgraph_wal_bytes_total",
			"Bytes written to WAL segments (frames incl. headers).", nil),
		fsyncs: reg.Counter("chatgraph_wal_fsyncs_total",
			"fsync calls issued on the active WAL segment.", nil),
		snapshots: reg.Counter("chatgraph_snapshots_total",
			"Snapshots written.", nil),
		snapshotErrs: reg.Counter("chatgraph_snapshot_errors_total",
			"Snapshot attempts that failed.", nil),
		blobsWritten: reg.Counter("chatgraph_blobs_written_total",
			"Content-addressed graph blobs written (first sight of a content).", nil),
		truncations: reg.Counter("chatgraph_replay_truncations_total",
			"WAL segments and snapshots cut at the first invalid frame during replay.", nil),
		activeSeg: reg.Gauge("chatgraph_wal_active_segment",
			"Sequence number of the open WAL segment.", nil),
		snapSessions: reg.Gauge("chatgraph_snapshot_sessions",
			"Sessions captured by the latest snapshot.", nil),
		snapJobs: reg.Gauge("chatgraph_snapshot_jobs",
			"Job records captured by the latest snapshot.", nil),
	}
	reg.GaugeFunc("chatgraph_replay_duration_seconds",
		"Wall-clock time boot recovery spent loading the snapshot and replaying the WAL.", nil,
		func() float64 { return math.Float64frombits(s.replayDur.Load()) })
	reg.GaugeFunc("chatgraph_snapshot_last_unix",
		"Unix time of the latest snapshot (0 = none since boot).", nil,
		func() float64 { return float64(s.lastSnap.Load()) })
	return m
}

// Store owns one data directory: the active WAL segment and the snapshots.
// All methods are safe for concurrent use.
type Store struct {
	dir  string
	opts Options
	met  *storeMetrics

	// mu guards the active segment (file handle, sequence, dirty flag) and
	// snapshot rotation.
	mu     sync.Mutex
	seg    *os.File
	segSeq uint64
	dirty  bool
	closed bool

	// blobMu guards PersistGraph's indexes: blobByHash short-circuits a
	// content this process has already persisted without re-marshaling, and
	// blobSHAs is every blob this process has written.
	blobMu     sync.Mutex
	blobByHash map[graph.ContentHash]string
	blobSHAs   map[string]bool

	stopSync chan struct{}
	syncWG   sync.WaitGroup

	replayDur atomic.Uint64 // float64 bits
	lastSnap  atomic.Int64  // unix seconds
}

func (s *Store) walDir() string  { return filepath.Join(s.dir, "wal") }
func (s *Store) blobDir() string { return filepath.Join(s.dir, "blobs") }
func (s *Store) snapDir() string { return filepath.Join(s.dir, "snap") }

// Segments and snapshots share one file format (wal.go) and one naming
// scheme: a prefix, a zero-padded sequence number, ".wal".
func segName(seq uint64) string  { return fmt.Sprintf("seg-%08d.wal", seq) }
func snapName(seq uint64) string { return fmt.Sprintf("snap-%08d.wal", seq) }

// seqs lists the sequence numbers of dir's prefix<seq>suffix files in
// ascending order.
func seqs(dir, prefix, suffix string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	var out []uint64
	for _, e := range ents {
		rest, ok := strings.CutPrefix(e.Name(), prefix)
		num, ok2 := strings.CutSuffix(rest, suffix)
		if !ok || !ok2 {
			continue
		}
		if n, err := strconv.ParseUint(num, 10, 64); err == nil {
			out = append(out, n)
		}
	}
	slices.Sort(out)
	return out, nil
}

// Open initializes the data directory, recovers the persisted state (latest
// snapshot + WAL replay with torn-tail truncation), opens a fresh WAL
// segment for this process's appends, and returns both. A brand-new
// directory yields an empty State.
func Open(opts Options) (*Store, *State, error) {
	if opts.Dir == "" {
		return nil, nil, fmt.Errorf("durable: data dir is required")
	}
	if opts.SyncInterval <= 0 {
		opts.SyncInterval = DefaultSyncInterval
	}
	reg := opts.Metrics
	if reg == nil {
		reg = metrics.Default()
	}
	s := &Store{
		dir:        opts.Dir,
		opts:       opts,
		blobByHash: make(map[graph.ContentHash]string),
		blobSHAs:   make(map[string]bool),
		stopSync:   make(chan struct{}),
	}
	s.met = newStoreMetrics(reg, s)
	for _, d := range []string{s.dir, s.walDir(), s.blobDir(), s.snapDir()} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, nil, fmt.Errorf("durable: %w", err)
		}
	}

	start := time.Now()
	st, maxSeq, err := s.recover()
	if err != nil {
		return nil, nil, err
	}
	s.replayDur.Store(math.Float64bits(time.Since(start).Seconds()))

	// Appends from this incarnation go to a fresh segment — replayed
	// segments are never appended to, so their valid prefix is immutable.
	if err := s.openSegment(maxSeq + 1); err != nil {
		return nil, nil, err
	}
	if s.opts.Sync == SyncInterval {
		s.syncWG.Add(1)
		go s.syncLoop()
	}
	return s, st, nil
}

// recover replays the newest snapshot, if there is one, then every WAL
// segment at or after its sequence. It returns the merged state and the
// highest sequence number seen (snapshot or segment), so the caller can open
// the next segment.
//
// Only the newest snapshot is read. An older one survives only a crash
// between a newer snapshot's rename and the prune, and by then the newer one
// is complete: it was fsynced before the rename and its directory after.
func (s *Store) recover() (*State, uint64, error) {
	// A data dir written before snapshots became segment images holds a
	// JSON manifest. Reading on without it would replay only the segments
	// it had not pruned, so refuse before anything is read or truncated.
	if old, _ := filepath.Glob(filepath.Join(s.snapDir(), "snap-*.json")); len(old) > 0 {
		return nil, 0, fmt.Errorf("durable: %s is a snapshot in the retired JSON manifest format; this build reads only snap-*.wal snapshots", old[0])
	}
	snaps, err := seqs(s.snapDir(), "snap-", ".wal")
	if err != nil {
		return nil, 0, err
	}
	segs, err := seqs(s.walDir(), "seg-", ".wal")
	if err != nil {
		return nil, 0, err
	}

	st := NewState()
	var snapSeq, maxSeq uint64
	if len(snaps) > 0 {
		snapSeq = snaps[len(snaps)-1]
		maxSeq = snapSeq
		if err := s.replay(filepath.Join(s.snapDir(), snapName(snapSeq)), st); err != nil {
			return nil, 0, err
		}
		st.Records = 0 // Records counts the WAL replayed on top of the snapshot
	}
	for _, seq := range segs {
		maxSeq = max(maxSeq, seq)
		// Segments below the snapshot are fully covered by it; a crash
		// between the snapshot write and pruning leaves them behind.
		if seq < snapSeq {
			continue
		}
		if err := s.replay(filepath.Join(s.walDir(), segName(seq)), st); err != nil {
			return nil, 0, err
		}
	}
	return st, maxSeq, nil
}

// replay applies every intact record of one segment image — a WAL segment
// or a snapshot — to st. At the first invalid frame it keeps the valid
// prefix, counts the truncation, and cuts the rest so the next recovery does
// not re-detect it: a torn tail (the expected crash artifact on the last
// segment) and bit-rot mid-file are handled alike.
func (s *Store) replay(path string, st *State) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	payloads, valid, decErr := DecodeFrames(data)
	for _, p := range payloads {
		var rec Record
		if json.Unmarshal(p, &rec) != nil {
			// An intact frame with an unreadable record is a version skew
			// problem, not corruption; skip it.
			continue
		}
		st.Apply(&rec)
	}
	if decErr == nil {
		return nil
	}
	st.Truncations++
	s.met.truncations.Inc()
	if valid < len(data) {
		if err := os.Truncate(path, int64(valid)); err != nil {
			return fmt.Errorf("durable: truncate %s: %w", path, err)
		}
	}
	return nil
}

// openSegment creates and syncs the new active segment. Caller must not
// hold mu (Open) or must hold it (rotation) — it touches only seg/segSeq,
// which the caller owns at both call sites.
func (s *Store) openSegment(seq uint64) error {
	path := filepath.Join(s.walDir(), segName(seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return fmt.Errorf("durable: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("durable: %w", err)
	}
	s.met.fsyncs.Inc()
	if err := syncDir(s.walDir()); err != nil {
		f.Close()
		return err
	}
	s.seg = f
	s.segSeq = seq
	s.met.activeSeg.Set(int64(seq))
	return nil
}

// syncDir fsyncs a directory so a just-created or just-renamed entry
// survives an OS crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("durable: sync %s: %w", dir, err)
	}
	return nil
}

// syncLoop is the SyncInterval background flusher. A failed fsync counts
// as an append error, not as an fsync, and leaves the segment dirty, so the
// next tick tries again.
func (s *Store) syncLoop() {
	defer s.syncWG.Done()
	t := time.NewTicker(s.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stopSync:
			return
		case <-t.C:
			s.mu.Lock()
			if s.dirty && !s.closed {
				if err := s.seg.Sync(); err != nil {
					s.met.appendErrs.Inc()
				} else {
					s.dirty = false
					s.met.fsyncs.Inc()
				}
			}
			s.mu.Unlock()
		}
	}
}

// Append frames rec and writes it to the active segment under the
// configured sync policy. The serving layer treats append failures as
// log-and-continue (counted in chatgraph_wal_append_errors_total): losing
// durability must not take down serving.
func (s *Store) Append(rec *Record) error {
	if rec.TS == 0 {
		rec.TS = time.Now().UnixNano()
	}
	frame, err := appendRecord(nil, rec)
	if err != nil {
		s.met.appendErrs.Inc()
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.met.appendErrs.Inc()
		return fmt.Errorf("durable: store closed")
	}
	if _, err := s.seg.Write(frame); err != nil {
		s.met.appendErrs.Inc()
		return fmt.Errorf("durable: append: %w", err)
	}
	s.met.appends.Inc()
	s.met.walBytes.Add(uint64(len(frame)))
	switch s.opts.Sync {
	case SyncAlways:
		if err := s.seg.Sync(); err != nil {
			s.met.appendErrs.Inc()
			return fmt.Errorf("durable: fsync: %w", err)
		}
		s.met.fsyncs.Inc()
	case SyncInterval:
		s.dirty = true
	}
	return nil
}

// appendRecord frames rec's JSON encoding onto buf: the one on-disk form of
// a record, in the log and in a snapshot.
func appendRecord(buf []byte, rec *Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return buf, fmt.Errorf("durable: encode record: %w", err)
	}
	if len(payload) > MaxRecordLen {
		return buf, fmt.Errorf("durable: record too large (%d bytes)", len(payload))
	}
	return AppendFrame(buf, payload), nil
}

// Typed append helpers — one per record type the serving layer emits.

// LogSessionCreate records a session coming alive under its owning
// tenant (empty tenant → anonymous).
func (s *Store) LogSessionCreate(id string, created time.Time, tenant string) error {
	return s.Append(&Record{Type: RecSessionCreate, Session: &SessionRecord{ID: id, CreatedUnixNS: created.UnixNano(), Tenant: tenant}})
}

// LogSessionDelete records an explicit session delete.
func (s *Store) LogSessionDelete(id string) error {
	return s.Append(&Record{Type: RecSessionDelete, Session: &SessionRecord{ID: id}})
}

// LogTurn records one completed chat exchange.
func (s *Store) LogTurn(t TurnRecord) error {
	return s.Append(&Record{Type: RecTurn, Turn: &t})
}

// LogJobSubmit records an accepted async job.
func (s *Store) LogJobSubmit(j JobRecord) error {
	return s.Append(&Record{Type: RecJobSubmit, Job: &j})
}

// LogJobDone records a job's terminal transition.
func (s *Store) LogJobDone(j JobRecord) error {
	return s.Append(&Record{Type: RecJobDone, Job: &j})
}

// PersistGraph writes g to blobs/ under the SHA-256 of its JSON wire form,
// once per content per process, and logs a graph record that replay
// ignores. Only bench/trace.go calls it; it goes, with GraphRecord, RecGraph
// and the blob indexes, when the trace stops calling it.
func (s *Store) PersistGraph(g *graph.Graph) (string, error) {
	if g == nil {
		return "", nil
	}
	h := g.ContentHash()
	s.blobMu.Lock()
	defer s.blobMu.Unlock()
	if sha, ok := s.blobByHash[h]; ok {
		return sha, nil
	}
	data, err := g.MarshalJSON()
	if err != nil {
		return "", fmt.Errorf("durable: encode graph: %w", err)
	}
	sum := sha256.Sum256(data)
	sha := hex.EncodeToString(sum[:])
	if !s.blobSHAs[sha] {
		if err := writeFileAtomic(filepath.Join(s.blobDir(), sha+".json"), data); err != nil {
			return "", err
		}
		s.met.blobsWritten.Inc()
		s.blobSHAs[sha] = true
		// Log after the blob is durable, so a graph record never references
		// a blob that a crash could have eaten.
		if err := s.Append(&Record{Type: RecGraph, Graph: &GraphRecord{SHA: sha}}); err != nil {
			return "", err
		}
	}
	s.blobByHash[h] = sha
	return sha, nil
}

// Snapshot checkpoints the serving state: it rotates the WAL to a fresh
// segment, asks build for the records that recreate the live sessions and
// jobs, writes them atomically as a segment image, and prunes the WAL
// segments and snapshots the new snapshot supersedes.
//
// Ordering makes this crash-safe at every step: the rotation happens
// *before* build runs, so the snapshot is a superset of every record in the
// pruned segments (records landing in the new segment during build are
// replayed on top of the snapshot, which is idempotent). A crash after
// rotation but before the snapshot write just leaves one extra segment to
// replay.
func (s *Store) Snapshot(build func() []Record) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("durable: store closed")
	}
	if err := s.seg.Sync(); err != nil {
		s.mu.Unlock()
		s.met.snapshotErrs.Inc()
		return fmt.Errorf("durable: sync before rotate: %w", err)
	}
	s.met.fsyncs.Inc()
	if err := s.seg.Close(); err != nil {
		s.mu.Unlock()
		s.met.snapshotErrs.Inc()
		return fmt.Errorf("durable: close segment: %w", err)
	}
	newSeq := s.segSeq + 1
	if err := s.openSegment(newSeq); err != nil {
		// The old segment is closed; the store cannot continue. Callers
		// treat this as fatal.
		s.stopLocked()
		s.mu.Unlock()
		s.met.snapshotErrs.Inc()
		return err
	}
	s.mu.Unlock()

	recs := build()
	data := []byte(segMagic)
	count := make(map[RecordType]int)
	for i := range recs {
		var err error
		if data, err = appendRecord(data, &recs[i]); err != nil {
			s.met.snapshotErrs.Inc()
			return err
		}
		count[recs[i].Type]++
	}
	if err := writeFileAtomic(filepath.Join(s.snapDir(), snapName(newSeq)), data); err != nil {
		s.met.snapshotErrs.Inc()
		return err
	}

	s.met.snapshots.Inc()
	s.lastSnap.Store(time.Now().Unix())
	s.met.snapSessions.Set(int64(count[RecSessionCreate]))
	s.met.snapJobs.Set(int64(count[RecJobSubmit] + count[RecJobDone]))

	// Prune: segments below the snapshot's seq are fully covered by it;
	// snapshots below it are superseded. Failures here are cosmetic (extra
	// files, all skipped by the next recovery), so they are not surfaced.
	if old, err := seqs(s.walDir(), "seg-", ".wal"); err == nil {
		for _, seq := range old {
			if seq < newSeq {
				os.Remove(filepath.Join(s.walDir(), segName(seq))) //nolint:errcheck
			}
		}
	}
	if old, err := seqs(s.snapDir(), "snap-", ".wal"); err == nil {
		for _, seq := range old {
			if seq < newSeq {
				os.Remove(filepath.Join(s.snapDir(), snapName(seq))) //nolint:errcheck
			}
		}
	}
	return nil
}

// stopLocked marks the store closed and waits for the interval syncer to
// exit. The caller holds mu; it is released while waiting, because the
// syncer takes it on every tick.
func (s *Store) stopLocked() {
	s.closed = true
	close(s.stopSync)
	s.mu.Unlock()
	s.syncWG.Wait()
	s.mu.Lock()
}

// Close flushes and closes the active segment. Call it after the final
// Snapshot; appends after Close fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.stopLocked()
	if err := s.seg.Sync(); err != nil {
		s.seg.Close()
		return fmt.Errorf("durable: %w", err)
	}
	s.met.fsyncs.Inc()
	return s.seg.Close()
}

// Abort closes the store without flushing — the in-process stand-in for
// kill -9 in crash-recovery tests. Bytes already written to the segment
// survive (the OS has them); nothing else is promised.
func (s *Store) Abort() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.stopLocked()
	s.seg.Close() //nolint:errcheck // crash semantics: no flush, no error handling
}

// writeFileAtomic writes data to path via a same-directory temp file,
// fsync, rename, and a directory fsync, so a crash leaves either the old
// file or the new one — never a torn half — and the new one survives an OS
// crash once this returns.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp) //nolint:errcheck
		return fmt.Errorf("durable: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp) //nolint:errcheck
		return fmt.Errorf("durable: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp) //nolint:errcheck
		return fmt.Errorf("durable: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp) //nolint:errcheck
		return fmt.Errorf("durable: %w", err)
	}
	return syncDir(dir)
}
