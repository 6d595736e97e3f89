package durable

import (
	"bytes"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"chatgraph/internal/graph"
	"chatgraph/internal/metrics"
)

func openStore(t *testing.T, dir string, sync SyncPolicy) (*Store, *State) {
	t.Helper()
	st, state, err := Open(Options{Dir: dir, Sync: sync})
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	return st, state
}

func TestStoreAppendReopen(t *testing.T) {
	dir := t.TempDir()
	st, state := openStore(t, dir, SyncAlways)
	if len(state.Sessions) != 0 || state.Records != 0 {
		t.Fatalf("fresh dir state = %+v", state)
	}

	created := time.Now()
	if err := st.LogSessionCreate("sess-1", created, ""); err != nil {
		t.Fatal(err)
	}
	if err := st.LogTurn(TurnRecord{SessionID: "sess-1", Index: 0, Question: "q0", Kind: "social", Chain: "graph.stats", Answer: "a0", ElapsedMS: 12}); err != nil {
		t.Fatal(err)
	}
	if err := st.LogTurn(TurnRecord{SessionID: "sess-1", Index: 1, Question: "q1", Answer: "a1"}); err != nil {
		t.Fatal(err)
	}
	if err := st.LogSessionCreate("sess-2", created, ""); err != nil {
		t.Fatal(err)
	}
	if err := st.LogSessionDelete("sess-2"); err != nil {
		t.Fatal(err)
	}
	if err := st.LogJobSubmit(JobRecord{ID: "job-1", Priority: "normal", Question: "count", State: "queued", SubmittedUnixNS: 100}); err != nil {
		t.Fatal(err)
	}
	if err := st.LogJobDone(JobRecord{ID: "job-1", Priority: "normal", State: "done", Result: []byte(`{"answer":"42"}`), SubmittedUnixNS: 100, FinishedUnixNS: 200}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rec := openStore(t, dir, SyncAlways)
	defer st2.Close()
	s1, ok := rec.Sessions["sess-1"]
	if !ok {
		t.Fatalf("sess-1 not recovered: %+v", rec.Sessions)
	}
	if len(s1.Turns) != 2 || s1.Turns[0].Answer != "a0" || s1.Turns[1].Question != "q1" {
		t.Fatalf("sess-1 turns = %+v", s1.Turns)
	}
	if _, ok := rec.Sessions["sess-2"]; ok {
		t.Fatal("deleted sess-2 resurrected")
	}
	j, ok := rec.Jobs["job-1"]
	if !ok || j.State != "done" || string(j.Result) != `{"answer":"42"}` || j.Question != "count" {
		t.Fatalf("job-1 = %+v", j)
	}
	if rec.Truncations != 0 {
		t.Fatalf("truncations = %d", rec.Truncations)
	}
}

// TestStoreTornTail cuts the active segment mid-frame (as a crash during a
// write would) and checks recovery keeps everything before the tear,
// truncates the file, and counts the truncation.
func TestStoreTornTail(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir, SyncAlways)
	if err := st.LogSessionCreate("kept", time.Now(), ""); err != nil {
		t.Fatal(err)
	}
	if err := st.LogTurn(TurnRecord{SessionID: "kept", Index: 0, Answer: "kept answer"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	segPath := filepath.Join(dir, "wal", segName(1))
	info, err := os.Stat(segPath)
	if err != nil {
		t.Fatal(err)
	}
	intact := info.Size()
	// A torn frame: a plausible header promising more bytes than exist.
	f, err := os.OpenFile(segPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0x99, 0x99, 0x99, 0x99, 'p', 'a', 'r'}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2, rec := openStore(t, dir, SyncAlways)
	defer st2.Close()
	if rec.Truncations != 1 {
		t.Fatalf("truncations = %d, want 1", rec.Truncations)
	}
	s, ok := rec.Sessions["kept"]
	if !ok || len(s.Turns) != 1 || s.Turns[0].Answer != "kept answer" {
		t.Fatalf("recovered = %+v", rec.Sessions)
	}
	if info, err := os.Stat(segPath); err != nil || info.Size() != intact {
		t.Fatalf("segment not truncated back to %d: %v %v", intact, info, err)
	}
}

func TestStoreSnapshotRotatePrune(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir, SyncAlways)
	defer st.Close()
	if err := st.LogSessionCreate("pre", time.Now(), ""); err != nil {
		t.Fatal(err)
	}
	fixture := func() []Record {
		return []Record{
			{Type: RecSessionCreate, TS: time.Now().UnixNano(), Session: &SessionRecord{ID: "pre", CreatedUnixNS: time.Now().UnixNano()}},
			{Type: RecTurn, Turn: &TurnRecord{SessionID: "pre", Index: 0, Answer: "from snapshot"}},
			{Type: RecJobDone, Job: &JobRecord{ID: "done-job", Priority: "high", State: "done", FinishedUnixNS: 5}},
		}
	}
	if err := st.Snapshot(fixture); err != nil {
		t.Fatal(err)
	}
	// After the snapshot: segment 1 pruned, segment 2 active, one snapshot.
	walEnts, err := os.ReadDir(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(walEnts) != 1 || walEnts[0].Name() != segName(2) {
		t.Fatalf("wal dir after snapshot = %v", names(walEnts))
	}
	snapEnts, err := os.ReadDir(filepath.Join(dir, "snap"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snapEnts) != 1 || snapEnts[0].Name() != snapName(2) {
		t.Fatalf("snap dir after snapshot = %v", names(snapEnts))
	}

	// Records after the snapshot land in segment 2 and replay on top of it.
	if err := st.LogSessionCreate("post", time.Now(), ""); err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(fixture); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rec := openStore(t, dir, SyncAlways)
	defer st2.Close()
	s, ok := rec.Sessions["pre"]
	if !ok || len(s.Turns) != 1 || s.Turns[0].Answer != "from snapshot" {
		t.Fatalf("snapshot session = %+v", rec.Sessions)
	}
	j, ok := rec.Jobs["done-job"]
	if !ok || j.State != "done" {
		t.Fatalf("snapshot job = %+v", rec.Jobs)
	}
	// "post" was created after the first snapshot; the second snapshot
	// (built from the same static fixture) does not carry it, but its WAL
	// record lives in a segment >= the snapshot seq... it does not: the
	// second rotation pruned segment 2. That is exactly the durability
	// contract — the snapshot must be built from live state, and this test's
	// fixture deliberately dropped "post" to prove pruned segments do not
	// resurrect records on their own.
	if _, ok := rec.Sessions["post"]; ok {
		t.Fatal("post survived although the snapshot dropped it and its segment was pruned")
	}
}

// TestSnapshotBitFlipIsCounted flips one byte inside a snapshot frame's
// payload. Recovery must catch it by checksum exactly as it catches WAL
// bit-rot: keep the frames before it, count the cut, and never load the
// flipped value.
func TestSnapshotBitFlipIsCounted(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir, SyncAlways)
	if err := st.Snapshot(func() []Record {
		return []Record{
			{Type: RecSessionCreate, TS: time.Now().UnixNano(), Session: &SessionRecord{ID: "kept"}},
			{Type: RecTurn, Turn: &TurnRecord{SessionID: "kept", Index: 0, Answer: "from snapshot"}},
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "snap", snapName(2))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, []byte("from snapshot"))
	if i < 0 {
		t.Fatalf("snapshot does not hold the turn: %q", data)
	}
	data[i] = 'g'
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	st2, rec, err := Open(Options{Dir: dir, Sync: SyncAlways, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rec.Truncations != 1 {
		t.Fatalf("truncations = %d, want 1", rec.Truncations)
	}
	if got := reg.Counter("chatgraph_replay_truncations_total", "", nil).Value(); got != 1 {
		t.Fatalf("chatgraph_replay_truncations_total = %d, want 1", got)
	}
	s, ok := rec.Sessions["kept"]
	if !ok {
		t.Fatalf("the frame before the flip was lost: %+v", rec.Sessions)
	}
	if len(s.Turns) != 0 {
		t.Fatalf("the flipped turn was loaded: %+v", s.Turns)
	}
}

// TestSnapshotRotationFailureStopsSyncer makes the rotation inside Snapshot
// fail (the next segment's name is taken, so its O_EXCL create fails). The
// store is then closed for good, and closing it must still stop the
// interval syncer.
func TestSnapshotRotationFailureStopsSyncer(t *testing.T) {
	base := runtime.NumGoroutine()
	dir := t.TempDir()
	st, _ := openStore(t, dir, SyncInterval)
	if err := os.WriteFile(filepath.Join(dir, "wal", segName(2)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(func() []Record { return nil }); err == nil {
		t.Fatal("snapshot rotated onto an occupied segment name")
	}
	if err := st.LogSessionCreate("late", time.Now(), ""); err == nil || !strings.Contains(err.Error(), "store closed") {
		t.Fatalf("append after a failed rotation = %v, want store closed", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines after Close = %d, want %d: the syncer leaked", runtime.NumGoroutine(), base)
		}
	}
}

// TestOldSnapshotFormatIsRefused boots over a data dir whose snap/ holds a
// JSON manifest from before snapshots were segment images. Open must name
// the file and leave wal/ and snap/ exactly as they were: replaying the live
// segment alone would lose every session the manifest had pruned.
func TestOldSnapshotFormatIsRefused(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir, SyncAlways)
	if err := st.LogSessionCreate("live", time.Now(), ""); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(dir, "snap", "snap-00000002.json")
	if err := os.WriteFile(old, []byte(`{"version":1,"seq":2,"sessions":[],"graphs":[],"jobs":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// A torn tail on the live segment: a read-on would truncate it.
	seg, err := os.OpenFile(filepath.Join(dir, "wal", segName(1)), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seg.Write([]byte{0x40, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	seg.Close()
	before := treeImage(t, dir)

	if st, _, err := Open(Options{Dir: dir, Metrics: metrics.NewRegistry()}); err == nil {
		st.Close()
		t.Fatal("opened a data dir holding a JSON manifest")
	} else if !strings.Contains(err.Error(), old) {
		t.Fatalf("error %q does not name %s", err, old)
	}
	if after := treeImage(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("data dir changed by a refused Open:\nbefore %v\nafter  %v", before, after)
	}
}

// treeImage maps every file under dir to its contents.
func treeImage(t *testing.T, dir string) map[string]string {
	t.Helper()
	img := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		img[path] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func names(ents []os.DirEntry) []string {
	out := make([]string, len(ents))
	for i, e := range ents {
		out[i] = e.Name()
	}
	return out
}

func TestPersistGraphDedup(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir, SyncAlways)
	defer st.Close()
	g1 := graph.PlantedCommunities(2, 8, 0.5, 0.05, rand.New(rand.NewSource(1)))
	g2 := graph.PlantedCommunities(2, 8, 0.5, 0.05, rand.New(rand.NewSource(1)))
	g3 := graph.PlantedCommunities(3, 9, 0.5, 0.05, rand.New(rand.NewSource(2)))

	sha1, err := st.PersistGraph(g1)
	if err != nil {
		t.Fatal(err)
	}
	// Same content through a distinct instance must land on the same blob.
	sha2, err := st.PersistGraph(g2)
	if err != nil {
		t.Fatal(err)
	}
	sha3, err := st.PersistGraph(g3)
	if err != nil {
		t.Fatal(err)
	}
	if sha1 != sha2 {
		t.Fatalf("same content, different shas: %s vs %s", sha1, sha2)
	}
	if sha1 == sha3 {
		t.Fatalf("different content, same sha %s", sha1)
	}
	ents, err := os.ReadDir(filepath.Join(dir, "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Fatalf("blob files = %v, want 2", names(ents))
	}
}

// TestAppendReplayProperty drives a random event sequence into the store —
// with checkpoints and crash/reopen cycles at random points, some straight
// after a checkpoint and some between two — and checks the replayed state
// always matches a reference State fed the same records. This is the
// append→replay round-trip property the recovery path stands on, for the
// log and the snapshots alike.
func TestAppendReplayProperty(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			dir := t.TempDir()
			st, _ := openStore(t, dir, SyncNone)
			ref := NewState()
			sessions := []string{}
			turnCount := map[string]int{}
			now := time.Now().UnixNano()

			apply := func(rec *Record) {
				if err := st.Append(rec); err != nil {
					t.Fatal(err)
				}
				// Append stamped rec.TS; the reference sees the same record.
				r := *rec
				ref.Apply(&r)
				ref.Records-- // replay count is not part of the property
			}
			// crashedSinceSnap is set by a crash that follows a checkpoint; the
			// next checkpoint then closes a crash between two checkpoints.
			var crashesAfterSnap, crashesBetweenSnaps int
			crashedSinceSnap, snapped := false, false
			crash := func(step int) {
				st.Abort()
				var rec *State
				st, rec = openStore(t, dir, SyncNone)
				compareStates(t, step, ref, rec)
				crashedSinceSnap = crashedSinceSnap || snapped
			}

			for step := 0; step < 300; step++ {
				now += int64(rng.Intn(1000) + 1)
				switch op := rng.Intn(11); {
				case op < 3: // create
					id := fmt.Sprintf("s%d-%d", trial, step)
					sessions = append(sessions, id)
					apply(&Record{Type: RecSessionCreate, TS: now, Session: &SessionRecord{ID: id, CreatedUnixNS: now, Tenant: []string{"", "t"}[step%2]}})
				case op < 6 && len(sessions) > 0: // turn on a random session
					id := sessions[rng.Intn(len(sessions))]
					apply(&Record{Type: RecTurn, TS: now, Turn: &TurnRecord{
						SessionID: id,
						Index:     turnCount[id],
						Question:  fmt.Sprintf("q%d", step),
						Answer:    fmt.Sprintf("a%d", step),
					}})
					turnCount[id]++
				case op < 7 && len(sessions) > 0: // delete
					i := rng.Intn(len(sessions))
					id := sessions[i]
					sessions = append(sessions[:i], sessions[i+1:]...)
					delete(turnCount, id)
					apply(&Record{Type: RecSessionDelete, TS: now, Session: &SessionRecord{ID: id}})
				case op < 8: // job lifecycle, sometimes left non-terminal
					id := fmt.Sprintf("j%d-%d", trial, step)
					apply(&Record{Type: RecJobSubmit, TS: now, Job: &JobRecord{ID: id, Priority: "normal", Question: "q", State: "queued", SubmittedUnixNS: now}})
					if rng.Intn(3) > 0 {
						apply(&Record{Type: RecJobDone, TS: now + 1, Job: &JobRecord{ID: id, Priority: "normal", State: "done", Result: []byte(`{"ok":true}`), FinishedUnixNS: now + 1}})
					}
				case op < 9: // graph record: replay must ignore it, so the reference never sees it
					if err := st.Append(&Record{Type: RecGraph, TS: now, Graph: &GraphRecord{SHA: fmt.Sprintf("%064x", rng.Int63())}}); err != nil {
						t.Fatal(err)
					}
				case op < 10: // checkpoint, sometimes crashing straight after it
					if err := st.Snapshot(func() []Record { return stateRecords(ref) }); err != nil {
						t.Fatal(err)
					}
					if crashedSinceSnap {
						crashesBetweenSnaps++
					}
					crashedSinceSnap, snapped = false, true
					if rng.Intn(2) == 0 {
						crashesAfterSnap++
						crash(step)
					}
				default: // crash (no flush) and reopen mid-stream
					crash(step)
				}
			}
			if crashesAfterSnap == 0 || crashesBetweenSnaps == 0 {
				t.Fatalf("seed reached %d crashes straight after a checkpoint and %d between two; want both", crashesAfterSnap, crashesBetweenSnaps)
			}

			st.Abort()
			st2, rec := openStore(t, dir, SyncNone)
			st2.Close()
			compareStates(t, -1, ref, rec)
		})
	}
}

// stateRecords renders st as the records that recreate it — the checkpoint
// a serving layer holding exactly st would build.
func stateRecords(st *State) []Record {
	var recs []Record
	for _, ss := range st.Sessions {
		recs = append(recs, Record{Type: RecSessionCreate, TS: ss.LastUsed.UnixNano(),
			Session: &SessionRecord{ID: ss.ID, CreatedUnixNS: ss.Created.UnixNano(), Tenant: ss.Tenant}})
		for i := range ss.Turns {
			recs = append(recs, Record{Type: RecTurn, Turn: &ss.Turns[i]})
		}
	}
	for _, j := range st.Jobs {
		typ := RecJobSubmit
		if j.State == "done" {
			typ = RecJobDone
		}
		recs = append(recs, Record{Type: typ, Job: j})
	}
	return recs
}

// compareStates checks the replayed state carries exactly the reference's
// sessions (with owners, clocks and transcripts) and jobs.
func compareStates(t *testing.T, step int, ref, got *State) {
	t.Helper()
	if len(got.Sessions) != len(ref.Sessions) {
		t.Fatalf("step %d: sessions = %d, want %d", step, len(got.Sessions), len(ref.Sessions))
	}
	for id, want := range ref.Sessions {
		g, ok := got.Sessions[id]
		if !ok {
			t.Fatalf("step %d: session %s lost", step, id)
		}
		if !reflect.DeepEqual(g.Turns, want.Turns) {
			t.Fatalf("step %d: session %s turns = %+v, want %+v", step, id, g.Turns, want.Turns)
		}
		if g.Tenant != want.Tenant {
			t.Fatalf("step %d: session %s tenant = %q, want %q", step, id, g.Tenant, want.Tenant)
		}
		if !g.Created.Equal(want.Created) || !g.LastUsed.Equal(want.LastUsed) {
			t.Fatalf("step %d: session %s clocks = %v/%v, want %v/%v", step, id, g.Created, g.LastUsed, want.Created, want.LastUsed)
		}
	}
	if len(got.Jobs) != len(ref.Jobs) {
		t.Fatalf("step %d: jobs = %d, want %d", step, len(got.Jobs), len(ref.Jobs))
	}
	for id, want := range ref.Jobs {
		g, ok := got.Jobs[id]
		if !ok {
			t.Fatalf("step %d: job %s lost", step, id)
		}
		if !reflect.DeepEqual(g, want) {
			t.Fatalf("step %d: job %s = %+v, want %+v", step, id, g, want)
		}
	}
}
