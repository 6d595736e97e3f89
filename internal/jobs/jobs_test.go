package jobs

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"chatgraph/internal/executor"
	"chatgraph/internal/metrics"
)

// newTestManager builds a manager on a private metrics registry and closes
// it when the test ends.
func newTestManager(t *testing.T, opts Options) *Manager {
	t.Helper()
	if opts.Metrics == nil {
		opts.Metrics = metrics.NewRegistry()
	}
	m := New(opts)
	t.Cleanup(m.Close)
	return m
}

// waitTerminal blocks until j finishes or the test deadline passes.
func waitTerminal(t *testing.T, j *Job) Status {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s did not reach a terminal state", j.ID)
	}
	return j.Status()
}

// gate is a task body that blocks until released (or its context dies),
// holding a worker hostage so tests control queue occupancy.
type gate struct {
	release chan struct{}
	once    sync.Once
}

func newGate() *gate { return &gate{release: make(chan struct{})} }

func (g *gate) open() { g.once.Do(func() { close(g.release) }) }

func (g *gate) task(result any) Task {
	return func(ctx context.Context, _ func(executor.Event)) (any, error) {
		select {
		case <-g.release:
			return result, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func TestJobLifecycle(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1})
	j, err := m.Submit(PriorityNormal, func(ctx context.Context, emit func(executor.Event)) (any, error) {
		emit(executor.Event{Type: executor.EventChainStart, StepIndex: -1})
		emit(executor.Event{Type: executor.EventChainDone, StepIndex: -1, Text: "42"})
		return "42", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j)
	if st.State != StateDone {
		t.Fatalf("state = %v, want done (err %v)", st.State, st.Err)
	}
	if st.Result != "42" || st.Events != 2 || st.Err != nil {
		t.Fatalf("status = %+v", st)
	}
	if st.Started.IsZero() || st.Finished.IsZero() || st.Finished.Before(st.Started) {
		t.Fatalf("timestamps = started %v finished %v", st.Started, st.Finished)
	}
	evs, state, _ := j.EventsSince(0)
	if len(evs) != 2 || state != StateDone {
		t.Fatalf("EventsSince = %d events, state %v", len(evs), state)
	}
	if got, ok := m.Get(j.ID); !ok || got != j {
		t.Fatal("Get did not return the stored job")
	}
}

func TestPriorityFIFO(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1, QueueDepth: 16})
	blocker := newGate()
	block, err := m.Submit(PriorityNormal, blocker.task(nil))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker holds the blocker so everything below queues in
	// submission order.
	for block.Status().State != StateRunning {
		time.Sleep(time.Millisecond)
	}

	var mu sync.Mutex
	var order []string
	record := func(name string) Task {
		return func(context.Context, func(executor.Event)) (any, error) {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			return name, nil
		}
	}
	var last *Job
	for _, sub := range []struct {
		pri  Priority
		name string
	}{
		{PriorityLow, "low1"},
		{PriorityNormal, "normal1"},
		{PriorityHigh, "high1"},
		{PriorityLow, "low2"},
		{PriorityHigh, "high2"},
		{PriorityNormal, "normal2"},
	} {
		j, err := m.Submit(sub.pri, record(sub.name))
		if err != nil {
			t.Fatal(err)
		}
		last = j
	}
	blocker.open()
	// low2 runs last of the records; waiting on the final low job is not
	// enough (low2 was submitted before normal2), so wait for all.
	waitTerminal(t, last)
	for m.QueueLen() > 0 || m.busy.Load() > 0 {
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"high1", "high2", "normal1", "normal2", "low1", "low2"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestQueueFullSheds(t *testing.T) {
	reg := metrics.NewRegistry()
	m := newTestManager(t, Options{Workers: 1, QueueDepth: 2, Metrics: reg})
	blocker := newGate()
	first, err := m.Submit(PriorityNormal, blocker.task(nil))
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to hold first so the queue is provably empty.
	for first.Status().State != StateRunning {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 2; i++ {
		if _, err := m.Submit(PriorityNormal, blocker.task(nil)); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	if _, err := m.Submit(PriorityNormal, blocker.task(nil)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit err = %v, want ErrQueueFull", err)
	}
	if got := reg.Counter("chatgraph_jobs_shed_total", "", nil).Value(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
	blocker.open()
	// Once the backlog drains, the queue accepts again.
	for m.QueueLen() > 0 {
		time.Sleep(time.Millisecond)
	}
	j, err := m.Submit(PriorityNormal, blocker.task("ok"))
	if err != nil {
		t.Fatalf("post-drain submit: %v", err)
	}
	if st := waitTerminal(t, j); st.State != StateDone {
		t.Fatalf("post-drain job state = %v", st.State)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1})
	blocker := newGate()
	defer blocker.open()
	first, err := m.Submit(PriorityNormal, blocker.task(nil))
	if err != nil {
		t.Fatal(err)
	}
	for first.Status().State != StateRunning {
		time.Sleep(time.Millisecond)
	}
	queued, err := m.Submit(PriorityNormal, blocker.task(nil))
	if err != nil {
		t.Fatal(err)
	}
	st, ok := m.Cancel(queued.ID)
	if !ok || st != StateCancelled {
		t.Fatalf("Cancel = %v, %v", st, ok)
	}
	if m.QueueLen() != 0 {
		t.Fatalf("queue len = %d after cancelling the only queued job", m.QueueLen())
	}
	got := waitTerminal(t, queued)
	if got.State != StateCancelled || !errors.Is(got.Err, context.Canceled) {
		t.Fatalf("status = %+v", got)
	}
	if !got.Started.IsZero() {
		t.Fatal("cancelled-while-queued job reports a start time")
	}
	if _, ok := m.Cancel("nope"); ok {
		t.Fatal("Cancel of unknown ID reported ok")
	}
}

func TestCancelRunningJob(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1})
	started := make(chan struct{})
	j, err := m.Submit(PriorityHigh, func(ctx context.Context, _ func(executor.Event)) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if st, ok := m.Cancel(j.ID); !ok || st != StateRunning {
		t.Fatalf("Cancel = %v, %v (want running, true)", st, ok)
	}
	got := waitTerminal(t, j)
	if got.State != StateCancelled || !errors.Is(got.Err, context.Canceled) {
		t.Fatalf("status = %+v", got)
	}
	// Cancelling a terminal job is a no-op that reports the settled state.
	if st, ok := m.Cancel(j.ID); !ok || st != StateCancelled {
		t.Fatalf("re-Cancel = %v, %v", st, ok)
	}
}

func TestFailedJob(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1})
	boom := errors.New("boom")
	j, err := m.Submit(PriorityNormal, func(context.Context, func(executor.Event)) (any, error) {
		return nil, boom
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j); st.State != StateFailed || !errors.Is(st.Err, boom) {
		t.Fatalf("status = %+v", st)
	}
}

func TestPanickingJobFailsWithoutKillingWorker(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1})
	j, err := m.Submit(PriorityNormal, func(context.Context, func(executor.Event)) (any, error) {
		panic("kaboom")
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j); st.State != StateFailed {
		t.Fatalf("state = %v", st.State)
	}
	// The pool's single worker must survive the panic.
	ok, err := m.Submit(PriorityNormal, func(context.Context, func(executor.Event)) (any, error) {
		return "alive", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, ok); st.State != StateDone || st.Result != "alive" {
		t.Fatalf("post-panic job = %+v", st)
	}
}

func TestRetentionCountBound(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1, Retention: time.Hour})
	var ids []string
	for i := 0; i < maxFinished+3; i++ {
		j, err := m.Submit(PriorityNormal, func(context.Context, func(executor.Event)) (any, error) {
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)
		ids = append(ids, j.ID)
	}
	if n := m.Len(); n != maxFinished {
		t.Fatalf("retained = %d, want %d", n, maxFinished)
	}
	for _, id := range ids[:3] {
		if _, ok := m.Get(id); ok {
			t.Fatalf("evicted job %s still readable", id)
		}
	}
	for _, id := range ids[3:] {
		if _, ok := m.Get(id); !ok {
			t.Fatalf("recent job %s evicted too early", id)
		}
	}
}

func TestRetentionTTL(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1, Retention: 20 * time.Millisecond})
	j, err := m.Submit(PriorityNormal, func(context.Context, func(executor.Event)) (any, error) {
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	if _, ok := m.Get(j.ID); !ok {
		t.Fatal("finished job evicted before its TTL")
	}
	time.Sleep(40 * time.Millisecond)
	if evicted := m.Sweep(); evicted != 1 {
		t.Fatalf("Sweep = %d, want 1", evicted)
	}
	if _, ok := m.Get(j.ID); ok {
		t.Fatal("expired job still readable after Sweep")
	}
}

func TestCloseCancelsQueuedAndRunning(t *testing.T) {
	m := New(Options{Workers: 1, Metrics: metrics.NewRegistry()})
	blocker := newGate()
	running, err := m.Submit(PriorityNormal, blocker.task(nil))
	if err != nil {
		t.Fatal(err)
	}
	for running.Status().State != StateRunning {
		time.Sleep(time.Millisecond)
	}
	queued, err := m.Submit(PriorityNormal, blocker.task(nil))
	if err != nil {
		t.Fatal(err)
	}
	m.Close() // blocks until the worker exits
	if st := running.Status(); st.State != StateCancelled {
		t.Fatalf("running job state after Close = %v", st.State)
	}
	if st := queued.Status(); st.State != StateCancelled {
		t.Fatalf("queued job state after Close = %v", st.State)
	}
	if _, err := m.Submit(PriorityNormal, blocker.task(nil)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close err = %v, want ErrClosed", err)
	}
	// The store stays readable for post-mortem polling.
	if _, ok := m.Get(running.ID); !ok {
		t.Fatal("job store unreadable after Close")
	}
}

// TestEventsSinceTail exercises the live-tail contract: a waiter blocked on
// the changed channel wakes for each append and observes a consistent
// (events, state) pair.
func TestEventsSinceTail(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1})
	step := make(chan struct{})
	j, err := m.Submit(PriorityNormal, func(ctx context.Context, emit func(executor.Event)) (any, error) {
		for i := 0; i < 3; i++ {
			<-step
			emit(executor.Event{Type: executor.EventStepDone, StepIndex: i})
		}
		return "tailed", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	deadline := time.After(10 * time.Second)
	for {
		evs, state, changed := j.EventsSince(seen)
		seen += len(evs)
		if state.Terminal() {
			break
		}
		select {
		case step <- struct{}{}:
			// Fed the task one step; loop to collect its event.
		default:
		}
		if seen == 3 {
			// All events collected; nothing left but the terminal flip.
			select {
			case <-changed:
			case <-deadline:
				t.Fatal("tail never observed the terminal transition")
			}
		}
	}
	if seen != 3 {
		t.Fatalf("tailed %d events, want 3", seen)
	}
}
