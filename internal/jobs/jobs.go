// Package jobs runs heavy analytics chains asynchronously: a bounded,
// priority-ordered worker pool plus a job store, the escape hatch from the
// serving layer's per-request deadline. A chain too heavy for the
// synchronous chat path — betweenness on a huge graph, an all-pairs
// eccentricity sweep, large clique enumeration — is submitted as a job,
// answered immediately with an ID, and executed by the pool through the
// same executor the chat path uses; callers poll or tail the job instead of
// holding an HTTP request open.
//
// Semantics, in order of importance:
//
//   - Bounded. The queue has a fixed depth; Submit on a full queue returns
//     ErrQueueFull, which the HTTP layer surfaces as 429 — the same
//     backpressure contract as the admission gate, applied to deferred work.
//   - Priority FIFO. Three priorities (high/normal/low); a worker always
//     takes the oldest job of the highest non-empty priority, so submission
//     order is preserved within a priority and starvation is only ever
//     inflicted by higher-priority load.
//   - Cancellable. Every job runs under its own context.Context. Cancelling
//     a queued job removes it from the queue immediately; cancelling a
//     running job cancels its context, which the executor honors between
//     steps (emitting EventCancelled) — the worker is freed and the job
//     lands in StateCancelled.
//   - Observable. Per-step executor events are persisted on the job as they
//     happen; EventsSince supports both replay (finished jobs) and live
//     tailing (running jobs) through one API. State transitions, queue
//     depth, busy workers, durations, and queue waits are instrumented.
//   - Retained, then forgotten. Finished jobs stay queryable under a TTL
//     and a max-count bound, whichever evicts first, so the store cannot
//     grow without bound under sustained traffic.
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"chatgraph/internal/executor"
	"chatgraph/internal/metrics"
)

// State is a job's lifecycle position: Queued → Running → one of the three
// terminal states.
type State int32

const (
	// StateQueued means the job is waiting for a worker.
	StateQueued State = iota
	// StateRunning means a worker is executing the job.
	StateRunning
	// StateDone means the job finished successfully.
	StateDone
	// StateFailed means the job's task returned an error.
	StateFailed
	// StateCancelled means the job was cancelled before or during execution.
	StateCancelled
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s >= StateDone }

// String names the state for the wire and for transcripts.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCancelled:
		return "cancelled"
	default:
		return "unknown"
	}
}

// Priority orders jobs in the queue. Higher values are served first; FIFO
// within a priority.
type Priority int

const (
	// PriorityLow is for best-effort background sweeps.
	PriorityLow Priority = iota
	// PriorityNormal is the default.
	PriorityNormal
	// PriorityHigh jumps the queue ahead of normal and low work.
	PriorityHigh
	numPriorities = 3
)

// String names the priority for the wire.
func (p Priority) String() string {
	switch p {
	case PriorityLow:
		return "low"
	case PriorityNormal:
		return "normal"
	case PriorityHigh:
		return "high"
	default:
		return "unknown"
	}
}

// ParseState inverts State.String; ok is false for unrecognized names.
func ParseState(s string) (State, bool) {
	switch s {
	case "queued":
		return StateQueued, true
	case "running":
		return StateRunning, true
	case "done":
		return StateDone, true
	case "failed":
		return StateFailed, true
	case "cancelled":
		return StateCancelled, true
	default:
		return 0, false
	}
}

// ParsePriority reads a wire priority; the empty string is PriorityNormal.
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "", "normal":
		return PriorityNormal, nil
	case "low":
		return PriorityLow, nil
	case "high":
		return PriorityHigh, nil
	default:
		return 0, fmt.Errorf("jobs: unknown priority %q (want low, normal, or high)", s)
	}
}

// Task is one job's work. It must honor ctx (the executor does so between
// chain steps) and may call emit to persist progress events on the job; the
// returned result is stored on the job for pollers.
type Task func(ctx context.Context, emit func(executor.Event)) (result any, err error)

// ErrQueueFull is returned by Submit when the queue is at capacity — the
// caller should shed (HTTP 429) and retry later.
var ErrQueueFull = errors.New("jobs: queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("jobs: manager closed")

// ErrDuplicateID is returned by SubmitOwned when the pinned job ID is
// already stored (queued, running, or retained finished).
var ErrDuplicateID = errors.New("jobs: job id already exists")

// Job is one submitted task plus its full lifecycle record. All mutable
// fields are guarded by mu; ID, Priority, task, ctx, and cancel are set at
// submission and never change.
type Job struct {
	// ID is the random identifier handed back to the submitter.
	ID string
	// Owner names the tenant the job was submitted under; the serving
	// layer answers cross-tenant access as if the job did not exist.
	// Empty means the anonymous tenant (pre-tenancy records).
	Owner string
	// Priority is the queue class the job was submitted under.
	Priority Priority

	task   Task
	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	state     State
	submitted time.Time
	started   time.Time
	finished  time.Time
	events    []executor.Event
	result    any
	err       error
	// changed is closed and replaced on every state transition and event
	// append — the broadcast primitive live tails select on (a sync.Cond
	// cannot be waited on together with a context).
	changed chan struct{}
	// done is closed exactly once, on the terminal transition.
	done chan struct{}
}

// Status is a point-in-time copy of a job's externally visible state.
type Status struct {
	ID        string
	Owner     string
	Priority  Priority
	State     State
	Submitted time.Time
	// Started is zero while the job is still queued (or was cancelled
	// before running); Finished is zero until the terminal transition.
	Started  time.Time
	Finished time.Time
	// Events is how many progress events have been persisted so far.
	Events int
	// Result is the task's return value once State is StateDone.
	Result any
	// Err is set for StateFailed and StateCancelled.
	Err error
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID:        j.ID,
		Owner:     j.Owner,
		Priority:  j.Priority,
		State:     j.state,
		Submitted: j.submitted,
		Started:   j.started,
		Finished:  j.finished,
		Events:    len(j.events),
		Result:    j.result,
		Err:       j.err,
	}
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// EventsSince returns the persisted events from index n on, the current
// state, and a channel closed on the next change (event append or state
// transition). The triple is read atomically, so a tail loop — write
// events, stop if terminal, otherwise wait on changed — never misses an
// event and never busy-polls.
func (j *Job) EventsSince(n int) (events []executor.Event, state State, changed <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if n < 0 {
		n = 0
	}
	if n < len(j.events) {
		events = append(events, j.events[n:]...)
	}
	return events, j.state, j.changed
}

// notifyLocked broadcasts a change to every waiter. Callers hold j.mu.
func (j *Job) notifyLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// Defaults applied by New when Options fields are zero.
const (
	DefaultWorkers    = 2
	DefaultQueueDepth = 64
	DefaultRetention  = 15 * time.Minute
)

// maxFinished caps retained finished jobs regardless of age.
const maxFinished = 256

// DurationBuckets are the job-duration histogram bounds in seconds. Jobs
// exist precisely because work can outlive the request deadline, so the
// range extends to ten minutes where request latencies stop at ten seconds.
var DurationBuckets = []float64{
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300, 600,
}

// Options tunes a Manager. The zero value gets working defaults.
type Options struct {
	// Workers is the pool size (0 → DefaultWorkers).
	Workers int
	// QueueDepth caps queued (not yet running) jobs; Submit beyond it
	// returns ErrQueueFull (0 → DefaultQueueDepth).
	QueueDepth int
	// Retention is how long finished jobs stay queryable (0 →
	// DefaultRetention).
	Retention time.Duration
	// Metrics is the registry the pool instruments into (nil →
	// metrics.Default()).
	Metrics *metrics.Registry
	// OnTerminal, when set, observes every live terminal transition (done,
	// failed, cancelled) with the job's settled status — the durability
	// layer's hook. It is invoked after the manager's and job's locks are
	// released, so it may call back into the Manager freely. Jobs inserted
	// via Restore are not re-observed.
	OnTerminal func(Status)
}

// Manager owns the worker pool, the priority queue, and the job store.
type Manager struct {
	opts Options

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup

	mu sync.Mutex
	// cond is signalled on every enqueue and broadcast on Close; workers
	// wait on it when all queues are empty.
	cond *sync.Cond
	// queues hold only StateQueued jobs, FIFO per priority — Cancel and
	// Close remove a job from its queue in the same critical section that
	// marks it cancelled, so a popped job is always runnable.
	queues [numPriorities][]*Job
	queued int
	jobs   map[string]*Job
	// finished is every terminal job in finish order — the retention
	// sweep's eviction queue.
	finished []*Job
	closed   bool

	busy atomic.Int64
	met  *managerMetrics
}

// New starts a Manager and its workers.
func New(opts Options) *Manager {
	if opts.Workers <= 0 {
		opts.Workers = DefaultWorkers
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = DefaultQueueDepth
	}
	if opts.Retention <= 0 {
		opts.Retention = DefaultRetention
	}
	reg := opts.Metrics
	if reg == nil {
		reg = metrics.Default()
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		opts:    opts,
		baseCtx: ctx,
		stop:    cancel,
		jobs:    make(map[string]*Job),
		met:     newManagerMetrics(reg),
	}
	m.cond = sync.NewCond(&m.mu)
	// Pool gauges read the manager's own bookkeeping at scrape time.
	reg.GaugeFunc("chatgraph_jobs_queue_depth",
		"Jobs waiting for a worker.", nil,
		func() float64 { return float64(m.QueueLen()) })
	reg.GaugeFunc("chatgraph_jobs_workers_busy",
		"Workers currently executing a job.", nil,
		func() float64 { return float64(m.busy.Load()) })
	reg.GaugeFunc("chatgraph_jobs_retained",
		"Jobs held in the store (queued, running, and retained finished).", nil,
		func() float64 { return float64(m.Len()) })
	for i := 0; i < opts.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Submit enqueues task at the given priority under a minted ID with no
// owner, returning the stored Job. A full queue returns ErrQueueFull; a
// closed manager returns ErrClosed.
func (m *Manager) Submit(pri Priority, task Task) (*Job, error) {
	return m.SubmitOwned("", "", pri, task)
}

// SubmitOwned is Submit under a caller-chosen job ID with the owning
// tenant's name recorded on the job; ownership decides who may poll, stream,
// or cancel it. The pinned ID is the hook a cluster router uses to make job
// identity routable: the router mints an ID whose rendezvous hash selects
// the placement backend, so every later poll or cancel for that ID hashes
// back to the owning backend with no lookup table. An empty id mints a
// random one; a duplicate id returns ErrDuplicateID.
func (m *Manager) SubmitOwned(id, owner string, pri Priority, task Task) (*Job, error) {
	if pri < PriorityLow || pri > PriorityHigh {
		pri = PriorityNormal
	}
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	if m.queued >= m.opts.QueueDepth {
		m.met.shed.Inc()
		return nil, ErrQueueFull
	}
	if id == "" {
		id = newJobID()
	} else if _, exists := m.jobs[id]; exists {
		return nil, ErrDuplicateID
	}
	ctx, cancel := context.WithCancel(m.baseCtx)
	j := &Job{
		ID:        id,
		Owner:     owner,
		Priority:  pri,
		task:      task,
		ctx:       ctx,
		cancel:    cancel,
		state:     StateQueued,
		submitted: now,
		changed:   make(chan struct{}),
		done:      make(chan struct{}),
	}
	m.jobs[j.ID] = j
	m.queues[pri] = append(m.queues[pri], j)
	m.queued++
	m.met.submitted.Inc()
	m.sweepLocked(now)
	m.cond.Signal()
	return j, nil
}

// Get returns the stored job with the given ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// All snapshots every stored job's status, in no particular order.
func (m *Manager) All() []Status {
	m.mu.Lock()
	js := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		js = append(js, j)
	}
	m.mu.Unlock()
	out := make([]Status, len(js))
	for i, j := range js {
		out[i] = j.Status()
	}
	return out
}

// Cancel cancels the job with the given ID and returns its state after the
// call: a queued job transitions to StateCancelled immediately; a running
// job has its context cancelled and reports StateRunning until the worker
// observes the cancellation; a terminal job is left untouched. ok is false
// for unknown IDs.
func (m *Manager) Cancel(id string) (State, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return 0, false
	}
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		m.unqueueLocked(j)
		j.err = context.Canceled
		m.finishLocked(j, StateCancelled)
		j.mu.Unlock()
		m.mu.Unlock()
		j.cancel()
		m.observeTerminal(j)
		return StateCancelled, true
	case StateRunning:
		j.mu.Unlock()
		m.mu.Unlock()
		j.cancel()
		return StateRunning, true
	default:
		st := j.state
		j.mu.Unlock()
		m.mu.Unlock()
		return st, true
	}
}

// Sweep evicts finished jobs past the retention TTL (the count bound is
// enforced eagerly on every finish). Submission and completion already
// sweep; long-lived daemons may also call this from a janitor so idle
// processes release memory without waiting for traffic.
func (m *Manager) Sweep() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	before := len(m.finished)
	m.sweepLocked(time.Now())
	return before - len(m.finished)
}

// QueueLen reports how many jobs are waiting for a worker.
func (m *Manager) QueueLen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.queued
}

// Len reports how many jobs the store holds (queued, running, and retained
// finished).
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.jobs)
}

// Close stops the pool: queued jobs are cancelled, running jobs have their
// contexts cancelled, and Close blocks until every worker has exited.
// Subsequent Submits return ErrClosed; the store remains readable.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	var cancelled []*Job
	for pri := range m.queues {
		for _, j := range m.queues[pri] {
			j.mu.Lock()
			j.err = context.Canceled
			m.finishLocked(j, StateCancelled)
			j.mu.Unlock()
			j.cancel()
			cancelled = append(cancelled, j)
		}
		m.queues[pri] = nil
	}
	m.queued = 0
	m.cond.Broadcast()
	m.mu.Unlock()
	for _, j := range cancelled {
		m.observeTerminal(j)
	}
	m.stop()
	m.wg.Wait()
}

// worker is one pool goroutine: pop the best queued job, run it, repeat.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		j := m.next()
		if j == nil {
			return
		}
		m.run(j)
	}
}

// next blocks until a job is available (returning it marked Running) or the
// manager closes (returning nil).
func (m *Manager) next() *Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		for pri := numPriorities - 1; pri >= 0; pri-- {
			q := m.queues[pri]
			if len(q) == 0 {
				continue
			}
			j := q[0]
			q[0] = nil
			m.queues[pri] = q[1:]
			if len(m.queues[pri]) == 0 {
				m.queues[pri] = nil
			}
			m.queued--
			j.mu.Lock()
			j.state = StateRunning
			j.started = time.Now()
			j.notifyLocked()
			j.mu.Unlock()
			m.met.queueWait.Observe(j.started.Sub(j.submitted).Seconds())
			return j
		}
		if m.closed {
			return nil
		}
		m.cond.Wait()
	}
}

// run executes one job and records its terminal transition.
func (m *Manager) run(j *Job) {
	m.busy.Add(1)
	defer m.busy.Add(-1)
	emit := func(e executor.Event) {
		j.mu.Lock()
		j.events = append(j.events, e)
		j.notifyLocked()
		j.mu.Unlock()
	}
	res, err := runTask(j, emit)
	st := StateDone
	switch {
	case err == nil:
		st = StateDone
	case j.ctx.Err() != nil || errors.Is(err, context.Canceled):
		// The job's context died (Cancel or Close) and the task surfaced
		// it — the executor's EventCancelled path ends up here.
		st = StateCancelled
	default:
		st = StateFailed
	}
	m.mu.Lock()
	j.mu.Lock()
	j.result, j.err = res, err
	m.finishLocked(j, st)
	j.mu.Unlock()
	m.mu.Unlock()
	// Release the context's resources now that nothing can cancel it.
	j.cancel()
	m.observeTerminal(j)
}

// observeTerminal fires the OnTerminal hook with j's settled status. Always
// called with no manager or job locks held — the hook may call back into
// the Manager (Get, All, even Submit) without deadlocking.
func (m *Manager) observeTerminal(j *Job) {
	if m.opts.OnTerminal != nil {
		m.opts.OnTerminal(j.Status())
	}
}

// Restore inserts a job recovered from the durability layer: a settled
// record with no task, context, or queue presence. st must be terminal.
// Restored jobs are fully queryable (Status, EventsSince replay, Cancel
// no-op) and are retention-swept like any finished job, but they do not
// fire OnTerminal and do not count in the outcome metrics — both already
// happened in a previous incarnation. ok is false if the ID is already
// present, the state is non-terminal, or the manager is closed.
func (m *Manager) Restore(id, owner string, pri Priority, st State, submitted, started, finished time.Time, result any, jerr error) bool {
	if !st.Terminal() || id == "" {
		return false
	}
	if pri < PriorityLow || pri > PriorityHigh {
		pri = PriorityNormal
	}
	j := &Job{
		ID:        id,
		Owner:     owner,
		Priority:  pri,
		state:     st,
		submitted: submitted,
		started:   started,
		finished:  finished,
		result:    result,
		err:       jerr,
		changed:   make(chan struct{}),
		done:      make(chan struct{}),
	}
	close(j.done)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	if _, exists := m.jobs[id]; exists {
		return false
	}
	m.jobs[id] = j
	// m.finished must stay in finish order for the sweep's eviction-from-
	// the-front scan; recovery restores jobs sorted by finish time before
	// any live job can finish, so append preserves the invariant.
	m.finished = append(m.finished, j)
	return true
}

// runTask isolates the task call so a panicking job fails instead of
// killing its worker (and with it the whole pool's capacity).
func runTask(j *Job, emit func(executor.Event)) (res any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("jobs: job %s panicked: %v", j.ID, r)
		}
	}()
	return j.task(j.ctx, emit)
}

// finishLocked records j's terminal transition: state, finish time, outcome
// metrics, the retention queue, and the done broadcast. Callers hold both
// m.mu and j.mu (in that order), so every write to j.finished happens under
// both locks and readers may hold either.
func (m *Manager) finishLocked(j *Job, st State) {
	now := time.Now()
	j.state = st
	j.finished = now
	j.notifyLocked()
	close(j.done)
	m.finished = append(m.finished, j)
	m.met.outcome(st).Inc()
	if !j.started.IsZero() {
		m.met.duration.Observe(now.Sub(j.started).Seconds())
	}
	m.sweepLocked(now)
}

// unqueueLocked removes a queued job from its priority queue. Caller holds
// m.mu; the O(depth) scan is bounded by QueueDepth.
func (m *Manager) unqueueLocked(j *Job) {
	q := m.queues[j.Priority]
	for i, cand := range q {
		if cand == j {
			copy(q[i:], q[i+1:])
			q[len(q)-1] = nil
			m.queues[j.Priority] = q[:len(q)-1]
			m.queued--
			return
		}
	}
}

// sweepLocked evicts finished jobs beyond the count bound or past the TTL.
// m.finished is in finish order, so eviction only ever eats from the front.
func (m *Manager) sweepLocked(now time.Time) {
	idx := 0
	for idx < len(m.finished) &&
		(len(m.finished)-idx > maxFinished ||
			now.Sub(m.finished[idx].finished) > m.opts.Retention) {
		delete(m.jobs, m.finished[idx].ID)
		m.finished[idx] = nil
		idx++
	}
	if idx > 0 {
		m.finished = append(m.finished[:0], m.finished[idx:]...)
	}
}

// newJobID returns a 96-bit random hex job identifier.
func newJobID() string {
	b := make([]byte, 12)
	if _, err := rand.Read(b); err != nil {
		// crypto/rand never fails on supported platforms; panic beats
		// silently handing out colliding IDs.
		panic(fmt.Sprintf("jobs: id entropy: %v", err))
	}
	return hex.EncodeToString(b)
}
