package jobs

import (
	"runtime"
	"testing"
	"time"

	"chatgraph/internal/metrics"
)

// TestCloseLeaksNoGoroutines: Close with running jobs and a queued one
// returns, and the goroutine count falls back to what it was before the
// manager was built.
func TestCloseLeaksNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	m := New(Options{Workers: 2, Metrics: metrics.NewRegistry()})
	blocker := newGate()
	var jobs []*Job
	for i := 0; i < 2; i++ {
		j, err := m.Submit(PriorityNormal, blocker.task(nil))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		for j.Status().State != StateRunning {
			time.Sleep(time.Millisecond)
		}
	}
	j, err := m.Submit(PriorityNormal, blocker.task(nil))
	if err != nil {
		t.Fatal(err)
	}
	if st := j.Status(); st.State != StateQueued {
		t.Fatalf("third job is %v with both workers busy, want queued", st.State)
	}
	jobs = append(jobs, j)

	closed := make(chan struct{})
	go func() { m.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
	for _, j := range jobs {
		if st := j.Status(); !st.State.Terminal() {
			t.Fatalf("job %s is %v after Close", j.ID, st.State)
		}
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines after Close = %d, want %d: a worker leaked", runtime.NumGoroutine(), base)
		}
	}
}
