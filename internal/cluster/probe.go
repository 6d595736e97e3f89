package cluster

import (
	"io"
	"net/http"
	"sync"
	"time"
)

// Prober actively health-checks the pool: every interval each up backend
// gets one readiness probe (GET /readyz), and each down backend whose
// cooldown has expired gets one half-open recovery probe. A backend is
// routable only while /readyz answers 200: a daemon answers it only while
// it is alive, and answers 200 only once recovery has landed, so a daemon
// still replaying its WAL (readyz 503) stays out of rotation instead of
// shedding 503s at clients.
type Prober struct {
	pool     *Pool
	interval time.Duration
	client   *http.Client

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewProber builds a prober over pool. interval ≤ 0 → 1s; timeout ≤ 0 →
// 2s per probe request.
func NewProber(pool *Pool, interval, timeout time.Duration) *Prober {
	if interval <= 0 {
		interval = time.Second
	}
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	return &Prober{
		pool:     pool,
		interval: interval,
		// Its own transport, so that Stop can close the connections it
		// keeps without touching the process-wide default.
		client: &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone(), Timeout: timeout},
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// Start launches the probe loop. The first round runs immediately, so a
// healthy pool becomes routable after one round-trip, not one interval.
func (p *Prober) Start() {
	go func() {
		defer close(p.done)
		p.ProbeOnce()
		ticker := time.NewTicker(p.interval)
		defer ticker.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-ticker.C:
				p.ProbeOnce()
			}
		}
	}()
}

// Stop terminates the probe loop, waits for it to exit, and closes the
// probe connections left idle.
func (p *Prober) Stop() {
	p.stopOnce.Do(func() { close(p.stop) })
	<-p.done
	p.client.CloseIdleConnections()
}

// ProbeOnce runs one probe round over every backend. Up backends are
// re-verified; down backends past their cooldown get the half-open
// recovery probe. Exported so tests (and a router that wants a synchronous
// first look) can drive rounds directly.
func (p *Prober) ProbeOnce() {
	now := time.Now()
	for _, b := range p.pool.Backends() {
		switch b.State() {
		case StateUp:
			if p.probe(b) {
				b.MarkSuccess()
			} else {
				b.MarkFailure()
			}
		case StateDown:
			if !b.BeginProbe(now) {
				continue // still cooling down
			}
			fallthrough
		case StateHalfOpen:
			if p.probe(b) {
				b.MarkSuccess()
			} else {
				b.MarkFailure()
			}
		}
	}
}

// probe asks one backend whether it is ready: GET /readyz must answer 200.
func (p *Prober) probe(b *Backend) bool {
	resp, err := p.client.Get(b.URL.String() + "/readyz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}
