// Package ratelimit is the serving tier's one rate limiter: a
// continuous-refill token bucket. The per-tenant and global (-max-rps)
// limits both hold a Bucket and differ only in the rate and burst they pass
// to Take, so both layers share one arithmetic and one retry-after answer.
package ratelimit

import (
	"math"
	"sync"
	"time"
)

// Bucket is a continuous-refill token bucket; the zero value is a full
// bucket. The mutex is per-bucket, so limits on different tenants never
// contend with each other.
type Bucket struct {
	mu     sync.Mutex
	tokens float64
	last   time.Time
	primed bool
}

// Take removes one token, refilling at rate tokens/sec up to burst. When the
// bucket is empty it reports how long until a token is available.
func (b *Bucket) Take(rate, burst float64, now time.Time) (ok bool, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.primed {
		b.tokens = burst
		b.last = now
		b.primed = true
	}
	// Refill and advance the clock only for forward time: now is read
	// before the mutex is taken, so a late-arriving earlier timestamp must
	// not rewind last (that would refill the same interval twice).
	if elapsed := now.Sub(b.last).Seconds(); elapsed > 0 {
		b.tokens = math.Min(burst, b.tokens+elapsed*rate)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / rate * float64(time.Second))
}

// Burst resolves a configured bucket capacity: a positive value is used as
// is, and 0 defaults to one second's worth of tokens, never less than 1.
func Burst(configured int, rate float64) float64 {
	if configured > 0 {
		return float64(configured)
	}
	return math.Max(1, math.Ceil(rate))
}
