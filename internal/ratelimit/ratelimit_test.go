package ratelimit

import (
	"testing"
	"time"
)

// TestBucketArithmetic pins the three properties every limiter layer relies
// on: the advertised retry-after is the real refill wait, refill never
// exceeds burst, and a timestamp older than the last one seen neither
// refills nor rewinds the clock.
func TestBucketArithmetic(t *testing.T) {
	var b Bucket
	t0 := time.Unix(1000, 0)
	for i := 0; i < 3; i++ {
		if ok, _ := b.Take(2, 3, t0); !ok {
			t.Fatalf("take %d from a full burst-3 bucket failed", i)
		}
	}
	ok, retry := b.Take(2, 3, t0)
	if ok || retry != 500*time.Millisecond {
		t.Fatalf("empty bucket at 2 rps: ok=%v retry=%v, want false, 500ms", ok, retry)
	}
	// Waiting exactly the advertised time yields exactly one token.
	if ok, _ := b.Take(2, 3, t0.Add(retry)); !ok {
		t.Fatal("no token after the advertised retry-after")
	}
	if ok, _ := b.Take(2, 3, t0.Add(retry)); ok {
		t.Fatal("the advertised wait refilled more than one token")
	}

	// Burst cap: an hour idle refills to burst, not to rate × elapsed.
	t1 := t0.Add(time.Hour)
	for i := 0; i < 3; i++ {
		if ok, _ := b.Take(2, 3, t1); !ok {
			t.Fatalf("take %d after a long idle failed", i)
		}
	}
	if ok, _ := b.Take(2, 3, t1); ok {
		t.Fatal("bucket refilled past its burst")
	}

	// Forward-only clock: an earlier timestamp must not refill, and must
	// not rewind last — or the following take would refill t0..t1 again.
	if ok, _ := b.Take(2, 3, t0); ok {
		t.Fatal("a stale timestamp refilled the bucket")
	}
	if ok, _ := b.Take(2, 3, t1); ok {
		t.Fatal("a stale timestamp rewound the clock: the same interval refilled twice")
	}
}

func TestBurstDefault(t *testing.T) {
	for _, tc := range []struct {
		configured int
		rate, want float64
	}{
		{5, 100, 5},   // configured wins
		{0, 2.5, 3},   // one second's worth, rounded up
		{0, 0.25, 1},  // never below 1
		{-1, 0.25, 1}, // non-positive means unset
	} {
		if got := Burst(tc.configured, tc.rate); got != tc.want {
			t.Errorf("Burst(%d, %v) = %v, want %v", tc.configured, tc.rate, got, tc.want)
		}
	}
}
