package tenant

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func mustLoad(t *testing.T, cfg string) *Registry {
	t.Helper()
	r, err := Load([]byte(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

const twoTenantCfg = `{
  "tenants": [
    {"name": "compliant", "keys": ["ck-1", "ck-2"], "weight": 3, "rps": 30},
    {"name": "hostile", "keys": ["hk-1"], "weight": 1, "rps": 10, "burst": 2}
  ]
}`

func TestResolve(t *testing.T) {
	r := mustLoad(t, twoTenantCfg)

	got, err := r.Resolve("ck-2")
	if err != nil || got.Name != "compliant" {
		t.Fatalf("Resolve(ck-2) = %v, %v", got, err)
	}
	got, err = r.Resolve("")
	if err != nil || got.Name != AnonymousName {
		t.Fatalf("Resolve('') = %v, %v; want anonymous", got, err)
	}
	// An unknown key is an error, never a silent downgrade to anonymous.
	if _, err := r.Resolve("nope"); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("Resolve(nope) err = %v, want ErrUnknownKey", err)
	}
}

func TestResolveDisabled(t *testing.T) {
	r := mustLoad(t, `{
	  "tenants": [{"name": "off", "keys": ["ok-1"], "disabled": true}],
	  "anonymous": {"disabled": true}
	}`)
	if _, err := r.Resolve("ok-1"); !errors.Is(err, ErrDisabled) {
		t.Fatalf("disabled tenant err = %v, want ErrDisabled", err)
	}
	if _, err := r.Resolve(""); !errors.Is(err, ErrKeyRequired) {
		t.Fatalf("anonymous-off err = %v, want ErrKeyRequired", err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []string{
		`{"tenants": [{"keys": ["k"]}]}`,                                            // no name
		`{"tenants": [{"name": "a", "keys": ["k"]}, {"name": "a", "keys": ["j"]}]}`, // dup name
		`{"tenants": [{"name": "anonymous", "keys": ["k"]}]}`,                       // reserved name
		`{"tenants": [{"name": "a", "keys": ["k"]}, {"name": "b", "keys": ["k"]}]}`, // dup key
		`{"tenants": [{"name": "a"}]}`,                                              // no keys
		`{"tenants": [{"name": "a", "keys": ["k"], "weight": -1}]}`,                 // negative weight
		`{"tenants": [{"name": "a", "keys": ["k"], "rpz": 5}]}`,                     // unknown field
	}
	for _, cfg := range bad {
		if _, err := Load([]byte(cfg)); err == nil {
			t.Errorf("Load(%s) = nil error, want failure", cfg)
		}
	}
}

// TestNamesBounded: the label set per-tenant metric families use is the
// configured tenants plus the anonymous one, in configuration order.
func TestNamesBounded(t *testing.T) {
	r := mustLoad(t, twoTenantCfg)
	names := r.Names()
	if len(names) != 3 || names[0] != "compliant" || names[1] != "hostile" || names[2] != AnonymousName {
		t.Fatalf("Names() = %v", names)
	}
}

func TestShares(t *testing.T) {
	r := mustLoad(t, `{
	  "tenants": [
	    {"name": "big", "keys": ["b"], "weight": 3},
	    {"name": "small", "keys": ["s"], "weight": 1}
	  ],
	  "anonymous": {"disabled": true}
	}`)
	r.SetCapacity(8)
	big, _ := r.Resolve("b")
	small, _ := r.Resolve("s")
	if big.share != 6 || small.share != 2 || r.slack != 0 {
		t.Fatalf("shares = %d/%d slack %d, want 6/2 slack 0", big.share, small.share, r.slack)
	}
	// A capacity that does not divide evenly leaves the remainder as a
	// shared borrow pool, never over-assigns.
	r.SetCapacity(10)
	if big.share != 7 || small.share != 2 || r.slack != 1 {
		t.Fatalf("shares = %d/%d slack %d, want 7/2 slack 1", big.share, small.share, r.slack)
	}
}

// TestFairGateIsolation pins the core invariant: with the hostile tenant
// holding every slot it can get, the compliant tenant still acquires its
// full guaranteed share.
func TestFairGateIsolation(t *testing.T) {
	r := mustLoad(t, `{
	  "tenants": [
	    {"name": "compliant", "keys": ["c"], "weight": 3},
	    {"name": "hostile", "keys": ["h"], "weight": 1}
	  ],
	  "anonymous": {"disabled": true}
	}`)
	r.SetCapacity(8)
	compliant, _ := r.Resolve("c")
	hostile, _ := r.Resolve("h")

	var releases []func()
	hostileAdmitted := 0
	for i := 0; i < 50; i++ {
		if rel, v := r.Acquire(hostile); v == Admitted {
			releases = append(releases, rel)
			hostileAdmitted++
		}
	}
	if hostileAdmitted != int(hostile.share) {
		t.Fatalf("hostile admitted %d, want its share %d", hostileAdmitted, hostile.share)
	}
	for i := 0; i < int(compliant.share); i++ {
		rel, v := r.Acquire(compliant)
		if v != Admitted {
			t.Fatalf("compliant shed at in-flight %d, under its share %d", i, compliant.share)
		}
		releases = append(releases, rel)
	}
	// Every slot is now held; one more from either tenant must shed.
	if _, v := r.Acquire(compliant); v == Admitted {
		t.Fatal("compliant admitted past capacity")
	}
	for _, rel := range releases {
		rel()
	}
	if compliant.inflight.Load() != 0 || hostile.inflight.Load() != 0 || r.borrowed.Load() != 0 {
		t.Fatalf("leaked slots: compliant %d hostile %d borrowed %d",
			compliant.inflight.Load(), hostile.inflight.Load(), r.borrowed.Load())
	}
}

// TestFairGateBorrow checks the slack pool: flooring remainder slots are
// first-come shared, and releasing a borrowed slot returns it.
func TestFairGateBorrow(t *testing.T) {
	r := mustLoad(t, `{
	  "tenants": [
	    {"name": "big", "keys": ["b"], "weight": 3},
	    {"name": "small", "keys": ["s"], "weight": 1}
	  ],
	  "anonymous": {"disabled": true}
	}`)
	r.SetCapacity(10) // shares 7/2, slack 1
	small, _ := r.Resolve("s")

	var rels []func()
	admitted := 0
	for i := 0; i < 10; i++ {
		if rel, v := r.Acquire(small); v == Admitted {
			rels = append(rels, rel)
			admitted++
		}
	}
	if admitted != 3 { // share 2 + slack 1
		t.Fatalf("small admitted %d, want 3 (share 2 + slack 1)", admitted)
	}
	rels[len(rels)-1]() // free the borrowed slot
	if rel, v := r.Acquire(small); v != Admitted {
		t.Fatal("borrow slot not returned on release")
	} else {
		rel()
	}
}

func TestPerTenantMaxInFlight(t *testing.T) {
	r := mustLoad(t, `{"tenants": [{"name": "capped", "keys": ["k"], "max_in_flight": 2}]}`)
	// No gate capacity: only the tenant's own cap applies.
	capped, _ := r.Resolve("k")
	r1, v1 := r.Acquire(capped)
	r2, v2 := r.Acquire(capped)
	if v1 != Admitted || v2 != Admitted {
		t.Fatal("under-cap acquires shed")
	}
	if _, v := r.Acquire(capped); v != RejectedQuota {
		t.Fatal("want RejectedQuota past the tenant max_in_flight cap")
	}
	r1()
	r2()
}

func TestTakeTokenRetryAfter(t *testing.T) {
	r := mustLoad(t, `{"tenants": [{"name": "slow", "keys": ["k"], "rps": 2, "burst": 1}]}`)
	slow, _ := r.Resolve("k")
	now := time.Now()
	if ok, _ := slow.TakeToken(now); !ok {
		t.Fatal("first token should admit (full bucket)")
	}
	ok, retry := slow.TakeToken(now)
	if ok {
		t.Fatal("empty bucket admitted")
	}
	// At 2 rps an empty bucket refills one token in 500ms.
	if retry <= 0 || retry > 500*time.Millisecond {
		t.Fatalf("retry = %v, want (0, 500ms]", retry)
	}
	if ok, _ := slow.TakeToken(now.Add(time.Second)); !ok {
		t.Fatal("bucket did not refill after 1s")
	}
	// Unlimited tenants never block.
	if ok, _ := r.Anonymous().TakeToken(now); !ok {
		t.Fatal("unlimited tenant blocked")
	}
}

// TestAcquireConcurrent exercises the gate under racy load so the atomics
// are vetted by -race, and checks nothing leaks.
func TestAcquireConcurrent(t *testing.T) {
	r := mustLoad(t, twoTenantCfg)
	r.SetCapacity(4)
	compliant, _ := r.Resolve("ck-1")
	hostile, _ := r.Resolve("hk-1")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		tn := compliant
		if i%2 == 0 {
			tn = hostile
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				if rel, v := r.Acquire(tn); v == Admitted {
					rel()
				}
			}
		}()
	}
	wg.Wait()
	if compliant.inflight.Load() != 0 || hostile.inflight.Load() != 0 || r.borrowed.Load() != 0 {
		t.Fatalf("leaked slots after churn: %d/%d/%d",
			compliant.inflight.Load(), hostile.inflight.Load(), r.borrowed.Load())
	}
}
