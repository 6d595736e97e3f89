package tenant

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// designExampleCfg is the config DESIGN.md's "Tenancy & fairness" section
// shows.
const designExampleCfg = `{
  "tenants": [
    {"name": "gold", "keys": ["gk-1", "gk-2"], "weight": 3, "rps": 30, "burst": 5},
    {"name": "bronze", "keys": ["bk-1"], "weight": 1, "max_in_flight": 4},
    {"name": "suspended", "keys": ["sk-1"], "disabled": true}
  ],
  "anonymous": {"weight": 1, "rps": 5}
}`

// overflowCfgs are the weights that wrapped the fair-share arithmetic before
// weights were bounded: share −63 and slack 127 on a capacity of 64; share 2
// where 63 was due; share 0 and slack 64 (the guarantee silently void).
var overflowCfgs = []string{
	`{"tenants":[{"name":"a","keys":["ka"],"weight":144115188075855873}]}`,
	`{"tenants":[{"name":"a","keys":["ka"],"weight":3000000000000000000},{"name":"b","keys":["kb"],"weight":1}]}`,
	`{"tenants":[{"name":"a","keys":["ka"],"weight":9223372036854775807}]}`,
}

// checkGate holds r to the fair gate's arithmetic at capacity c: no negative
// share or slack, shares and slack add up to c exactly, and — where c is
// small enough to walk — every tenant asking until it is refused never gets
// more than c requests admitted at once.
func checkGate(t *testing.T, r *Registry, c int) {
	t.Helper()
	r.SetCapacity(c)
	defer r.SetCapacity(0)
	all := append(append([]*Tenant{}, r.tenants...), r.anon)
	sum := r.slack
	if r.slack < 0 {
		t.Fatalf("capacity %d: slack %d", c, r.slack)
	}
	for _, tn := range all {
		if tn.share < 0 {
			t.Fatalf("capacity %d: tenant %q share %d", c, tn.Name, tn.share)
		}
		sum += tn.share
	}
	if sum != int64(c) {
		t.Fatalf("capacity %d: shares + slack = %d", c, sum)
	}
	if c > 1024 {
		return
	}
	var releases []func()
	for _, tn := range all {
		for {
			rel, v := r.Acquire(tn)
			if v != Admitted {
				break
			}
			releases = append(releases, rel)
			if len(releases) > c {
				t.Fatalf("capacity %d: %d requests admitted at once", c, len(releases))
			}
		}
	}
	for _, rel := range releases {
		rel()
	}
}

// TestWeightBound: a weight past maxWeight is refused at load with the bound
// in the message (the three configs that used to overflow the share
// arithmetic, and the anonymous override), and everything up to the bound
// keeps the gate's arithmetic exact at any capacity an int can carry.
func TestWeightBound(t *testing.T) {
	refused := append([]string{
		`{"tenants":[{"name":"a","keys":["ka"],"weight":1048577}]}`,
		`{"anonymous":{"weight":1048577}}`,
	}, overflowCfgs...)
	for _, cfg := range refused {
		if _, err := Load([]byte(cfg)); err == nil || !strings.Contains(err.Error(), "1048576") {
			t.Errorf("Load(%s) = %v, want a refusal naming the bound 1048576", cfg, err)
		}
	}
	accepted := []string{
		`{"tenants":[{"name":"a","keys":["ka"],"weight":1048576}]}`,
		`{"tenants":[{"name":"a","keys":["ka"],"weight":1048576},{"name":"b","keys":["kb"],"weight":1}],"anonymous":{"weight":1048576}}`,
		`{"tenants":[{"name":"a","keys":["ka"],"weight":3},{"name":"b","keys":["kb"]}],"anonymous":{"disabled":true}}`,
	}
	for _, cfg := range accepted {
		r := mustLoad(t, cfg)
		for _, c := range []int{1, 64, 1 << 20, math.MaxInt64} {
			checkGate(t, r, c)
		}
	}
}

// FuzzTenantLoad: whatever Load accepts yields a registry whose gate
// arithmetic holds at small, typical and large capacities and whose every
// configured key resolves to its own tenant (or ErrDisabled); Load itself
// never panics.
func FuzzTenantLoad(f *testing.F) {
	for _, cfg := range append([]string{
		designExampleCfg,
		twoTenantCfg,
		`{"tenants": [{"name": "off", "keys": ["ok-1"], "disabled": true}], "anonymous": {"disabled": true}}`,
		`{"tenants": [{"name": "big", "keys": ["b"], "weight": 3}, {"name": "small", "keys": ["s"], "weight": 1}], "anonymous": {"disabled": true}}`,
		`{"tenants": [{"name": "capped", "keys": ["k"], "max_in_flight": 2}]}`,
		`{"tenants": [{"name": "slow", "keys": ["k"], "rps": 2, "burst": 1}]}`,
		`{"tenants": [{"name": "a", "keys": ["k"], "rpz": 5}]}`,
		`{}`,
	}, overflowCfgs...) {
		f.Add([]byte(cfg))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Load(data)
		if err != nil {
			return
		}
		for _, c := range []int{1, 64, 1 << 20} {
			checkGate(t, r, c)
		}
		for key, want := range r.byKey {
			got, err := r.Resolve(key)
			switch {
			case key == "":
				t.Fatal("Load accepted an empty key")
			case want.Disabled:
				if !errors.Is(err, ErrDisabled) {
					t.Fatalf("Resolve(%q) of a disabled tenant = %v, %v", key, got, err)
				}
			case err != nil || got != want:
				t.Fatalf("Resolve(%q) = %v, %v; want tenant %q", key, got, err, want.Name)
			}
		}
	})
}
