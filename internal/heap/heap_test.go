package heap

import (
	"math/rand"
	"slices"
	"testing"
)

type item struct {
	key, id int
}

// byKeyThenID is a strict order whose ties on key are broken by the unique
// id, so the order Pop must follow is one sort.
func byKeyThenID(a, b item) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.id < b.id
}

func compare(a, b item) int {
	switch {
	case byKeyThenID(a, b):
		return -1
	case byKeyThenID(b, a):
		return 1
	}
	return 0
}

// TestPopOrderIsSorted pushes tie-heavy keys in random order, interleaving
// pops, and requires every pop to return the least element left.
func TestPopOrderIsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		var h, left []item
		for id := 0; id < 200; id++ {
			x := item{key: rng.Intn(8), id: id}
			Push(&h, x, byKeyThenID)
			left = append(left, x)
			if rng.Intn(3) == 0 {
				got := Pop(&h, byKeyThenID)
				least := slices.MinFunc(left, compare)
				if got != least {
					t.Fatalf("trial %d: popped %v, least left is %v", trial, got, least)
				}
				left = slices.DeleteFunc(left, func(x item) bool { return x == got })
			}
		}
		slices.SortFunc(left, compare)
		for i, want := range left {
			if got := Pop(&h, byKeyThenID); got != want {
				t.Fatalf("trial %d: drain pop %d = %v, want %v", trial, i, got, want)
			}
		}
		if len(h) != 0 {
			t.Fatalf("trial %d: %d left after draining", trial, len(h))
		}
	}
}

// TestPushPopAllocs pins the reason the heap is generic: on a slice that has
// already grown, Push and Pop allocate nothing.
func TestPushPopAllocs(t *testing.T) {
	h := make([]item, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			Push(&h, item{key: (i * 37) % 11, id: i}, byKeyThenID)
		}
		for len(h) > 0 {
			Pop(&h, byKeyThenID)
		}
	})
	if allocs != 0 {
		t.Fatalf("Push/Pop allocated %.1f times per run, want 0", allocs)
	}
}
