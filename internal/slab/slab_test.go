package slab

import (
	"math/rand"
	"testing"
)

// TestListsFIFO interleaves pushes and pops on several owners' queues and
// checks each stays first-in first-out against a slice per owner, with
// freed records reused and a Reset in between.
func TestListsFIFO(t *testing.T) {
	var s Lists[int]
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 2; round++ {
		s.Reset(0)
		lists := make([]List, 5)
		want := make([][]int, 5)
		for n := 0; n < 2000; n++ {
			o := rng.Intn(len(lists))
			if rng.Intn(3) > 0 || len(want[o]) == 0 {
				s.Push(&lists[o], n)
				want[o] = append(want[o], n)
				continue
			}
			if got := s.Front(&lists[o]); got != want[o][0] {
				t.Fatalf("round %d: owner %d front %d, want %d", round, o, got, want[o][0])
			}
			s.Pop(&lists[o])
			want[o] = want[o][1:]
		}
		live := 0
		for o := range lists {
			if lists[o].Len() != len(want[o]) {
				t.Fatalf("owner %d holds %d, want %d", o, lists[o].Len(), len(want[o]))
			}
			live += len(want[o])
		}
		if s.Peak() < live {
			t.Fatalf("peak %d below %d live elements", s.Peak(), live)
		}
	}
}

// TestWatermarkDecay checks that one large run stops pinning its
// allocation after a few small ones.
func TestWatermarkDecay(t *testing.T) {
	var w Watermark
	big := make([]byte, 0, 1<<20)
	keep := w.Update(1 << 20)
	if Reuse(big, keep, 1024) == nil {
		t.Fatal("dropped a buffer the last run filled")
	}
	for i := 0; i < 20; i++ {
		keep = w.Update(100)
	}
	if Reuse(big, keep, 1024) != nil {
		t.Fatalf("kept a 1 MiB buffer against a retained need of %d", keep)
	}
}
