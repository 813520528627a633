package sim

import (
	"math/rand"
	"testing"

	"logpopt/internal/logp"
)

// TestAvailStoreMatchesMap drives the availability store with random
// setMin calls — a few processors collecting hundreds of items, past the
// list-scan limit into the hash index, and many holding one or two — and
// checks every lookup against a map, across a Reset.
func TestAvailStoreMatchesMap(t *testing.T) {
	type key struct{ p, item int }
	var a availStore
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 2; round++ {
		const P = 64
		a.reset(P)
		want := map[key]logp.Time{}
		for n := 0; n < 5000; n++ {
			p := rng.Intn(P)
			if n%3 == 0 {
				p = rng.Intn(3) // hubs
			}
			k := key{p, rng.Intn(400)}
			at := logp.Time(rng.Intn(1000))
			a.setMin(k.p, k.item, at)
			if cur, ok := want[k]; !ok || at < cur {
				want[k] = at
			}
		}
		for p := 0; p < P; p++ {
			for item := 0; item < 400; item++ {
				got, ok := a.get(p, item)
				w, wok := want[key{p, item}]
				if ok != wok || got != w {
					t.Fatalf("round %d: get(%d, %d) = %d, %v; want %d, %v", round, p, item, got, ok, w, wok)
				}
			}
		}
	}
}
