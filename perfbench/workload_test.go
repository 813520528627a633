package main

import (
	"net/url"
	"reflect"
	"testing"

	"logpopt/internal/serve/sched"
)

func TestPlansRepeatForSameSeed(t *testing.T) {
	p1, h1, err := hotPlan(7, fullSizes.hotKeys, 100)
	if err != nil {
		t.Fatal(err)
	}
	p2, h2, _ := hotPlan(7, fullSizes.hotKeys, 100)
	_, h3, _ := hotPlan(8, fullSizes.hotKeys, 100)
	if !reflect.DeepEqual(p1, p2) || !reflect.DeepEqual(h1, h2) {
		t.Error("hotPlan differs between two calls with seed 7")
	}
	if reflect.DeepEqual(h1, h3) {
		t.Error("hotPlan is the same for seeds 7 and 8")
	}
	c1, err := coldPlan(7, 100, fullSizes.coldMaxP)
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := coldPlan(7, 100, fullSizes.coldMaxP)
	c3, _ := coldPlan(8, 100, fullSizes.coldMaxP)
	if !reflect.DeepEqual(c1, c2) {
		t.Error("coldPlan differs between two calls with seed 7")
	}
	if reflect.DeepEqual(c1, c3) {
		t.Error("coldPlan is the same for seeds 7 and 8")
	}
}

// Spellings that differ on the wire but not in canonical form are one
// cache key, so the cold plan must compare keys, not query strings.
func TestSpellingsShareKey(t *testing.T) {
	a, err := newRequest(url.Values{"p": {"600"}, "op": {"broadcast"}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := newRequest(url.Values{"p": {"600"}, "op": {"broadcast"}, "l": {"6"}, "k": {"3"}, "constructor": {"auto"}})
	if err != nil {
		t.Fatal(err)
	}
	if a.Query == b.Query || a.Key != b.Key {
		t.Errorf("%q -> %v and %q -> %v: want different queries with one key", a.Query, a.Key, b.Query, b.Key)
	}
}

func TestColdKeysNeverRepeat(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		reqs, err := coldPlan(seed, 2048, fullSizes.coldMaxP)
		if err != nil {
			t.Fatal(err)
		}
		if len(reqs) != 2048 {
			t.Fatalf("seed %d: %d requests, want 2048", seed, len(reqs))
		}
		seen := map[sched.Key]string{}
		for _, w := range warmupKeys {
			k, _ := sched.Canonicalize(w, "auto")
			seen[k] = "daemon warmup"
		}
		below := 0
		for _, r := range reqs {
			if prev, ok := seen[r.Key]; ok {
				t.Fatalf("seed %d: %q repeats key %v of %q", seed, r.Query, r.Key, prev)
			}
			seen[r.Key] = r.Query
			if r.Key.P < 512 {
				below++
			}
		}
		if below != len(reqs)/4 {
			t.Errorf("seed %d: %d requests below P=512, want a quarter of %d", seed, below, len(reqs))
		}
	}
}

// Every round asks for every warm key once, and keys sharing a cache shard
// keep their warm-set order, so the evicting pair re-solves exactly twice
// per round.
func TestHotRoundsKeepShardOrder(t *testing.T) {
	keys := fullSizes.hotKeys
	prefill, timed, err := hotPlan(3, keys, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(timed)%(hotRounds*len(keys)) != 0 {
		t.Fatalf("%d timed requests, want whole blocks of %d", len(timed), hotRounds*len(keys))
	}
	index := map[sched.Key]int{}
	for i, r := range prefill {
		index[r.Key] = i
	}
	for start := 0; start < len(timed); start += len(keys) {
		seen := map[int]bool{}
		last := map[int]int{} // shard -> warm-set index last seen in this round
		for _, r := range timed[start : start+len(keys)] {
			i, ok := index[r.Key]
			if !ok || seen[i] {
				t.Fatalf("round at %d: %q is not a new warm key", start, r.Query)
			}
			seen[i] = true
			sh := r.Key.Shard(daemonShards)
			if prev, ok := last[sh]; ok && prev > i {
				t.Fatalf("round at %d: shard %d sees key %d after key %d", start, sh, i, prev)
			}
			last[sh] = i
		}
	}
}

// Every generated request must be answerable: canonicalize and compile
// in-process, as the daemon would.
func TestPlannedRequestsCompile(t *testing.T) {
	prefill, _, err := hotPlan(1, fullSizes.hotKeys, 1)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := coldPlan(1, 2*coldBlock, fullSizes.coldMaxP)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := servedRefs(nil, append(prefill, cold...)); err != nil {
		t.Fatal(err)
	}
}
