package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"sort"
	"strconv"

	"logpopt/internal/serve/sched"
)

// request is one /v1/schedule question as the client spells it on the wire,
// with the canonical key the daemon will file it under.
type request struct {
	Query string // query string without format=schedule, e.g. "l=6&op=scan&p=1000"
	Key   sched.Key
}

// parse rebuilds the sched.Request the daemon decodes from the query.
func (r request) parse() (sched.Request, error) {
	v, err := url.ParseQuery(r.Query)
	if err != nil {
		return sched.Request{}, err
	}
	return sched.ParseQuery(v.Get)
}

// newRequest spells a query and canonicalizes it the way the daemon does
// (default constructor "auto"), so a generator can see the key it produces.
func newRequest(v url.Values) (request, error) {
	r := request{Query: v.Encode()}
	req, err := r.parse()
	if err != nil {
		return request{}, err
	}
	r.Key, err = sched.Canonicalize(req, "auto")
	if err != nil {
		return request{}, fmt.Errorf("%s: %w", r.Query, err)
	}
	return r, nil
}

// warmupKeys are the daemon's two pre-readiness solves (cmd/logpservd
// warmup): they are in the cache before the first request, so the cold
// workload must avoid them and the cache ledger must count them.
var warmupKeys = []sched.Request{
	{Op: "broadcast", P: 64, L: 6, O: 2, G: 4, K: 1},
	{Op: "broadcast", P: 4096, L: 6, O: 2, G: 4, K: 1},
}

// hotKey is one member of serve_hot's fixed warm set.
type hotKey struct {
	Op string
	P  int
}

// spell writes op and P plus a seeded choice of equivalent spellings of the
// CLI-default machine: explicit or omitted L/o/g, an ignored k, an explicit
// constructor that resolves to the same one. All spellings share a Key.
func spell(rng *rand.Rand, op string, p int, l, o, g int64) url.Values {
	v := url.Values{"op": {op}, "p": {strconv.Itoa(p)}}
	for _, f := range []struct {
		name     string
		val, def int64
	}{{"l", l, 6}, {"o", o, 2}, {"g", g, 4}} {
		if f.val != f.def || rng.Intn(2) == 0 {
			v.Set(f.name, strconv.FormatInt(f.val, 10))
		}
	}
	if rng.Intn(4) == 0 {
		v.Set("k", strconv.Itoa(1+rng.Intn(8)))
	}
	if rng.Intn(4) == 0 {
		v.Set("constructor", "auto")
	}
	return v
}

// daemonShards is logpservd's default -shards.
const daemonShards = 16

// hotRounds is serve_hot's unit of equal work, in rounds.
const hotRounds = 4

// hotPlan returns serve_hot's prefill (each warm key once, minimal
// spelling) and n timed requests, rounded up to whole blocks of hotRounds
// rounds. Each round
// asks for every warm key once, in a seeded order with seeded spellings,
// except that keys sharing a cache shard keep their warm-set order. Keys
// that cannot share their shard's byte budget then evict each other exactly
// once per round, so every seed re-solves the same number of times.
func hotPlan(seed int64, keys []hotKey, n int) (prefill, timed []request, err error) {
	rng := rand.New(rand.NewSource(seed))
	for _, k := range keys {
		r, err := newRequest(url.Values{"op": {k.Op}, "p": {strconv.Itoa(k.P)}})
		if err != nil {
			return nil, nil, err
		}
		prefill = append(prefill, r)
	}
	for len(timed) < n || len(timed)%(hotRounds*len(keys)) != 0 {
		order := rng.Perm(len(keys))
		// Within each shard, hand the positions the shard's keys drew back
		// out in warm-set order.
		byShard := map[int][]int{}
		for pos, i := range order {
			sh := prefill[i].Key.Shard(daemonShards)
			byShard[sh] = append(byShard[sh], pos)
		}
		for _, poss := range byShard {
			idx := make([]int, len(poss))
			for j, pos := range poss {
				idx[j] = order[pos]
			}
			sort.Ints(idx)
			for j, pos := range poss {
				order[pos] = idx[j]
			}
		}
		for _, i := range order {
			r, err := newRequest(spell(rng, keys[i].Op, keys[i].P, 6, 2, 4))
			if err != nil {
				return nil, nil, err
			}
			if r.Key != prefill[i].Key {
				return nil, nil, fmt.Errorf("spelling %q changed the key of %s", r.Query, prefill[i].Key)
			}
			timed = append(timed, r)
		}
	}
	return prefill, timed, nil
}

// coldOps are the tree-building operations serve_cold draws from.
var coldOps = []string{"broadcast", "reduce", "scan", "binomial"}

// coldStrata is how many P bands serve_cold cycles through: the first
// quarter log-spaced below the 512 search/logtime threshold, the rest
// evenly spaced from there to maxP.
const coldStrata = 16

// coldBlock is serve_cold's unit of equal work: one request per op and band.
const coldBlock = coldStrata * 4 // len(coldOps)

// coldP maps a position u in [0, coldStrata) to a processor count.
func coldP(u float64, maxP int) int {
	const minP, threshold, low = 16, 512, coldStrata / 4
	if u < low {
		return int(minP * math.Exp(math.Log(threshold/minP)*u/low))
	}
	return threshold + int(float64(maxP-threshold)*(u-low)/(coldStrata-low))
}

// coldPlan returns n serve_cold requests, rounded up to whole blocks, no
// two sharing a canonical Key and none sharing one with the daemon's warmup
// solves. Each block of coldBlock requests holds one request per op and P
// band; only the position inside the band, the machine (L, o, g), the
// spelling and the order inside the block are drawn from the seed, so every
// block, and every seed, asks for nearly the same work.
func coldPlan(seed int64, n, maxP int) ([]request, error) {
	if maxP <= 512 {
		return nil, fmt.Errorf("cold plan: maxP %d must exceed the 512 threshold", maxP)
	}
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[sched.Key]bool)
	for _, w := range warmupKeys {
		k, err := sched.Canonicalize(w, "auto")
		if err != nil {
			return nil, err
		}
		seen[k] = true
	}
	var out []request
	for len(out) < n {
		block := make([]request, 0, coldBlock)
		for i := 0; i < coldBlock; i++ {
			op := coldOps[i%len(coldOps)]
			band := float64(i / len(coldOps))
			for try := 0; ; try++ {
				if try == 100 {
					return nil, fmt.Errorf("cold plan: no unseen key in band %v of op %s", band, op)
				}
				p := coldP(band+rng.Float64(), maxP)
				l := int64(1 + rng.Intn(12))
				o := int64(rng.Intn(5))
				g := int64(1 + rng.Intn(8))
				r, err := newRequest(spell(rng, op, p, l, o, g))
				if err != nil {
					return nil, err
				}
				if !seen[r.Key] {
					seen[r.Key] = true
					block = append(block, r)
					break
				}
			}
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out, nil
}
