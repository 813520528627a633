package sim

import "logpopt/internal/logp"

// availStore maps (processor, item) -> earliest availability time without a
// per-processor map: per-processor singly-linked entry lists carved from one
// shared slab. At P ~ 10^6 the old map-per-processor layout cost a million
// map headers plus a bucket allocation per processor that ever held an item,
// and Reset had to clear each one; the slab is a single slice whose entries
// are recycled wholesale by truncation.
//
// Lookups walk the processor's list, which is as long as the number of
// distinct items that processor holds — one for broadcast, k for k-item
// schedules — so the walk is short exactly where P is large. A processor
// that comes to hold more than availScan items (the hub of a flat
// reduction, which receives every item) is also indexed in an
// open-addressing hash table over (processor, item), so its lookups stay
// O(1) instead of walking a list as long as P.
type availStore struct {
	heads   []int32 // per processor, index of the first entry; -1 = none
	counts  []int32 // per processor, entries in its list
	entries []availEntry
	index   []availSlot // hash of the entries of processors past availScan; length a power of two
	indexed int         // live slots in index
	big     []int32     // processors past availScan, for rehashing
}

type availEntry struct {
	next int32
	item int
	at   logp.Time
}

// availSlot is one hash-table slot: entry e, held by processor p; e < 0
// marks an empty slot.
type availSlot struct{ p, e int32 }

// availScan is the longest list a lookup walks before the processor's
// entries move into the hash index.
const availScan = 8

// reset prepares the store for p processors, reusing every slice.
func (a *availStore) reset(p int) {
	if cap(a.heads) < p {
		a.heads = make([]int32, p)
		a.counts = make([]int32, p)
	} else {
		a.heads, a.counts = a.heads[:p], a.counts[:p]
	}
	for i := range a.heads {
		a.heads[i] = -1
	}
	clear(a.counts)
	a.entries = a.entries[:0]
	if len(a.index) > 1024 && len(a.index) > 8*a.indexed {
		a.index = nil // the last run needed far less; regrow on demand
	}
	for i := range a.index {
		a.index[i] = availSlot{e: -1}
	}
	a.indexed = 0
	a.big = a.big[:0]
}

// find returns the entry holding item at processor p, or -1.
func (a *availStore) find(p, item int) int32 {
	if a.counts[p] <= availScan {
		for i := a.heads[p]; i >= 0; i = a.entries[i].next {
			if a.entries[i].item == item {
				return i
			}
		}
		return -1
	}
	return a.index[a.slot(p, item)].e
}

// slot returns the index slot holding (p, item), or the empty slot where it
// would go.
func (a *availStore) slot(p, item int) int {
	mask := len(a.index) - 1
	h := uint64(p)*0x9E3779B97F4A7C15 ^ uint64(item)*0xC2B2AE3D27D4EB4F
	for i := int(h^h>>31) & mask; ; i = (i + 1) & mask {
		s := a.index[i]
		if s.e < 0 || int(s.p) == p && a.entries[s.e].item == item {
			return i
		}
	}
}

// get returns the availability time of item at processor p, if known.
func (a *availStore) get(p, item int) (logp.Time, bool) {
	if i := a.find(p, item); i >= 0 {
		return a.entries[i].at, true
	}
	return 0, false
}

// setMin records that item is available at processor p from time at,
// keeping the earliest time when the pair is already known.
func (a *availStore) setMin(p, item int, at logp.Time) {
	if i := a.find(p, item); i >= 0 {
		a.entries[i].at = min(a.entries[i].at, at)
		return
	}
	a.entries = append(a.entries, availEntry{next: a.heads[p], item: item, at: at})
	a.heads[p] = int32(len(a.entries) - 1)
	a.counts[p]++
	switch {
	case a.counts[p] == availScan+1:
		a.big = append(a.big, int32(p))
		for i := a.heads[p]; i >= 0; i = a.entries[i].next {
			a.insert(p, i)
		}
	case a.counts[p] > availScan+1:
		a.insert(p, a.heads[p])
	}
}

// insert adds entry e of processor p to the hash index, first doubling the
// index (at least 1024 slots) and re-placing every big processor's entries
// if it would pass half full.
func (a *availStore) insert(p int, e int32) {
	if 2*(a.indexed+1) > len(a.index) {
		a.index = make([]availSlot, max(2*len(a.index), 1024))
		for i := range a.index {
			a.index[i] = availSlot{e: -1}
		}
		a.indexed = 0
		for _, q := range a.big {
			for i := a.heads[q]; i >= 0; i = a.entries[i].next {
				a.place(int(q), i)
			}
		}
	}
	a.place(p, e)
}

// place puts entry e of processor p in its index slot.
func (a *availStore) place(p int, e int32) {
	i := a.slot(p, a.entries[e].item)
	if a.index[i].e < 0 {
		a.indexed++
	}
	a.index[i] = availSlot{p: int32(p), e: e}
}

// latest returns the maximum availability time over every (processor, item)
// pair in the store — the run's finish time.
func (a *availStore) latest() logp.Time {
	var mx logp.Time
	for i := range a.entries {
		mx = max(mx, a.entries[i].at)
	}
	return mx
}
