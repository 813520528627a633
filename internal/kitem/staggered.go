package kitem

import (
	"fmt"
	"sort"

	"logpopt/internal/logp"
	"logpopt/internal/logtime"
	"logpopt/internal/schedule"
)

// Staggered builds a single-sending k-item broadcast schedule for ANY P >= 2
// in the buffered (Section 3.5) postal model, using the paper's structural
// recipe rather than per-step greedy matching:
//
//   - item x is transmitted by the source at time x to the root processor of
//     its copy of the optimal broadcast tree T_{P-1}, staggered one step
//     apart (the continuous phase of Theorem 3.2's structure);
//   - every internal node of T_{P-1} owns an r-block of r processors that
//     serve the node cyclically (processor j of the block is the node's
//     sender for items x ≡ j mod r), exactly Section 3.4's blocks — so the
//     sending side is conflict-free by construction for every P;
//   - the remaining processors of each item (those whose block is off duty)
//     receive the tree's leaf transmissions; the leaf-to-processor
//     assignment is chosen per item to dodge reception conflicts, and any
//     residual conflict is absorbed by the input buffer (the reception is
//     deferred past the arrival, as Theorem 3.8's modified model allows).
//
// For P-1 = P(t) a perfect assignment exists (the block-cyclic words) and
// the result needs no buffering; for general P the buffer absorbs the
// mismatch. The completion target is the single-sending optimum
// B(P-1) + L + k - 1; the caller can compare Result.Finish against it.
//
// For L <= 2 the network capacity ceil(L/g) is so tight that the per-item
// greedy leaf assignment can paint itself into a corner off the P(t) grid;
// Staggered then returns an error and Greedy (which never violates the
// capacity constraint) should be used instead. This mirrors the paper:
// L = 2 is exactly the case whose optimal schedules need the bespoke
// treatment of Theorems 3.4/3.5.
func Staggered(l logp.Time, p, k int) (Result, error) {
	if p < 2 || k < 1 || l < 1 {
		return Result{}, fmt.Errorf("kitem: bad instance P=%d k=%d L=%d", p, k, l)
	}
	m := logp.Postal(p, l)
	inner := logp.Postal(p-1, l)
	tr := logtime.Tree(inner, p-1)

	// Blocks: one per internal node; processors 1..P-1 in block order, the
	// last one receive-only (sum of block sizes is exactly P-3+1... the
	// tree has P-2 edges, so sum r = P-2 and one processor remains).
	type blockInfo struct {
		node  int
		size  int
		procs []int
	}
	var blocks []blockInfo
	next := 1
	blockOfNode := make(map[int]int)
	for ni, nd := range tr.Nodes {
		if len(nd.Children) == 0 {
			continue
		}
		b := blockInfo{node: ni, size: len(nd.Children)}
		for j := 0; j < b.size; j++ {
			b.procs = append(b.procs, next)
			next++
		}
		blockOfNode[ni] = len(blocks)
		blocks = append(blocks, b)
	}
	recvOnly := next
	if recvOnly != p-1 {
		return Result{}, fmt.Errorf("kitem: block layout used %d processors, want %d", recvOnly, p-1)
	}

	// onDuty(x, bi) = processor of block bi serving its node for item x.
	onDuty := func(x, bi int) int {
		b := blocks[bi]
		return b.procs[((x%b.size)+b.size)%b.size]
	}

	// Precompute all active receptions: proc -> set of occupied steps.
	// activeSlots marks steps that MUST stay free for an on-time active
	// reception; occupied additionally accumulates scheduled leaf arrivals.
	occupied := make([]map[logp.Time]bool, p)
	activeSlots := make([]map[logp.Time]bool, p)
	arrCount := make([]map[logp.Time]int, p) // arrivals per step (network)
	for i := range occupied {
		occupied[i] = make(map[logp.Time]bool)
		activeSlots[i] = make(map[logp.Time]bool)
		arrCount[i] = make(map[logp.Time]int)
	}
	// capacityOK reports whether adding an arrival at `at` keeps every
	// L-window of messages in flight toward q within the network capacity
	// ceil(L/g) = L: for each τ in [at-L, at), the arrivals in (τ, τ+L]
	// (including the new one) must number at most L.
	capacityOK := func(q int, at logp.Time) bool {
		for tau := at - l; tau < at; tau++ {
			c := 1 // the new arrival
			for d := logp.Time(1); d <= l; d++ {
				c += arrCount[q][tau+d]
			}
			if c > int(l) {
				return false
			}
		}
		return true
	}
	activeProc := make([][]int, k) // activeProc[x][node] for internal nodes
	for x := 0; x < k; x++ {
		activeProc[x] = make([]int, tr.P())
		for i := range activeProc[x] {
			activeProc[x][i] = -1
		}
		for ni := range tr.Nodes {
			if len(tr.Nodes[ni].Children) == 0 {
				continue
			}
			q := onDuty(x, blockOfNode[ni])
			activeProc[x][ni] = q
			at := logp.Time(x) + l + tr.Nodes[ni].Label
			if occupied[q][at] {
				return Result{}, fmt.Errorf("kitem: active reception clash at proc %d time %d", q, at)
			}
			occupied[q][at] = true
			activeSlots[q][at] = true
			arrCount[q][at]++
		}
	}

	s := &schedule.Schedule{M: m}
	maxBuf := 0
	var finish logp.Time
	type arrival struct {
		to, item, from int
		at             logp.Time
		active         bool
	}
	var arrivals []arrival

	for x := 0; x < k; x++ {
		// Source -> root.
		root := activeProc[x][0]
		if root < 0 { // single-node tree: the only processor is a leaf
			root = 1
			at := logp.Time(x) + l
			if occupied[root][at] {
				return Result{}, fmt.Errorf("kitem: root reception clash at proc %d time %d", root, at)
			}
			occupied[root][at] = true
			activeSlots[root][at] = true
			arrCount[root][at]++
		}
		s.Send(0, logp.Time(x), x, root)
		arrivals = append(arrivals, arrival{to: root, item: x, from: 0, at: logp.Time(x) + l, active: true})

		// Off-duty processors of this item, to be matched with leaves.
		used := map[int]bool{root: true}
		for ni := range tr.Nodes {
			if q := activeProc[x][ni]; q >= 0 {
				used[q] = true
			}
		}
		var free []int
		for q := 1; q < p; q++ {
			if !used[q] {
				free = append(free, q)
			}
		}
		// Leaves in reception-time order; match each to a free processor
		// whose occupied set misses the arrival step (prefer the least
		// recently used so receptions spread out); fall back to any.
		var leaves []int
		for ni, nd := range tr.Nodes {
			if len(nd.Children) == 0 && ni != 0 {
				leaves = append(leaves, ni)
			}
		}
		sort.Slice(leaves, func(i, j int) bool {
			return tr.Nodes[leaves[i]].Label < tr.Nodes[leaves[j]].Label
		})
		if len(leaves) != len(free) {
			return Result{}, fmt.Errorf("kitem: %d leaves for %d free processors", len(leaves), len(free))
		}
		// Assign leaves to free processors with a bipartite matching
		// (augmenting paths): leaf -> processor edges require network
		// headroom; edges into an open reception slot are preferred by
		// scanning them first so buffering stays rare.
		leafProc := make(map[int]int)
		procLeaf := make(map[int]int) // proc -> leaf index in leaves
		arrivalOf := func(ni int) logp.Time {
			return logp.Time(x) + l + tr.Nodes[ni].Label
		}
		feasible := func(q, ni int) bool {
			return capacityOK(q, arrivalOf(ni))
		}
		var augment func(ni int, visited map[int]bool) bool
		augment = func(ni int, visited map[int]bool) bool {
			at := arrivalOf(ni)
			// Two passes: conflict-free slots first, then buffered ones.
			for pass := 0; pass < 2; pass++ {
				for _, q := range free {
					if visited[q] || !feasible(q, ni) {
						continue
					}
					if (pass == 0) != !occupied[q][at] {
						continue
					}
					visited[q] = true
					prev, had := procLeaf[q]
					if !had || augment(prev, visited) {
						procLeaf[q] = ni
						leafProc[ni] = q
						return true
					}
				}
			}
			return false
		}
		for _, ni := range leaves {
			if !augment(ni, make(map[int]bool)) {
				return Result{}, fmt.Errorf("kitem: no capacity-respecting assignment for item %d (L=%d P=%d)", x, l, p)
			}
		}
		for ni, q := range leafProc {
			occupied[q][arrivalOf(ni)] = true
			arrCount[q][arrivalOf(ni)]++
		}
		// Emit the tree's sends for item x.
		procFor := func(ni int) int {
			if q := activeProc[x][ni]; q >= 0 {
				return q
			}
			return leafProc[ni]
		}
		for ni, nd := range tr.Nodes {
			from := procFor(ni)
			for i, ci := range nd.Children {
				at := logp.Time(x) + l + tr.Nodes[ni].Label + logp.Time(i)
				s.Send(from, at, x, procFor(ci))
				arrivals = append(arrivals, arrival{
					to: procFor(ci), item: x, from: from,
					at: at + l, active: len(tr.Nodes[ci].Children) > 0,
				})
			}
		}
	}

	// Place receptions: active ones exactly at arrival; deferred ones at the
	// earliest later free step of their processor.
	sort.SliceStable(arrivals, func(i, j int) bool {
		if arrivals[i].at != arrivals[j].at {
			return arrivals[i].at < arrivals[j].at
		}
		return arrivals[i].active && !arrivals[j].active
	})
	recvAt := make([]map[logp.Time]bool, p)
	pendingPeak := make([]int, p)
	pendingNow := make([]map[logp.Time]int, p)
	for i := range recvAt {
		recvAt[i] = make(map[logp.Time]bool)
		pendingNow[i] = make(map[logp.Time]int)
	}
	for _, a := range arrivals {
		at := a.at
		if a.active {
			if recvAt[a.to][at] {
				return Result{}, fmt.Errorf("kitem: active slot stolen at proc %d time %d", a.to, at)
			}
		} else {
			for recvAt[a.to][at] || activeSlots[a.to][at] {
				at++
			}
		}
		recvAt[a.to][at] = true
		s.Recv(a.to, at, a.item, a.from)
		if a.active && at != a.at {
			return Result{}, fmt.Errorf("kitem: active reception deferred at proc %d item %d", a.to, a.item)
		}
		// Buffer occupancy: the message waits during [a.at, at].
		for ttt := a.at; ttt <= at; ttt++ {
			pendingNow[a.to][ttt]++
			if pendingNow[a.to][ttt] > pendingPeak[a.to] {
				pendingPeak[a.to] = pendingNow[a.to][ttt]
			}
		}
		if at > finish {
			finish = at
		}
	}
	for _, pk := range pendingPeak {
		if pk > maxBuf {
			maxBuf = pk
		}
	}
	return Result{Schedule: s, Finish: finish, MaxBuffer: maxBuf}, nil
}
