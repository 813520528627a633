package schedule

import "slices"

// Groups is a compressed-sparse-row partition of records by processor: Recs
// holds every record, grouped by ascending processor and in input order
// within a processor, and group g is Recs[start[g]:start[g+1]]. The checkers
// build one per call instead of keying hash maps by processor, so their
// lookups become slice walks and binary searches.
type Groups[T any] struct {
	Recs  []T
	procs []int // processor of each non-empty group, ascending
	start []int // len(procs)+1 group boundaries into Recs
}

// GroupByProc partitions recs by proc(rec) with a stable counting sort. Only
// processors in [0, min(P, len(recs))) get a dense bucket; every other
// processor — negative, beyond P, or simply beyond the record count on a
// huge machine — goes through one overflow list sorted by (processor, input
// position). Time is O(n log n) in the worst case and O(n) when every
// processor is dense; memory is O(n) whatever P or the processor values are.
func GroupByProc[T any](P int, recs []T, proc func(*T) int) Groups[T] {
	n := len(recs)
	order := make([]int32, n)
	procOrder(order, make([]int32, max(min(P, n), 0)+1), func(i int) int { return proc(&recs[i]) })
	g := Groups[T]{Recs: make([]T, n)}
	for i, pos := range order {
		g.Recs[i] = recs[pos]
	}

	groups := 0
	for i := range g.Recs {
		if i == 0 || proc(&g.Recs[i]) != proc(&g.Recs[i-1]) {
			groups++
		}
	}
	g.procs = make([]int, 0, groups)
	g.start = make([]int, 0, groups+1)
	for i := range g.Recs {
		if p := proc(&g.Recs[i]); i == 0 || p != g.procs[len(g.procs)-1] {
			g.procs = append(g.procs, p)
			g.start = append(g.start, i)
		}
	}
	g.start = append(g.start, n)
	return g
}

// Len returns the number of non-empty groups.
func (g *Groups[T]) Len() int { return len(g.procs) }

// Group returns the processor and the records of group i.
func (g *Groups[T]) Group(i int) (int, []T) {
	return g.procs[i], g.Recs[g.start[i]:g.start[i+1]]
}

// Find returns the records of processor p (nil when it has none), by binary
// search over the groups.
func (g *Groups[T]) Find(p int) []T {
	if i, ok := slices.BinarySearch(g.procs, p); ok {
		return g.Recs[g.start[i]:g.start[i+1]]
	}
	return nil
}

// Next returns the records of processor p (nil when it has none) to a walk
// that asks for processors in ascending order, by advancing the walk's
// cursor *at (0 at the start) instead of searching.
func (g *Groups[T]) Next(at *int, p int) []T {
	for *at < len(g.procs) && g.procs[*at] < p {
		*at++
	}
	if *at < len(g.procs) && g.procs[*at] == p {
		return g.Recs[g.start[*at]:g.start[*at+1]]
	}
	return nil
}

// SortEach sorts every group by cmp. Groups are sorted independently, so the
// total cost is O(n log n) even when one processor holds most records.
func (g *Groups[T]) SortEach(cmp func(a, b T) int) {
	for i := range g.procs {
		slices.SortFunc(g.Recs[g.start[i]:g.start[i+1]], cmp)
	}
}
