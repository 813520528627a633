// Package slab holds the allocation-reuse policy the two execution engines
// (internal/sim and internal/runtime) share: recycled buffers are kept
// across Reset calls, bounded by decayed high-water marks so that one huge
// run does not pin its memory for the rest of a sweep. It knows nothing of
// the LogP machine rules; each engine checks those on its own.
package slab

// Watermark is a decayed high-water mark: each Reset folds in the finished
// run's usage and decays the retained value by a quarter, so a one-off huge
// case stops dominating after a few resets and its memory can be released.
type Watermark int

// Update notes the finished run's usage and applies one decay step,
// returning the retained watermark.
func (w *Watermark) Update(used int) int {
	*w -= *w / 4
	if Watermark(used) > *w {
		*w = Watermark(used)
	}
	return int(*w)
}

// Oversized reports whether a capacity has grown pathologically past what
// the watermark says future runs need: beyond a floor (small slices are
// never worth freeing) and more than 4x the retained need.
func Oversized(capacity, keep, floor int) bool {
	return capacity > floor && capacity > 4*keep
}

// Reuse truncates s for the next run, or drops it when its capacity is
// Oversized against keep.
func Reuse[T any](s []T, keep, floor int) []T {
	if Oversized(cap(s), keep, floor) {
		return nil
	}
	return s[:0]
}

// Grow returns s resliced to length n, reallocating only when its capacity
// is short. The contents are unspecified; callers overwrite every element.
func Grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Lists is a set of FIFO queues, one per owner (a processor, say), whose
// elements live in one shared slab with a free list: memory follows the
// elements queued at once, not owners times the longest queue, and no
// owner allocates. Each owner keeps its queue's List. The zero Lists and
// the zero List are empty and ready to use.
type Lists[T any] struct {
	recs []listRec[T]
	free int32 // first free record, plus one; 0 when none
}

// listRec is one queued element; next is the following record plus one, 0
// at the tail.
type listRec[T any] struct {
	v    T
	next int32
}

// List is one owner's queue in a Lists: its first and last records plus
// one (0 when empty) and its length.
type List struct{ head, tail, n int32 }

// Len returns the number of elements queued on l.
func (l *List) Len() int { return int(l.n) }

// Front returns the oldest element of l, which must not be empty.
func (s *Lists[T]) Front(l *List) T { return s.recs[l.head-1].v }

// Pop removes the oldest element of l, which must not be empty.
func (s *Lists[T]) Pop(l *List) {
	i := l.head - 1
	l.head = s.recs[i].next
	s.recs[i].next, s.free = s.free, i+1
	if l.n--; l.n == 0 {
		l.tail = 0
	}
}

// Push appends v to l.
func (s *Lists[T]) Push(l *List, v T) {
	var i int32
	if s.free > 0 {
		i = s.free - 1
		s.free = s.recs[i].next
		s.recs[i] = listRec[T]{v: v}
	} else {
		i = int32(len(s.recs))
		s.recs = append(s.recs, listRec[T]{v: v})
	}
	if l.tail > 0 {
		s.recs[l.tail-1].next = i + 1
	} else {
		l.head = i + 1
	}
	l.tail = i + 1
	l.n++
}

// Peak returns the most elements queued at once since the last Reset.
func (s *Lists[T]) Peak() int { return len(s.recs) }

// Reset empties every queue (owners reset their Lists to List{}), keeping
// the slab unless it is Oversized against keep.
func (s *Lists[T]) Reset(keep int) {
	s.recs = Reuse(s.recs, keep, 1024)
	s.free = 0
}
