// Package causal reconstructs the causal structure of an executed LogP
// schedule and explains its finish time. Every event becomes a node of a
// DAG whose edges are the machine constraints that forced the event's start
// time:
//
//   - a latency edge from each send to its matching receive (the receive
//     cannot start before send + o + L, so the item is available L + 2o
//     after the send began);
//   - a gap edge between successive sends (or successive receives) at the
//     same port (spacing at least g);
//   - a busy edge from any positive-duration predecessor at the same
//     processor (overhead and compute intervals serialize a processor);
//   - an availability edge from the receive (or the origin injection) that
//     first made a sent item available at its sender.
//
// Walking back from the event that realizes the finish time, always through
// the *binding* (latest-bound) constraint, yields the critical path: the
// chain of events that determines when the run completes. Each traversed
// edge contributes its elapsed cycles to exactly one component — latency L,
// overhead o, gap g, or compute — and any cycles an event started later
// than every one of its constraints demanded land in the wait component, so
//
//	Finish = Latency + Overhead + Gap + Compute + Origin + Wait
//
// holds as an identity (the fuzz target FuzzCausal exercises it). Comparing
// the achieved breakdown against a reference breakdown of a closed-form
// lower bound (Theorem 2.1 broadcast, Theorem 3.1/3.6 k-item, Section 4.1
// all-to-all, Section 5 summation) attributes the gap above the bound to
// the constraint class that ate the slack.
//
// A backward pass over the same DAG additionally computes per-event slack:
// how far each event could slip without moving the finish time. Events on
// the critical path of a tight schedule have slack zero.
package causal

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"

	"logpopt/internal/logp"
	"logpopt/internal/schedule"
)

// EdgeKind classifies the constraint an edge of the causal DAG models.
type EdgeKind int

// Edge kinds. KindStart marks a path root with no constraint at all (its
// whole start time is wait); KindOrigin marks a root pinned by an item
// injection at a given time.
const (
	KindStart EdgeKind = iota
	KindOrigin
	KindLatency // recv after matching send: bound = send.start + o + L
	KindGap     // same-port same-op spacing: bound = prev.start + g
	KindBusy    // processor serialization: bound = prev.start + prev.dur
	KindAvail   // item availability at a sender: bound = recv.start + o
	KindCompute // serialization behind a compute interval
)

func (k EdgeKind) String() string {
	switch k {
	case KindStart:
		return "start"
	case KindOrigin:
		return "origin"
	case KindLatency:
		return "latency"
	case KindGap:
		return "gap"
	case KindBusy:
		return "busy"
	case KindAvail:
		return "avail"
	case KindCompute:
		return "compute"
	default:
		return fmt.Sprintf("edge(%d)", int(k))
	}
}

// Breakdown decomposes a stretch of cycles into the LogP constraint classes
// that account for them.
type Breakdown struct {
	Latency  logp.Time // cycles in flight (L per traversed message)
	Overhead logp.Time // send/receive overhead cycles (o per port action)
	Gap      logp.Time // port spacing cycles (g per binding gap edge)
	Compute  logp.Time // local computation cycles
	Origin   logp.Time // time before the path's root item was injected
	Wait     logp.Time // cycles no constraint demanded (idle / buffer wait)
}

// Total returns the sum of all components.
func (b Breakdown) Total() logp.Time {
	return b.Latency + b.Overhead + b.Gap + b.Compute + b.Origin + b.Wait
}

// Sub returns the componentwise difference a - r.
func (b Breakdown) Sub(r Breakdown) Breakdown {
	return Breakdown{
		Latency:  b.Latency - r.Latency,
		Overhead: b.Overhead - r.Overhead,
		Gap:      b.Gap - r.Gap,
		Compute:  b.Compute - r.Compute,
		Origin:   b.Origin - r.Origin,
		Wait:     b.Wait - r.Wait,
	}
}

// Scaled returns a breakdown with the same component proportions as b whose
// components sum exactly to total (largest-remainder rounding, deterministic
// tie-break by component order). It is the generic reference for SetBound
// when no closed-form decomposition of a bound is known: the attribution
// then charges each constraint class in proportion to its achieved share.
// Scaling to b's own total returns b unchanged, so a schedule that meets its
// bound exactly always attributes a zero gap.
func (b Breakdown) Scaled(total logp.Time) Breakdown {
	t := b.Total()
	if t == total {
		return b
	}
	if t <= 0 || total <= 0 {
		return Breakdown{Latency: total}
	}
	comps := [6]logp.Time{b.Latency, b.Overhead, b.Gap, b.Compute, b.Origin, b.Wait}
	var out [6]logp.Time
	var sum logp.Time
	idx := [6]int{0, 1, 2, 3, 4, 5}
	rems := [6]logp.Time{}
	for i, c := range comps {
		// c*total overflows int64 once event times pass ~2^31 (huge-L
		// machines put both c and total there), so the product is carried
		// in 128 bits. c <= t keeps the quotient below total and the
		// remainder below t, so both always fit back into int64.
		hi, lo := bits.Mul64(uint64(c), uint64(total))
		q, r := bits.Div64(hi, lo, uint64(t))
		out[i] = logp.Time(q)
		sum += out[i]
		rems[i] = logp.Time(r)
	}
	sort.SliceStable(idx[:], func(x, y int) bool { return rems[idx[x]] > rems[idx[y]] })
	for k := logp.Time(0); k < total-sum; k++ {
		out[idx[int(k)%6]]++
	}
	return Breakdown{
		Latency: out[0], Overhead: out[1], Gap: out[2],
		Compute: out[3], Origin: out[4], Wait: out[5],
	}
}

func (b Breakdown) String() string {
	return fmt.Sprintf("L=%d o=%d g=%d compute=%d origin=%d wait=%d (total %d)",
		b.Latency, b.Overhead, b.Gap, b.Compute, b.Origin, b.Wait, b.Total())
}

// Step is one node of the critical path.
type Step struct {
	Event schedule.Event
	Index int       // index into the analyzed schedule's Events slice
	Kind  EdgeKind  // the binding constraint on this event's start
	Slack logp.Time // start minus the binding bound (wait absorbed here)
}

// Report is the result of analyzing one executed schedule.
type Report struct {
	Finish   logp.Time // completion: last availability or compute end
	Path     []Step    // critical path, origin side first
	Achieved Breakdown // decomposition of Finish along Path (identity)

	// OpSlack[i] is how many cycles event i of the analyzed schedule could
	// start later without moving Finish (0 for tight critical events).
	OpSlack []logp.Time

	// Bound / Gap / Attribution are populated by SetBound.
	Bound       logp.Time // closed-form lower bound; -1 until SetBound
	Gap         logp.Time // Finish - Bound
	Attribution Breakdown // Achieved - reference; components sum to Gap
}

// SetBound records the closed-form lower bound and its reference breakdown
// and attributes the gap: Attribution = Achieved - ref componentwise, so the
// components always sum to Finish - bound. ref.Total() must equal bound;
// pass a zero Breakdown with bound 0 when no closed form is known (the gap
// then equals Finish and the attribution is the achieved breakdown itself).
func (r *Report) SetBound(bound logp.Time, ref Breakdown) error {
	if ref.Total() != bound {
		return fmt.Errorf("causal: reference breakdown totals %d, bound is %d", ref.Total(), bound)
	}
	r.Bound = bound
	r.Gap = r.Finish - bound
	r.Attribution = r.Achieved.Sub(ref)
	return nil
}

// CriticalSet returns the set of event indices on the critical path.
func (r *Report) CriticalSet() map[int]bool {
	set := make(map[int]bool, len(r.Path))
	for _, st := range r.Path {
		set[st.Index] = true
	}
	return set
}

// CriticalProcs returns the processors the critical path touches: each
// step's acting processor plus the peer of any send or reception on the
// path. Trace sampling uses it as the always-keep thread set, so a bounded
// trace still shows the full chain that set the finish time.
func (r *Report) CriticalProcs() map[int]bool {
	set := make(map[int]bool, len(r.Path)+1)
	for _, st := range r.Path {
		set[st.Event.Proc] = true
		if st.Event.Peer >= 0 {
			set[st.Event.Peer] = true
		}
	}
	return set
}

// Signature renders the critical path as one canonical line, usable for
// equality checks across backends (the conformance harness diffs it between
// the simulator's and the runtime's executed traces).
// It appends into one byte slice, without fmt: Check builds one per
// distinct trace, and fmt would cost an allocation per step.
func (r *Report) Signature() string {
	b := make([]byte, 0, 16+32*len(r.Path))
	b = strconv.AppendInt(append(b, "finish="...), int64(r.Finish), 10)
	for _, st := range r.Path {
		e := st.Event
		b = append(append(append(b, ' '), st.Kind.String()...), ":P"...)
		b = strconv.AppendInt(b, int64(e.Proc), 10)
		b = strconv.AppendInt(append(b, '@'), int64(e.Time), 10)
		b = append(append(append(b, '/'), e.Op.String()...), "/i"...)
		b = strconv.AppendInt(b, int64(e.Item), 10)
	}
	return string(b)
}

// String renders the report as the -explain listing: the path, one event
// per line with its binding constraint and slack, then the breakdown and —
// when SetBound was called — the gap attribution.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "critical path (%d steps, finish %d):\n", len(r.Path), r.Finish)
	for _, st := range r.Path {
		e := st.Event
		var what string
		switch e.Op {
		case schedule.OpSend:
			what = fmt.Sprintf("send item %d -> P%d", e.Item, e.Peer)
		case schedule.OpRecv:
			what = fmt.Sprintf("recv item %d <- P%d", e.Item, e.Peer)
		case schedule.OpCompute:
			what = fmt.Sprintf("compute tag %d (%d cycles)", e.Item, e.Dur)
		}
		fmt.Fprintf(&b, "  t=%-5d P%-3d %-24s via %s", e.Time, e.Proc, what, st.Kind)
		if st.Slack != 0 {
			fmt.Fprintf(&b, " (+%d wait)", st.Slack)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "breakdown: %s\n", r.Achieved)
	if r.Bound >= 0 {
		fmt.Fprintf(&b, "bound %d, gap %d", r.Bound, r.Gap)
		if r.Gap != 0 {
			fmt.Fprintf(&b, "; attribution: %s", r.Attribution)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// constraint is one incoming edge of a node: its start must be >= bound.
// from is the predecessor node index, -1 for an origin or start root.
type constraint struct {
	bound logp.Time
	from  int32
	kind  int8 // an EdgeKind
}

// node is the analysis state of event i of the analyzed schedule; the event
// itself stays in the schedule. A node has at most three constraints —
// busy, gap, and latency (a receive) or availability (a send) — held
// inline, so a node takes 72 bytes and the whole DAG one allocation.
type node struct {
	start logp.Time
	dur   logp.Time // o for send/recv, Dur for compute
	cons  [3]constraint
	ncons int8
}

func (n *node) end() logp.Time { return n.start + n.dur }

// constraints returns the node's incoming edges.
func (n *node) constraints() []constraint { return n.cons[:n.ncons] }

// add attaches one incoming edge.
func (n *node) add(from int, kind EdgeKind, bound logp.Time) {
	n.cons[n.ncons] = constraint{bound: bound, from: int32(from), kind: int8(kind)}
	n.ncons++
}

// analyzer holds the DAG under construction.
type analyzer struct {
	m     logp.Machine
	evs   []schedule.Event // the analyzed schedule's events; node i is evs[i]
	nodes []node
	order []int32 // node ids in the causal order: the event order, position breaking ties
}

// Analyze builds the causal DAG of s (with the given item origins) and
// extracts the critical path, the achieved breakdown, and per-event slack.
// The input is treated as an executed trace: receive events are taken at
// face value (buffered receptions later than arrival are legal and show up
// as wait). Nodes are taken in the event order (schedule.CompareEvents),
// input position breaking ties between identical events, so the analysis is
// deterministic in the event multiset — the event order of s is irrelevant
// — and two backends that executed the same events produce identical
// reports. Report.Bound is -1 until SetBound is called.
func Analyze(s *schedule.Schedule, origins map[int]schedule.Origin) *Report {
	if slices.IsSortedFunc(s.Events, schedule.CompareEvents) {
		x := schedule.NewIndex(s)
		av := x.Availability(origins)
		return analyze(x, &av, origins)
	}
	// Analyze the trace in the event order and map the node ids, which are
	// then positions in that order, back to positions in s.
	var sorter schedule.EventSorter
	perm := sorter.Order(s.Events)
	sorted := &schedule.Schedule{M: s.M, Events: make([]schedule.Event, len(perm))}
	for r, i := range perm {
		sorted.Events[r] = s.Events[i]
	}
	rep := Analyze(sorted, origins)
	for i := range rep.Path {
		rep.Path[i].Index = int(perm[rep.Path[i].Index])
	}
	slack := make([]logp.Time, len(perm))
	for r, i := range perm {
		slack[i] = rep.OpSlack[r]
	}
	rep.OpSlack = slack
	return rep
}

// AnalyzeIndex is Analyze of the trace x indexes, given av, the trace's
// availability table under origins: a caller that already holds both for a
// trace in the event order builds neither again. A trace in another order
// is analyzed as Analyze does it, from tables of its own.
func AnalyzeIndex(x *schedule.Index, av *schedule.AvailTable, origins map[int]schedule.Origin) *Report {
	if s := x.Schedule(); !slices.IsSortedFunc(s.Events, schedule.CompareEvents) {
		return Analyze(s, origins)
	}
	return analyze(x, av, origins)
}

// analyze is Analyze of a trace in the event order, whose node ids are its
// positions.
func analyze(x *schedule.Index, av *schedule.AvailTable, origins map[int]schedule.Origin) *Report {
	s := x.Schedule()
	a := &analyzer{m: s.M, evs: s.Events, order: make([]int32, len(s.Events))}
	for i := range a.order {
		a.order[i] = int32(i)
	}
	a.build(x, av, origins)
	rep := &Report{Bound: -1}
	finNode, finTime := a.finish(x, av, origins)
	rep.Finish = finTime
	rep.Path, rep.Achieved = a.walk(finNode, finTime)
	rep.OpSlack = a.slacks(finTime)
	return rep
}

// build creates the nodes and attaches every constraint edge. Edges are
// found in the index's tables, which list each processor's events (busy, gap
// and availability edges) and each channel's sends and receptions (latency
// edges) in the causal order, and in av, which gives each send's earliest
// availability, so the whole construction is O(n log n) in the event count,
// and its memory O(n) whatever the machine's P.
func (a *analyzer) build(x *schedule.Index, av *schedule.AvailTable, origins map[int]schedule.Origin) {
	m := a.m
	a.nodes = make([]node, len(a.evs))
	for i := range a.evs {
		ev := &a.evs[i]
		dur := m.O
		if ev.Op == schedule.OpCompute {
			dur = ev.Dur
		}
		a.nodes[i] = node{start: ev.Time, dur: dur}
	}
	// port is the last send, reception or event of an unknown kind of one
	// op at the processor whose events are being walked.
	type port struct {
		op   schedule.Op
		last int32
	}
	var ports []port
	var recvs []int32
	at := 0 // the walk's cursor in av
	byProc := x.ByProc()
	for g := range byProc.Len() {
		proc, ids := byProc.Group(g)
		ports, recvs = ports[:0], recvs[:0]
		for i, id := range ids {
			ev := &a.evs[id]
			// Busy edges: each node follows its processor's previous node.
			if i > 0 {
				prev := ids[i-1]
				if pn := &a.nodes[prev]; pn.dur > 0 { // zero-duration events impose no busy constraint
					kind := KindBusy
					if a.evs[prev].Op == schedule.OpCompute {
						kind = KindCompute
					}
					a.nodes[id].add(int(prev), kind, pn.end())
				}
			}
			// Gap edges: each send or receive follows its port's previous one.
			if ev.Op == schedule.OpCompute {
				continue
			}
			if ev.Op == schedule.OpRecv {
				recvs = append(recvs, id)
			}
			k := slices.IndexFunc(ports, func(p port) bool { return p.op == ev.Op })
			if k < 0 {
				ports = append(ports, port{ev.Op, id})
				continue
			}
			prev := int(ports[k].last)
			a.nodes[id].add(prev, KindGap, a.nodes[prev].start+m.G)
			ports[k].last = id
		}

		// Availability edges: each send needs its item; the provider is
		// whatever made it available earliest at the sender — the item's
		// origin there, or the sender's first reception of it. av holds
		// that earliest time, so the origins are consulted only when a
		// reception makes the item available at the same instant.
		byItem := func(x, y int32) int {
			if c := cmp.Compare(a.evs[x].Item, a.evs[y].Item); c != 0 {
				return c
			}
			return cmp.Compare(x, y)
		}
		if !slices.IsSortedFunc(recvs, byItem) {
			slices.SortFunc(recvs, byItem)
		}
		avails := av.Next(&at, proc)
		for _, id := range ids {
			ev := &a.evs[id]
			if ev.Op != schedule.OpSend {
				continue
			}
			k, ok := slices.BinarySearchFunc(avails, ev.Item, func(x schedule.Avail, item int) int { return cmp.Compare(x.Item, item) })
			if !ok {
				continue // neither an origin nor a reception
			}
			t := avails[k].Time
			j, _ := slices.BinarySearchFunc(recvs, ev.Item, func(r int32, item int) int { return cmp.Compare(a.evs[r].Item, item) })
			if j == len(recvs) || a.evs[recvs[j]].Item != ev.Item || t < a.nodes[recvs[j]].end() {
				a.nodes[id].add(-1, KindOrigin, t)
			} else if og, ok := origins[ev.Item]; ok && og.Proc == proc && og.Time == t {
				a.nodes[id].add(-1, KindOrigin, t) // an origin wins a tie with a reception
			} else {
				a.nodes[id].add(int(recvs[j]), KindAvail, t)
			}
		}
	}

	// Latency edges: match each recv to an unused send of the same message
	// identity whose arrival is at or before the reception (buffered
	// receptions may start late), preferring the latest such arrival; an
	// exact-arrival strict trace matches one-to-one.
	var pick sendPicker
	var arrivals []logp.Time
	x.EachChannel(func(_, _, _ int, sends, recvs []int32) {
		arrivals = arrivals[:0]
		for _, id := range sends {
			arrivals = append(arrivals, a.nodes[id].start+m.O+m.L)
		}
		pick.reset(arrivals)
		for _, r := range recvs {
			rn := &a.nodes[r]
			best := pick.latest(rn.start)
			if best < 0 { // violating trace: fall back to the earliest unused send
				best = pick.earliest()
			}
			if best < 0 {
				continue
			}
			pick.claim(best)
			sid := int(sends[best])
			rn.add(sid, KindLatency, a.nodes[sid].start+m.O+m.L)
		}
	})
}

// sendPicker answers the latency matcher's two queries over one channel's
// sends, indexed in causal order: the latest unused send arriving by a time,
// and the earliest unused send. A segment tree holds, per subtree, the
// number of unused sends and the earliest arrival among them, so each query
// and each claim costs O(log k) whatever the arrival values. Arrivals need
// not rise with send order: send + o + L wraps on a machine whose L is near
// the int64 limit, which Machine.Validate and ReadJSON accept.
type sendPicker struct {
	size   int         // leaf count, a power of two; leaf i is node size+i
	unused []int32     // unused sends per subtree
	arrive []logp.Time // earliest arrival among a subtree's unused sends
}

func (p *sendPicker) reset(arrivals []logp.Time) {
	p.size = 1
	for p.size < len(arrivals) {
		p.size *= 2
	}
	p.unused = slices.Grow(p.unused[:0], 2*p.size)[:2*p.size]
	p.arrive = slices.Grow(p.arrive[:0], 2*p.size)[:2*p.size]
	for i := range p.size {
		p.unused[p.size+i] = 0
		if i < len(arrivals) {
			p.unused[p.size+i], p.arrive[p.size+i] = 1, arrivals[i]
		}
	}
	for j := p.size - 1; j >= 1; j-- {
		p.pull(j)
	}
}

func (p *sendPicker) pull(j int) {
	l, r := 2*j, 2*j+1
	p.unused[j] = p.unused[l] + p.unused[r]
	switch {
	case p.unused[l] == 0:
		p.arrive[j] = p.arrive[r]
	case p.unused[r] == 0:
		p.arrive[j] = p.arrive[l]
	default:
		p.arrive[j] = min(p.arrive[l], p.arrive[r])
	}
}

// latest returns the highest-indexed unused send arriving at or before t,
// or -1.
func (p *sendPicker) latest(t logp.Time) int {
	ok := func(j int) bool { return p.unused[j] > 0 && p.arrive[j] <= t }
	if !ok(1) {
		return -1
	}
	j := 1
	for j < p.size {
		if j = 2*j + 1; !ok(j) {
			j--
		}
	}
	return j - p.size
}

// earliest returns the lowest-indexed unused send, or -1.
func (p *sendPicker) earliest() int {
	if p.unused[1] == 0 {
		return -1
	}
	j := 1
	for j < p.size {
		if j = 2 * j; p.unused[j] == 0 {
			j++
		}
	}
	return j - p.size
}

// claim marks send i used.
func (p *sendPicker) claim(i int) {
	j := p.size + i
	p.unused[j] = 0
	for j /= 2; j >= 1; j /= 2 {
		p.pull(j)
	}
}

// finish determines the run's completion time — the latest item availability
// across all (processor, item) pairs of av, or the end of the last compute
// if that is later — and the node that realizes it (-1 when an origin
// injection or an empty schedule realizes it). Among equally late pairs the
// least (processor, item) wins, and within a pair an origin beats receptions
// and an earlier reception in causal order beats a later one.
func (a *analyzer) finish(x *schedule.Index, av *schedule.AvailTable, origins map[int]schedule.Origin) (int, logp.Time) {
	var best schedule.Avail
	havePI := false
	for _, r := range av.Recs { // ascending (proc, item): the first maximum wins ties
		if !havePI || r.Time > best.Time {
			best, havePI = r, true
		}
	}
	bestNode, bestT := -1, best.Time
	if og, ok := origins[best.Item]; havePI && (!ok || og.Proc != best.Proc || og.Time != best.Time) {
		for _, id := range x.ByProc().Find(best.Proc) {
			if ev := &a.evs[id]; ev.Op == schedule.OpRecv && ev.Item == best.Item && a.nodes[id].end() == bestT {
				bestNode = int(id)
				break
			}
		}
	}
	for _, id := range a.order {
		n := &a.nodes[id]
		if a.evs[id].Op == schedule.OpCompute && (n.end() > bestT || !havePI) {
			havePI, bestT, bestNode = true, n.end(), int(id)
		}
	}
	if !havePI {
		return -1, 0
	}
	return bestNode, bestT
}

// binding returns the constraint with the latest bound (ties broken by kind
// order, then predecessor index) and reports whether any constraint exists.
func (a *analyzer) binding(id int) (constraint, bool) {
	cons := a.nodes[id].constraints()
	if len(cons) == 0 {
		return constraint{}, false
	}
	best := cons[0]
	for _, c := range cons[1:] {
		if c.bound > best.bound ||
			(c.bound == best.bound && (c.kind > best.kind ||
				(c.kind == best.kind && c.from < best.from))) {
			best = c
		}
	}
	return best, true
}

// walk extracts the critical path ending at finNode and its breakdown. The
// decomposition telescopes exactly to finTime.
func (a *analyzer) walk(finNode int, finTime logp.Time) ([]Step, Breakdown) {
	var bd Breakdown
	if finNode < 0 {
		bd.Origin = finTime // an origin injection (or nothing) realizes the finish
		return nil, bd
	}
	fin := &a.nodes[finNode]
	switch a.evs[finNode].Op {
	case schedule.OpCompute:
		bd.Compute += fin.dur
	default:
		bd.Overhead += fin.dur // the final reception's own overhead
	}
	var rev []Step
	onPath := make([]bool, len(a.nodes))
	id := finNode
	for {
		n := &a.nodes[id]
		onPath[id] = true
		c, ok := a.binding(id)
		// A binding constraint from an event already on the path closes a
		// cycle, which only a violating trace has (a send whose item a
		// reception after it provides, say): the walk ends there, as at a
		// root.
		if !ok || (c.from >= 0 && onPath[c.from]) {
			rev = append(rev, Step{Event: a.evs[id], Index: id, Kind: KindStart, Slack: n.start})
			bd.Wait += n.start
			break
		}
		kind := EdgeKind(c.kind)
		rev = append(rev, Step{Event: a.evs[id], Index: id, Kind: kind, Slack: n.start - c.bound})
		bd.Wait += n.start - c.bound
		switch kind {
		case KindLatency:
			bd.Latency += a.m.L
			bd.Overhead += a.m.O
		case KindGap:
			bd.Gap += a.m.G
		case KindBusy, KindAvail:
			bd.Overhead += a.nodes[c.from].dur
		case KindCompute:
			bd.Compute += a.nodes[c.from].dur
		case KindOrigin:
			bd.Origin += c.bound
		}
		if c.from < 0 || kind == KindOrigin {
			break
		}
		id = int(c.from)
	}
	path := make([]Step, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		path = append(path, rev[i])
	}
	return path, bd
}

// slacks runs the backward pass: for every node, the latest start that moves
// neither the finish time nor any successor past its own latest start. The
// returned slice is indexed by node id; negative slack marks a constraint
// the trace violated.
func (a *analyzer) slacks(finTime logp.Time) []logp.Time {
	latest := make([]logp.Time, len(a.nodes))
	for id := range a.nodes {
		latest[id] = finTime - a.nodes[id].dur
	}
	relax := func(id int32) {
		for _, c := range a.nodes[id].constraints() {
			if c.from < 0 {
				continue
			}
			// The constraint is start(n) >= start(from) + delta, so from may
			// start no later than latest(n) - delta.
			delta := c.bound - a.nodes[c.from].start
			if lim := latest[id] - delta; lim < latest[c.from] {
				latest[c.from] = lim
			}
		}
	}
	// Process in reverse causal order, read off the causal order one start
	// time at a time: descending start, and within one start the sends
	// first, so an o=0 availability edge (recv -> send at the same instant)
	// sees its successor's final value.
	for hi := len(a.order); hi > 0; {
		t, lo := a.nodes[a.order[hi-1]].start, hi-1
		for lo > 0 && a.nodes[a.order[lo-1]].start == t {
			lo--
		}
		for _, sends := range []bool{true, false} {
			for i := hi - 1; i >= lo; i-- {
				if id := a.order[i]; (a.evs[id].Op == schedule.OpSend) == sends {
					relax(id)
				}
			}
		}
		hi = lo
	}
	out := make([]logp.Time, len(a.nodes))
	for id := range a.nodes {
		out[id] = latest[id] - a.nodes[id].start
	}
	return out
}
