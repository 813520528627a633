package bench

import (
	"fmt"
	"strings"

	"logpopt/internal/continuous"
	"logpopt/internal/core"
	"logpopt/internal/kitem"
	"logpopt/internal/logp"
	"logpopt/internal/logtime"
	"logpopt/internal/schedule"
	"logpopt/internal/summation"
	"logpopt/internal/trace"
)

// Figure1 regenerates Figure 1: the optimal broadcast tree for P=8, L=6,
// g=4, o=2 and each processor's activity over time.
func Figure1() (string, error) {
	m := logp.ProfilePaperFig1
	tr := logtime.Tree(m, m.P)
	s := logtime.BroadcastSchedule(m, 0)
	if vs := schedule.ValidateBroadcast(s, core.Origins(0)); len(vs) != 0 {
		return "", fmt.Errorf("bench: figure 1 schedule invalid: %v", vs[0])
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1: optimal broadcast tree, %v; B(8) = %d\n\n", m, tr.MaxLabel())
	b.WriteString("Tree (node @availability-time):\n")
	b.WriteString(tr.String())
	b.WriteString("\nActivity (S/s send overhead, R/r receive overhead):\n")
	b.WriteString(trace.Gantt(s))
	return b.String(), nil
}

// Figure2 regenerates Figure 2: the optimal tree T9 for L=3, P-1=9, the
// continuous broadcast schedule, and the complete 8-item broadcast schedule
// finishing at time 17.
func Figure2() (string, error) {
	const l, t, k = 3, 7, 8
	inst, s, err := continuous.SolveAndSchedule(l, t, k)
	if err != nil {
		return "", err
	}
	if vs := schedule.ValidateBroadcast(s, continuous.Origins(k)); len(vs) != 0 {
		return "", fmt.Errorf("bench: figure 2 schedule invalid: %v", vs[0])
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: L=%d, P-1=%d, k=%d (postal model)\n\n", l, inst.P, k)
	b.WriteString("Optimal broadcast tree T9 (node @delay):\n")
	b.WriteString(inst.Tree.String())
	fmt.Fprintf(&b, "\nBlocks and words (delays; receive-only gets delay %d):\n", inst.RecvOnlyDelay)
	for _, blk := range inst.Blocks {
		fmt.Fprintf(&b, "  block size %d (node delay %d): word %v\n", blk.Size, blk.Delay, blk.Word)
	}
	fmt.Fprintf(&b, "\nBroadcast schedule for %d values (reception table, items 1-based);\n", k)
	fmt.Fprintf(&b, "every item's delay is exactly L+B(P-1) = %d and the last reception is at %d:\n",
		inst.Delay(), s.LastRecv())
	b.WriteString(trace.ReceptionTable(s))
	return b.String(), nil
}

// Figure3 regenerates Figure 3: the block transmission digraph for L=3 and
// P-1 = P(11) = 41.
func Figure3() (string, error) {
	inst, _, err := continuous.SolveAndSchedule(3, 11, 1)
	if err != nil {
		return "", err
	}
	a, err := inst.Assign()
	if err != nil {
		return "", err
	}
	g := kitem.DeriveBlockDigraph(a)
	if err := g.Verify(); err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: block transmission digraph, L=3, P-1=P(11)=%d\n", inst.P)
	b.WriteString("(weights into and out of each block of size r sum to r;\n")
	b.WriteString(" the receive-only vertex has in-weight 1, out-weight 0)\n\n")
	b.WriteString(g.String())
	return b.String(), nil
}

// Figure4 regenerates Figure 4's view: the reception table of a block of
// size 7 with L=5 over k=16 items (the paper's endgame illustration; here
// the table comes from the block-cyclic optimal schedule, whose block of
// size 7 is the root block of T11).
func Figure4() (string, error) {
	const l, t, k = 5, 11, 16
	inst, s, err := continuous.SolveAndSchedule(l, t, k)
	if err != nil {
		return "", err
	}
	a, err := inst.Assign()
	if err != nil {
		return "", err
	}
	var procs []int
	for bi, blk := range inst.Blocks {
		if blk.Size == 7 {
			procs = a.BlockProcs[bi]
			break
		}
	}
	if procs == nil {
		return "", fmt.Errorf("bench: no size-7 block in L=%d t=%d", l, t)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: reception table of the size-7 block, L=%d, k=%d (items 1-based)\n", l, k)
	fmt.Fprintf(&b, "(block processors %v; each receives every item exactly once,\n", procs)
	b.WriteString(" its own active items r=7 steps apart)\n\n")
	b.WriteString(trace.BlockTable(s, procs))
	return b.String(), nil
}

// Figure5 regenerates Figure 5: the complete optimal 14-item broadcast for
// L=3, P-1=13, finishing at time 24 = B(13)+L+k-1. The paper achieves it on
// the buffered model; the block-cyclic schedule achieves the same bound with
// no buffering (P-1 = P(8) = 13).
func Figure5() (string, error) {
	const l, t, k = 3, 8, 14
	inst, s, err := continuous.SolveAndSchedule(l, t, k)
	if err != nil {
		return "", err
	}
	if got := s.LastRecv(); got != 24 {
		return "", fmt.Errorf("bench: figure 5 finishes at %d, want 24", got)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: L=%d, P-1=%d, k=%d; finishes at %d = B(P-1)+L+k-1 (items 1-based)\n\n",
		l, inst.P, k, s.LastRecv())
	b.WriteString(trace.ReceptionTable(s))
	return b.String(), nil
}

// Figure6 regenerates Figure 6: the optimal summation schedule for t=28,
// P=8, L=5, g=4, o=2 — the computation chart and the communication tree.
func Figure6() (string, error) {
	m := logp.ProfilePaperFig6
	pl, err := summation.Build(m, 28)
	if err != nil {
		return "", err
	}
	s := pl.Schedule()
	if vs := schedule.Validate(s); len(vs) != 0 {
		return "", fmt.Errorf("bench: figure 6 schedule invalid: %v", vs[0])
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: optimal summation, t=28, %v; n(t) = %d operands\n\n", m, pl.N)
	b.WriteString("Computation schedule (+ local add/fold, R/r receive, S/s send):\n")
	b.WriteString(trace.Gantt(s))
	b.WriteString("\nCommunication tree (node @ broadcast-delay; sends at t-delay):\n")
	b.WriteString(pl.Tree.String())
	fmt.Fprintf(&b, "\nPer-processor: sendAt / receptions / local operands:\n")
	for ni := range pl.Tree.Nodes {
		fmt.Fprintf(&b, "  P%d: sends at %d, %d receptions, %d local operands\n",
			ni, pl.SendAt[ni], len(pl.Tree.Nodes[ni].Children), pl.Locals[ni])
	}
	return b.String(), nil
}
