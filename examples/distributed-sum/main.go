// distributed-sum: execute an optimal LogP summation plan (Section 5 of the
// paper) as real concurrent message-passing code. Each processor's handler
// folds its local operands at the plan's cycles, folds partial sums the
// moment they arrive, and transmits its own partial sum at exactly the
// plan's send time; the root holds the total at the optimal deadline. The
// runtime is event-driven: a handler runs when a message arrives or at a
// time it asked for with WakeAt.
//
//	go run ./examples/distributed-sum
package main

import (
	"fmt"
	"log"

	logpopt "logpopt"
)

func main() {
	m := logpopt.ProfilePaperFig6 // P=8, L=5, o=2, g=4 — Figure 6's machine
	const deadline = 40

	pl, err := logpopt.BuildSummation(m, deadline)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("machine: %v\n", m)
	fmt.Printf("optimal plan: %d operands in %d cycles on %d processors\n",
		pl.N, pl.T, pl.Tree.P())

	// Distribute operands per the plan's in-order numbering (this is what
	// makes the result exact even for non-commutative operations).
	order := pl.OperandOrder()
	operands := make([]int64, pl.N)
	var want int64
	for i := range operands {
		operands[i] = int64(3*i + 1)
		want += operands[i]
	}

	// Per-processor handler: a tiny interpreter over the plan's fold ops.
	type state struct {
		acc     int64
		locals  []int64 // local operands in fold order
		nextLoc int
		opIdx   int
		sent    bool
	}
	handlers := make([]logpopt.Handler, m.P)
	for ni := 0; ni < pl.Tree.P(); ni++ {
		st := &state{}
		for _, ix := range order[ni] {
			st.locals = append(st.locals, operands[ix])
		}
		st.acc = st.locals[0]
		st.nextLoc = 1
		node := ni
		handlers[ni] = func(pr *logpopt.Proc, now int64) {
			pr.State = st
			// Fold arrivals: the runtime delivers a message at its arrival;
			// the plan folds it o+1 cycles later, but the VALUE is fixed at
			// arrival, so folding now is numerically identical.
			for _, msg := range pr.Received() {
				st.acc += msg.Payload.(int64)
			}
			// Local folds scheduled for this cycle.
			ops := pl.Ops[node]
			for st.opIdx < len(ops) && ops[st.opIdx].At <= now {
				if ops[st.opIdx].Kind == logpopt.SummationOpLocal {
					st.acc += st.locals[st.nextLoc]
					st.nextLoc++
				}
				st.opIdx++
			}
			// Transmit the partial sum at the plan's send time.
			if !st.sent && pl.Tree.Nodes[node].Parent >= 0 && now == pl.SendAt[node] {
				if err := pr.Send(now, pl.Tree.Nodes[node].Parent, node, st.acc); err != nil {
					log.Fatal(err)
				}
				st.sent = true
			}
			// Ask to run again at the next local fold or the send time,
			// whichever comes first; arrivals wake the handler by themselves.
			next := int64(-1)
			if st.opIdx < len(ops) {
				next = ops[st.opIdx].At
			}
			if !st.sent && pl.Tree.Nodes[node].Parent >= 0 && (next < 0 || pl.SendAt[node] < next) {
				next = pl.SendAt[node]
			}
			if next > now {
				pr.WakeAt(next)
			}
		}
	}

	rt, err := logpopt.NewRuntime(m, logpopt.RTStrict, handlers)
	if err != nil {
		log.Fatal(err)
	}
	rt.Run(deadline + int64(m.L) + 2*int64(m.O) + 2)
	if vs := rt.Violations(); len(vs) != 0 {
		log.Fatalf("runtime violations: %v", vs)
	}
	got := rt.Proc(0).State.(*state).acc
	status := "ok"
	if got != want {
		status = "MISMATCH"
	}
	fmt.Printf("goroutine execution: sum = %d, sequential reference = %d (%s)\n", got, want, status)
	fmt.Printf("\nthe communication pattern is the time reversal of an optimal broadcast\n")
	fmt.Printf("on the (L+1, o, g) machine; one processor alone would need %d cycles,\n", pl.N-1)
	fmt.Printf("the plan needs %d — a %.1fx speedup on %d processors.\n",
		pl.T, float64(pl.N-1)/float64(pl.T), pl.Tree.P())
}
