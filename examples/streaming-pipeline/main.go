// streaming-pipeline: continuous broadcast of a live item stream. A source
// processor produces one item per time step (think market ticks or sensor
// frames) and every other processor must see every item with bounded delay.
// Section 3's block-cyclic schedule achieves the optimal worst-case delay
// L + B(P-1) with zero buffering; this program builds the schedule, replays
// it on the event-driven runtime as concurrent message-passing code, and
// measures every item's actual delay.
//
//	go run ./examples/streaming-pipeline
package main

import (
	"fmt"
	"log"

	logpopt "logpopt"
)

const (
	latency = 3
	horizon = 9 // t: P-1 = P(t) = 19 subscribers
	items   = 40
)

func main() {
	inst, sched, err := logpopt.ContinuousSolveAndSchedule(latency, horizon, items)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stream fan-out: 1 source -> %d subscribers, postal L=%d\n", inst.P, latency)
	fmt.Printf("per-item delay bound: L + B(P-1) = %d steps (optimal; Theorem 3.3)\n", inst.Delay())

	// Validate against the model's rules and the delivery requirements.
	if vs := logpopt.ValidateBroadcastSchedule(sched, logpopt.ContinuousOrigins(items)); len(vs) != 0 {
		log.Fatalf("schedule invalid: %v", vs[0])
	}

	// Run it as real concurrent code: one replay handler per processor.
	m := sched.M
	rt, err := logpopt.NewRuntime(m, logpopt.RTStrict, logpopt.ScheduleHandlers(sched))
	if err != nil {
		log.Fatal(err)
	}
	rt.Run(logpopt.RuntimeHorizon(sched))
	if vs := rt.Violations(); len(vs) != 0 {
		log.Fatalf("runtime violations: %v", vs)
	}

	// Measure the actual delay of every item from the runtime's trace.
	worst, err := logpopt.VerifyContinuousDelay(rt.Trace(), items, inst.Delay())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ran %d items through %d goroutines: worst observed delay %d steps (bound %d)\n",
		items, m.P, worst, inst.Delay())

	// Show the steady-state structure: the per-block cyclic words.
	fmt.Println("\nblock-cyclic structure (per internal tree node):")
	for _, b := range inst.Blocks {
		fmt.Printf("  block of %d processors (node delay %d), word %v, receive-only delay %d\n",
			b.Size, b.Delay, b.Word, inst.RecvOnlyDelay)
	}
	fmt.Println("\nthroughput: one item enters and one item completes per step — no")
	fmt.Println("processor ever sends or receives twice in a step, and none buffers.")
}
