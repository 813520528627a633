// allreduce-stencil: an iterative 1-D Jacobi solver whose convergence test
// needs a global residual every sweep — the classic HPC inner loop that
// makes all-reduce latency matter. The global residual is combined with
// Theorem 4.1's optimal combining-broadcast schedule, executed as real
// concurrent message-passing code on the runtime: one handler per
// processor, payload-carrying messages, virtual LogP time.
//
//	go run ./examples/allreduce-stencil
package main

import (
	"fmt"
	"log"
	"math"

	logpopt "logpopt"
)

const (
	latency = 3  // postal L
	horizon = 7  // T: all-reduce completes in T steps over P = f_T procs
	cells   = 32 // grid cells per processor
	sweeps  = 20
)

// procState is each processor's private solver state.
type procState struct {
	u, next  []float64
	residual float64 // local residual of the last sweep
	value    float64 // current combining value
	step     int     // step within the current all-reduce phase
	history  []float64
}

func main() {
	seq := logpopt.NewSeq(latency)
	p := int(seq.F(horizon)) // 9 processors for L=3, T=7
	m := logpopt.Postal(p, latency)
	fmt.Printf("machine: %v; all-reduce completes in T=%d steps (optimal)\n", m, horizon)

	// The Theorem 4.1 offsets: at phase-step j, processor i sends its value
	// to i + f_{j+L-1} (mod P).
	offsets := make([]int, horizon-latency+1)
	for j := range offsets {
		offsets[j] = int(seq.F(j+latency-1)) % p
	}

	phase := int64(horizon + 1) // virtual steps per all-reduce phase
	handlers := make([]logpopt.Handler, p)
	for i := 0; i < p; i++ {
		st := &procState{u: make([]float64, cells), next: make([]float64, cells)}
		for c := range st.u {
			st.u[c] = float64((i*cells+c)%17) / 17.0 // deterministic initial values
		}
		handlers[i] = func(pr *logpopt.Proc, now int64) {
			if pr.State == nil {
				pr.State = st
			}
			j := int(now % phase)
			if j == 0 {
				// New sweep: local Jacobi relaxation, then start the
				// all-reduce with the local residual.
				st.residual = 0
				st.next[0], st.next[cells-1] = st.u[0], st.u[cells-1] // fixed boundaries
				for c := 1; c < cells-1; c++ {
					st.next[c] = 0.5 * (st.u[c-1] + st.u[c+1])
					d := st.next[c] - st.u[c]
					st.residual += d * d
				}
				st.u, st.next = st.next, st.u
				st.value = st.residual
				st.step = 0
			}
			// Combine arrivals (values sent L steps ago).
			for _, msg := range pr.Received() {
				st.value += msg.Payload.(float64)
			}
			// Send while inside the sending window of the phase.
			if st.step <= horizon-latency {
				to := (pr.ID + offsets[st.step]) % p
				if err := pr.Send(now, to, int(now), st.value); err != nil {
					log.Fatal(err)
				}
			}
			if j == horizon { // phase complete: every proc has the global sum
				st.history = append(st.history, st.value)
			}
			st.step++
			// The solver works every cycle, not only when messages arrive.
			pr.WakeAt(now + 1)
		}
	}

	rt, err := logpopt.NewRuntime(m, logpopt.RTStrict, handlers)
	if err != nil {
		log.Fatal(err)
	}
	rt.Run(phase * sweeps)
	if vs := rt.Violations(); len(vs) != 0 {
		log.Fatalf("runtime violations: %v", vs)
	}

	// Every processor must hold the identical global residual per sweep.
	ref := rt.Proc(0).State.(*procState).history
	for i := 1; i < p; i++ {
		h := rt.Proc(i).State.(*procState).history
		for s := range ref {
			if math.Abs(h[s]-ref[s]) > 1e-12 {
				log.Fatalf("sweep %d: proc %d residual %g != proc 0's %g", s, i, h[s], ref[s])
			}
		}
	}
	fmt.Printf("ran %d sweeps on %d goroutine-processors; residual agreed on all processors every sweep\n",
		len(ref), p)
	fmt.Println("global residual trajectory (should decay):")
	for s, r := range ref {
		if s%4 == 0 || s == len(ref)-1 {
			fmt.Printf("  sweep %2d: %.6f\n", s, math.Sqrt(r))
		}
	}
	fmt.Printf("\neach sweep costs %d virtual cycles of communication — the optimal\n", horizon)
	fmt.Printf("all-reduce time for %d processors at L=%d (Theorem 4.1); a reduce-then-\n", p, latency)
	fmt.Printf("broadcast implementation would cost %d.\n",
		logpopt.ReduceThenBroadcastTime(m, p))
}
