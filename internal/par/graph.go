package par

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// Graph is a set of named stages, each a function that runs once every
// stage it depends on has finished. Stages communicate through the
// variables their functions close over; a dependency is what makes one
// stage's writes visible to another's reads. A Graph runs once.
type Graph struct {
	stages []graphStage
}

type graphStage struct {
	name string
	fn   func()
	deps []Stage
}

// Stage names a stage of a Graph as a dependency of later ones.
type Stage int

// Add appends a stage that runs fn once every stage in deps has finished
// and returns its handle. Dependencies can only name stages added before,
// so the graph is acyclic and its add order is a valid sequential order.
func (g *Graph) Add(name string, fn func(), deps ...Stage) Stage {
	g.stages = append(g.stages, graphStage{name: name, fn: fn, deps: deps})
	return Stage(len(g.stages) - 1)
}

// StagePanic is the value Run panics with when a stage panicked: the
// stage's name, the value it panicked with and the stack it panicked on.
type StagePanic struct {
	Stage string
	Value any
	Stack []byte
}

func (p *StagePanic) Error() string {
	return fmt.Sprintf("par: stage %s panicked: %v\n\n%s", p.Stage, p.Value, p.Stack)
}

// Run executes the graph and returns when every stage has finished. With
// Limit() == 1 the stages run on the caller's goroutine in add order.
// Otherwise up to min(Limit(), stages) workers each take, among the stages
// whose dependencies have finished, the one heading the longest chain of
// dependents (ties to the earliest added), so long chains start early.
//
// A stage's panic is recovered where it happens; the stages depending on
// it are skipped and every other stage still runs. Once all have finished,
// Run panics on the caller's goroutine with a *StagePanic for the
// earliest-added stage that panicked, which for deterministic stages is the
// same stage at every width.
func (g *Graph) Run() {
	n := len(g.stages)
	failed := make([]bool, n) // panicked, or skipped behind a failed dependency
	panics := make([]*StagePanic, n)
	run := func(i int) {
		for _, d := range g.stages[i].deps {
			if failed[d] {
				failed[i] = true
				return
			}
		}
		defer func() {
			if v := recover(); v != nil {
				failed[i] = true
				panics[i] = &StagePanic{Stage: g.stages[i].name, Value: v, Stack: debug.Stack()}
			}
		}()
		g.stages[i].fn()
	}
	if w := workers(n); w == 1 {
		for i := range g.stages {
			run(i)
		}
	} else {
		g.runPool(w, run)
	}
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// runPool is Run's scheduler for w > 1 workers. One mutex guards the ready
// set; run(i) executes without it, and its writes to failed and panics are
// published to the dependents' workers by the mutex.
func (g *Graph) runPool(w int, run func(int)) {
	n := len(g.stages)
	// level[i] is the length of the longest dependency chain stage i heads.
	level := make([]int, n)
	dependents := make([][]int, n)
	waiting := make([]int, n) // unfinished dependencies
	for i := n - 1; i >= 0; i-- {
		level[i]++
		for _, d := range g.stages[i].deps {
			level[d] = max(level[d], level[i])
			dependents[d] = append(dependents[d], i)
		}
		waiting[i] = len(g.stages[i].deps)
	}
	var mu sync.Mutex
	ready := sync.NewCond(&mu)
	started := make([]bool, n)
	left := n // stages not yet started
	var wg sync.WaitGroup
	wg.Add(w)
	for range w {
		go func() {
			active.Add(1)
			defer active.Add(-1)
			defer wg.Done()
			mu.Lock()
			defer mu.Unlock()
			for left > 0 {
				next := -1
				for i := range n {
					if !started[i] && waiting[i] == 0 && (next < 0 || level[i] > level[next]) {
						next = i
					}
				}
				if next < 0 {
					ready.Wait()
					continue
				}
				started[next] = true
				left--
				mu.Unlock()
				run(next)
				mu.Lock()
				for _, d := range dependents[next] {
					waiting[d]--
				}
				ready.Broadcast()
			}
		}()
	}
	wg.Wait()
}
