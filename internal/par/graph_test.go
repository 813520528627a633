package par

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGraphWidthOneRunsInAddOrder pins the degenerate schedule: at
// Limit() == 1 the stages run on the caller's goroutine in add order,
// whatever their dependencies.
func TestGraphWidthOneRunsInAddOrder(t *testing.T) {
	withLimit(t, 1, func() {
		var g Graph
		var order []string
		rec := func(name string) func() { return func() { order = append(order, name) } }
		a := g.Add("a", rec("a"))
		b := g.Add("b", rec("b"))
		g.Add("c", rec("c"), a)
		g.Add("d", rec("d"), b, a)
		g.Add("e", rec("e"))
		g.Run()
		if want := []string{"a", "b", "c", "d", "e"}; !slices.Equal(order, want) {
			t.Fatalf("order %v, want %v", order, want)
		}
	})
}

// TestGraphRespectsDependencies runs a layered graph at several widths:
// every stage runs exactly once, and only after all of its dependencies.
func TestGraphRespectsDependencies(t *testing.T) {
	for _, lim := range []int{1, 2, 4, 16} {
		withLimit(t, lim, func() {
			for round := 0; round < 50; round++ {
				const n = 40
				var g Graph
				done := make([]atomic.Bool, n)
				runs := make([]atomic.Int32, n)
				var handles []Stage
				for i := range n {
					var deps []Stage
					for j := i - 1; j >= 0 && j >= i-7; j -= 1 + (i+j+round)%3 {
						deps = append(deps, handles[j])
					}
					handles = append(handles, g.Add("s", func() {
						for _, d := range deps {
							if !done[d].Load() {
								t.Errorf("limit %d: stage %d ran before its dependency %d", lim, i, d)
							}
						}
						runs[i].Add(1)
						done[i].Store(true)
					}, deps...))
				}
				g.Run()
				for i := range runs {
					if got := runs[i].Load(); got != 1 {
						t.Fatalf("limit %d: stage %d ran %d times", lim, i, got)
					}
				}
			}
		})
	}
}

// TestGraphUsesWorkers shows that independent stages overlap: two stages
// that each wait for the other to start only finish when both run at once.
func TestGraphUsesWorkers(t *testing.T) {
	withLimit(t, 2, func() {
		var g Graph
		var wg sync.WaitGroup
		wg.Add(2)
		meet := func() {
			wg.Done()
			wg.Wait()
		}
		g.Add("left", meet)
		g.Add("right", meet)
		finished := make(chan struct{})
		go func() {
			g.Run()
			close(finished)
		}()
		select {
		case <-finished:
		case <-time.After(10 * time.Second):
			t.Fatal("two independent stages did not run concurrently at width 2")
		}
	})
}

// TestGraphPanicReachesCaller runs graphs with panicking stages: the panic
// is re-raised on the caller's goroutine as a *StagePanic naming the
// earliest-added panicking stage, the dependents of a panicked stage are
// skipped, independent stages still run, and no worker goroutine outlives
// Run.
func TestGraphPanicReachesCaller(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, lim := range []int{1, 2, 4} {
		withLimit(t, lim, func() {
			var ran sync.Map
			mark := func(name string) func() { return func() { ran.Store(name, true) } }
			var g Graph
			src := g.Add("source", mark("source"))
			bad := g.Add("replay", func() { panic("engine exploded") }, src)
			g.Add("after-replay", mark("after-replay"), bad)
			g.Add("independent", mark("independent"), src)
			g.Add("late-panic", func() { panic("second failure") })
			p := runCatching(&g)
			sp, ok := p.(*StagePanic)
			if !ok {
				t.Fatalf("limit %d: Run panicked with %T %v, want *StagePanic", lim, p, p)
			}
			if sp.Stage != "replay" || sp.Value != "engine exploded" || len(sp.Stack) == 0 {
				t.Fatalf("limit %d: got stage %q value %v (stack %d bytes), want stage replay",
					lim, sp.Stage, sp.Value, len(sp.Stack))
			}
			for _, name := range []string{"source", "independent"} {
				if _, ok := ran.Load(name); !ok {
					t.Errorf("limit %d: independent stage %s did not run", lim, name)
				}
			}
			if _, ok := ran.Load("after-replay"); ok {
				t.Errorf("limit %d: a dependent of the panicked stage ran", lim)
			}
		})
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d after the panicking graphs, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func runCatching(g *Graph) (p any) {
	defer func() { p = recover() }()
	g.Run()
	return nil
}
