package logpopt_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"logpopt"
)

// heapSearch names internal/core's heap-search entry points: the search
// itself and the functions that run it.
var heapSearch = map[string]bool{"OptimalTree": true, "B": true, "Pt": true, "BroadcastSchedule": true}

// searchCallers are the only non-test files outside internal/core that may
// run the heap search. Both compare it against internal/logtime.
var searchCallers = map[string]bool{
	"internal/conform/construct.go": true, // SearchConstructor, behind make conform-logtime
	"internal/bench/construct.go":   true, // ConstructionTable's "identical" column
}

// TestOneTreeBuilder enforces the one-builder rule: production code builds
// ß(P) with internal/logtime, and the heap search is the oracle. It parses
// every non-test Go file of the module (perfbench, its own module, aside)
// and fails on any reference to a heapSearch function of internal/core from
// a file outside internal/core and searchCallers.
func TestOneTreeBuilder(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		if d.IsDir() {
			if path == "perfbench" || path == "internal/core" || d.Name() == "testdata" ||
				path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		core := ""
		for _, im := range f.Imports {
			if im.Path.Value == `"logpopt/internal/core"` {
				core = "core"
				if im.Name != nil {
					core = im.Name.Name
				}
			}
		}
		if core == "." {
			t.Errorf("%s: dot-imports internal/core, which hides heap-search calls from this check", path)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !heapSearch[sel.Sel.Name] {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == core {
				used[path] = true
				if !searchCallers[path] {
					t.Errorf("%s: %s.%s runs the heap search; build the tree with internal/logtime",
						fset.Position(sel.Pos()), core, sel.Sel.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for path := range searchCallers {
		if !used[path] {
			t.Errorf("%s no longer runs the heap search; drop it from searchCallers", path)
		}
	}
}

// TestLogtimeImportsNoCollective: internal/logtime builds the tree the
// collectives use, so it must not depend on them.
func TestLogtimeImportsNoCollective(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "./internal/logtime").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	deps := strings.Fields(string(out))
	if !slices.Contains(deps, "logpopt/internal/core") {
		t.Fatalf("go list -deps ./internal/logtime = %v, which lacks internal/core", deps)
	}
	for _, pkg := range []string{"logpopt/internal/combine", "logpopt/internal/summation"} {
		if slices.Contains(deps, pkg) {
			t.Errorf("internal/logtime depends on %s", pkg)
		}
	}
}

// TestCapacityQueriesAllocateNoTimeTable: capacity and reachability read
// the counting tables, so a deadline of 2^26 cycles costs what a small one
// does. A time-indexed memo would allocate 512 MiB here.
func TestCapacityQueriesAllocateNoTimeTable(t *testing.T) {
	m := logpopt.ProfilePaperFig1.WithP(4)
	const deadline = logpopt.Time(1) << 26
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := logpopt.SummationCapacity(m, deadline)
	tt := logpopt.SummationTimeFor(m, n)
	p := logpopt.Reachable(m, deadline, 0)
	runtime.ReadMemStats(&after)
	if tt != deadline {
		t.Fatalf("SummationTimeFor(n(%d) = %d) = %d", deadline, n, tt)
	}
	if p != 1<<40 {
		t.Fatalf("Reachable(%d) = %d, want the default cap 2^40", deadline, p)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("capacity queries at t = 2^26 allocated %d bytes, want < 1 MiB", d)
	}
}

// TestReachableRetainsNoTables: Reachable counts to its cap on a private
// builder, so the label points a postal machine with L = 2^16 needs to reach the default
// cap (tens of MB) are garbage once the call returns.
func TestReachableRetainsNoTables(t *testing.T) {
	m := logpopt.Postal(2, 1<<16)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	n := logpopt.Reachable(m, 1<<30, 0)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if n != 1<<40 {
		t.Fatalf("Reachable = %d, want the default cap 2^40", n)
	}
	if d := int64(after.HeapAlloc) - int64(before.HeapAlloc); d >= 1<<20 {
		t.Fatalf("Reachable(Postal(2, 2^16), 2^30, 0) left %d bytes of heap behind, want < 1 MiB", d)
	}
}
