package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestStructureRendersMatchRetiredTools pins -render tree and dot to the
// stand-alone tools they replaced. Each golden file is the stdout of
// logpbcast, logpsum or logpcont, captured before those tools were folded
// into logpsched, and must be reassembled byte for byte from logpsched
// renders of the equivalent request plus the old tools' section headings.
// The two pieces no render carries are spelled out as literals: the
// headline the old -dot modes printed above the GraphViz text, and
// logpsum's executed-sum line.
func TestStructureRendersMatchRetiredTools(t *testing.T) {
	const (
		headline = "tree:headline" // the tree render's first line
		body     = "tree:body"     // the tree render after its first line
	)
	cases := []struct {
		golden string   // captured output, named for the retired tool
		was    string   // the retired invocation
		args   []string // the equivalent logpsched request
		parts  []string // a render name, headline, body, or literal text
	}{
		{
			"logpbcast.txt", "logpbcast -P 8 -L 6 -o 2 -g 4",
			[]string{"-op", "broadcast", "-P", "8", "-L", "6", "-o", "2", "-g", "4"},
			[]string{"tree", "\nActivity:\n", "gantt"},
		},
		{
			"logpbcast_dot.txt", "logpbcast -P 8 -L 6 -o 2 -g 4 -dot",
			[]string{"-op", "broadcast", "-P", "8", "-L", "6", "-o", "2", "-g", "4"},
			[]string{headline, "dot"},
		},
		{
			"logpsum.txt", "logpsum -P 8 -L 5 -o 2 -g 4 -t 28",
			[]string{"-op", "summation", "-P", "8", "-L", "5", "-o", "2", "-g", "4", "-t", "28"},
			[]string{headline, "executed: sum(1..79) = 3160 (ok)\n",
				"\nComputation schedule (+ add, R/r receive, S/s send):\n", "gantt", body},
		},
		{
			"logpcont.txt", "logpcont -L 3 -t 7 -k 8",
			[]string{"-op", "continuous", "-L", "3", "-P", "10", "-k", "8"},
			[]string{"tree", "\nreception table (items 1-based):\n", "table"},
		},
		{
			"logpcont_dot.txt", "logpcont -L 3 -t 11 -dot",
			[]string{"-op", "continuous", "-L", "3", "-P", "42", "-k", "8"},
			[]string{headline, "dot"},
		},
		{
			// Theorem 3.5's L=2 construction, which Compile reaches through
			// its fallback when the block-cyclic solve has no solution.
			"logpcont_l2.txt", "logpcont -L 2 -t 8 -k 4",
			[]string{"-op", "continuous", "-L", "2", "-P", "35", "-k", "4"},
			[]string{"tree", "\nreception table (items 1-based):\n", "table"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			render := func(name string) string {
				out, err := exec(t, append(tc.args, "-render", name)...)
				if err != nil {
					t.Fatalf("%v -render %s: %v", tc.args, name, err)
				}
				return out
			}
			var got strings.Builder
			for _, part := range tc.parts {
				switch part {
				case "tree", "dot", "gantt", "table":
					got.WriteString(render(part))
				case headline, body:
					head, rest, _ := strings.Cut(render("tree"), "\n")
					if part == headline {
						got.WriteString(head + "\n")
					} else {
						got.WriteString(rest)
					}
				default:
					got.WriteString(part)
				}
			}
			if got.String() != string(want) {
				t.Fatalf("%s: logpsched renders reassemble to\n%s\nwant\n%s", tc.was, got.String(), want)
			}
		})
	}
}

// TestDotIsGraphVizOnly: -render dot emits a GraphViz document and nothing
// else for every op that has a structure, summation included, which had no
// DOT output before.
func TestDotIsGraphVizOnly(t *testing.T) {
	for _, args := range [][]string{
		{"-op", "broadcast", "-P", "12"},
		{"-op", "summation", "-P", "8", "-L", "5", "-o", "2", "-g", "4", "-t", "28"},
		{"-op", "continuous", "-L", "3", "-P", "10", "-k", "8"},
	} {
		out, err := exec(t, append(args, "-render", "dot")...)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if !strings.HasPrefix(out, "digraph ") || !strings.HasSuffix(out, "}\n") || strings.Count(out, "digraph ") != 1 {
			t.Fatalf("%v -render dot is not one GraphViz digraph:\n%s", args, out)
		}
	}
}
