package sched

import (
	"strings"
	"testing"

	"logpopt/internal/logp"
)

func TestCanonicalizeEquivalences(t *testing.T) {
	cases := []struct {
		name string
		a, b Request
		same bool
	}{
		{
			// Postal ops ignore o and g entirely.
			name: "kitem forces postal machine",
			a:    Request{Op: "kitem", P: 8, L: 5, O: 2, G: 4, K: 3},
			b:    Request{Op: "kitem", P: 8, L: 5, O: 9, G: 7, K: 3},
			same: true,
		},
		{
			// Broadcast never reads k; any value is the same question.
			name: "broadcast ignores k",
			a:    Request{Op: "broadcast", P: 16, L: 6, O: 2, G: 4, K: 7},
			b:    Request{Op: "broadcast", P: 16, L: 6, O: 2, G: 4, K: 1},
			same: true,
		},
		{
			// Only summation consumes a deadline.
			name: "broadcast ignores t",
			a:    Request{Op: "broadcast", P: 16, L: 6, O: 2, G: 4, K: 1, Deadline: 30},
			b:    Request{Op: "broadcast", P: 16, L: 6, O: 2, G: 4, K: 1},
			same: true,
		},
		{
			// Every constructor spelling names the one tree builder, so
			// naming any of them is the same cache entry.
			name: "auto and search share a key",
			a:    Request{Op: "broadcast", P: 16, L: 6, O: 2, G: 4, K: 1, Constructor: "auto"},
			b:    Request{Op: "broadcast", P: 16, L: 6, O: 2, G: 4, K: 1, Constructor: "search"},
			same: true,
		},
		{
			name: "near-miss L differs",
			a:    Request{Op: "broadcast", P: 16, L: 6, O: 2, G: 4, K: 1},
			b:    Request{Op: "broadcast", P: 16, L: 7, O: 2, G: 4, K: 1},
			same: false,
		},
		{
			name: "near-miss P differs",
			a:    Request{Op: "broadcast", P: 16, L: 6, O: 2, G: 4, K: 1},
			b:    Request{Op: "broadcast", P: 17, L: 6, O: 2, G: 4, K: 1},
			same: false,
		},
		{
			name: "kitem distinguishes k",
			a:    Request{Op: "kitem", P: 8, L: 5, K: 3},
			b:    Request{Op: "kitem", P: 8, L: 5, K: 4},
			same: false,
		},
		{
			name: "empty op defaults to broadcast",
			a:    Request{P: 16, L: 6, O: 2, G: 4, K: 1},
			b:    Request{Op: "broadcast", P: 16, L: 6, O: 2, G: 4, K: 1},
			same: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ka, err := Canonicalize(tc.a, "")
			if err != nil {
				t.Fatalf("Canonicalize(a): %v", err)
			}
			kb, err := Canonicalize(tc.b, "")
			if err != nil {
				t.Fatalf("Canonicalize(b): %v", err)
			}
			if (ka == kb) != tc.same {
				t.Fatalf("keys %q and %q: same=%v, want %v", ka, kb, ka == kb, tc.same)
			}
			if tc.same && ka.Shard(16) != kb.Shard(16) {
				t.Fatalf("equal keys landed on different shards: %d vs %d", ka.Shard(16), kb.Shard(16))
			}
		})
	}
}

func TestCanonicalizeClearsConstructorForNonTreeOps(t *testing.T) {
	k, err := Canonicalize(Request{Op: "alltoall", P: 8, L: 6, O: 2, G: 4, K: 2, Constructor: "logtime"}, "")
	if err != nil {
		t.Fatal(err)
	}
	if k.Constructor != "" {
		t.Fatalf("alltoall kept constructor %q; non-tree ops must clear it", k.Constructor)
	}
}

func TestCanonicalizeErrors(t *testing.T) {
	cases := []struct {
		name string
		req  Request
		want string
	}{
		{"unknown op", Request{Op: "sideways", P: 4, L: 6, O: 2, G: 4}, "unknown op"},
		{"bad P", Request{Op: "broadcast", P: 0, L: 6, O: 2, G: 4}, "p must be"},
		{"bad L", Request{Op: "broadcast", P: 4, L: 0, O: 2, G: 4}, "l must be"},
		{"bad k", Request{Op: "kitem", P: 4, L: 5, K: 0}, "k must be"},
		{"summation needs t", Request{Op: "summation", P: 4, L: 6, O: 2, G: 4}, "deadline"},
		{"bad constructor", Request{Op: "broadcast", P: 4, L: 6, O: 2, G: 4, Constructor: "quantum"}, "constructor"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Canonicalize(tc.req, "")
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestKeyString(t *testing.T) {
	k, err := Canonicalize(Request{Op: "summation", P: 8, L: 6, O: 2, G: 4, Deadline: 28}, "")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := k.String(), "summation/logtime/P8/L6/o2/g4/t28"; got != want {
		t.Fatalf("Key.String() = %q, want %q", got, want)
	}
	k2, err := Canonicalize(Request{Op: "kitem", P: 8, L: 5, K: 3}, "")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := k2.String(), "kitem/P8/L5/o0/g1/k3"; got != want {
		t.Fatalf("Key.String() = %q, want %q", got, want)
	}
}

func TestParseQuery(t *testing.T) {
	q := map[string]string{"op": "broadcast", "p": "16", "l": "9"}
	req, err := ParseQuery(func(k string) string { return q[k] })
	if err != nil {
		t.Fatal(err)
	}
	if req.P != 16 || req.L != 9 || req.O != 2 || req.G != 4 || req.K != 1 {
		t.Fatalf("defaults not applied: %+v", req)
	}

	if _, err := ParseQuery(func(k string) string { return map[string]string{"op": "broadcast"}[k] }); err == nil || !strings.Contains(err.Error(), "p is required") {
		t.Fatalf("missing p: err = %v", err)
	}
	if _, err := ParseQuery(func(k string) string { return map[string]string{"p": "16", "l": "soon"}[k] }); err == nil || !strings.Contains(err.Error(), `l="soon"`) {
		t.Fatalf("bad l: err = %v", err)
	}
}

// TestCanonicalizeMatchesLibraryValidation: a machine Canonicalize accepts
// is one the model's own New accepts, and vice versa, and the key rebuilds
// exactly that machine.
func TestCanonicalizeMatchesLibraryValidation(t *testing.T) {
	for p := -1; p <= 2; p++ {
		for l := logp.Time(-1); l <= 2; l++ {
			k, err := Canonicalize(Request{Op: "broadcast", P: p, L: l, O: 1, G: 1}, "")
			_, lerr := logp.New(p, l, 1, 1)
			if (err == nil) != (lerr == nil) {
				t.Fatalf("P=%d L=%d: Canonicalize err=%v, logp err=%v", p, l, err, lerr)
			}
			if err == nil && k.Machine() != logp.MustNew(p, l, 1, 1) {
				t.Fatalf("P=%d L=%d: machines differ", p, l)
			}
		}
	}
}
