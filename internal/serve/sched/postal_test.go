package sched

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"strings"
	"testing"

	"logpopt/internal/logp"
	"logpopt/internal/logtime"
	"logpopt/internal/obs"
)

// TestPostalBytesPinned pins the `logpsched -render json` bytes of four
// postal-model solves, one per path through the word solver: the strong
// induction (continuous P=2746 at L=3), the L=2 fallback of Theorem 3.5
// (P=35), a direct portfolio hit (P=1000 at L=7) and kitem's single-sending
// schedule built on the same solver (P=2746 at L=3).
func TestPostalBytesPinned(t *testing.T) {
	for _, c := range []struct {
		op     string
		p, l   int
		k      int
		sha256 string
	}{
		{"continuous", 2746, 3, 2, "0138f37f39d1547cac2309faeba6913146ee8906942c0bfa083829b4d0836cd9"},
		{"continuous", 35, 2, 4, "8d9c5112798cb6b048c4d88e8330823b55d5355021e718886ffe7b1c998b91b5"},
		{"continuous", 1000, 7, 2, "077e40f42b157264182117662122dee6b39e885e43d6be49c9015f7a0daecd03"},
		{"kitem", 2746, 3, 6, "8d61cf7f158f88ff410f7d261a7a482615a162aec9d149224b51c2c0e69e09f0"},
	} {
		comp, err := Compile(logp.Postal(c.p, logp.Time(c.l)), c.op, c.k, 0, logtime.Tree)
		if err != nil {
			t.Fatalf("%s P=%d L=%d k=%d: %v", c.op, c.p, c.l, c.k, err)
		}
		var buf bytes.Buffer
		if err := comp.S.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != c.sha256 {
			t.Errorf("%s P=%d L=%d k=%d: sha256 %s, want %s", c.op, c.p, c.l, c.k, got, c.sha256)
		}
	}
}

// TestPostalSolveErrorNamesL: a failed postal solve names the instance by
// its latency, not by the solver's alphabet size. At L=2, P=34 the L=2
// fallback does not apply (33 is no f_t), and the search alphabet of the
// general tree has three letters.
func TestPostalSolveErrorNamesL(t *testing.T) {
	_, err := Compile(logp.Postal(34, 2), "continuous", 4, 0, logtime.Tree)
	if err == nil {
		t.Fatal("continuous L=2 P=34 solved; want a no-solution error")
	}
	if msg := err.Error(); !strings.Contains(msg, "L=2 ") || strings.Contains(msg, "L=3") {
		t.Fatalf("error %q, want it to name L=2", msg)
	}
}

// TestPostalSolvesRetainNothing: a continuous or kitem solve keeps nothing
// once it returns. Four solves at distinct latencies near 2^20 each build
// f-tables and trees of about a million entries; after them, and a GC, the
// live heap must be back near where it started.
func TestPostalSolvesRetainNothing(t *testing.T) {
	live := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	for i, op := range []string{"continuous", "kitem", "continuous", "kitem"} {
		l := 1<<20 + i
		if _, err := Compile(logp.Postal(10, logp.Time(l)), op, 2, 0, logtime.Tree); err != nil {
			t.Fatalf("%s P=10 L=%d: %v", op, l, err)
		}
	}
	const slack = 4 << 20
	if after := live(); after > before+slack {
		t.Fatalf("live heap grew %d → %d bytes over four solves, want at most %d more", before, after, slack)
	}
}

// TestTreeSolvesRetainNothing: a tree-walk cache fill keeps nothing past
// its body, and a body the budget cannot hold is not kept either. Four
// fills (broadcast, reduce, scan, binomial) at P = 10⁵ on postal machines
// with distinct L = 2^16…2^16+3 each build counting tables of some 10⁵
// label points; through a 1 MiB cache that keeps none of the ~11 MB bodies,
// the live heap after them and a GC must be back near where it started.
func TestTreeSolvesRetainNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("four P = 10⁵ solves")
	}
	c := NewCache(1<<20, obs.NewRegistry())
	before := liveHeap()
	for i, op := range []string{"broadcast", "reduce", "scan", "binomial"} {
		k := testKey(t, Request{Op: op, P: 100000, L: 1<<16 + logp.Time(i), O: 0, G: 1})
		if _, _, err := c.Get(k); err != nil {
			t.Fatalf("%s L=%d: %v", op, k.L, err)
		}
	}
	if st := c.Stats(); st.Size != 0 {
		t.Fatalf("a 1 MiB cache kept %d entries of ~11 MB bodies", st.Size)
	}
	const slack = 4 << 20
	grew := liveHeap() - before
	t.Logf("live heap +%d bytes after four tree fills", grew)
	if grew > slack {
		t.Fatalf("live heap grew %d bytes over four tree fills, want at most %d", grew, slack)
	}
	runtime.KeepAlive(c)
}
