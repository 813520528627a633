package sched

import (
	"bytes"
	"net/http"
	"os"
	"testing"

	"logpopt/internal/continuous"
	"logpopt/internal/core"
	"logpopt/internal/logp"
	"logpopt/internal/logtime"
	"logpopt/internal/schedule"
)

// TestContinuousL2Fallback: at L = 2 and P-1 = P(t) with t >= 4 the general
// block-cyclic solve has no solution (Theorem 3.4), so Compile answers with
// Theorem 3.5's construction. Every answer must be a valid broadcast of its
// k items with per-item delay exactly t+3, and carry the bound that delay
// implies.
func TestContinuousL2Fallback(t *testing.T) {
	const k = 4
	seq := core.NewSeq(2)
	for tt := 4; tt <= 14; tt++ {
		m := logp.Postal(int(seq.F(tt))+1, 2)
		c, err := Compile(m, "continuous", k, 0, logtime.Tree)
		if err != nil {
			t.Fatalf("t=%d P=%d: %v", tt, m.P, err)
		}
		if vs := schedule.ValidateBroadcast(c.S, continuous.Origins(k)); len(vs) != 0 {
			t.Fatalf("t=%d P=%d: %d violations, first %v", tt, m.P, len(vs), vs[0])
		}
		worst, err := continuous.VerifyDelay(c.S, k, tt+3)
		if err != nil {
			t.Fatalf("t=%d P=%d: %v", tt, m.P, err)
		}
		if worst != tt+3 {
			t.Fatalf("t=%d P=%d: worst per-item delay %d, want %d", tt, m.P, worst, tt+3)
		}
		if want := logp.Time(tt + 3 + k - 1); c.Bound != want {
			t.Fatalf("t=%d P=%d: bound %d, want Delay()+k-1 = %d", tt, m.P, c.Bound, want)
		}
	}
}

// TestContinuousL2GeneralSolveKept: where the general solve succeeds at
// L = 2 (t < 4) the fallback never runs, so the answer keeps the bytes it
// had before the fallback existed (captured in testdata at t=3, P=4, k=4).
func TestContinuousL2GeneralSolveKept(t *testing.T) {
	want, err := os.ReadFile("testdata/continuous_L2_P4_k4.json")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(logp.Postal(4, 2), "continuous", 4, 0, logtime.Tree)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := c.S.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("L=2 t=3 schedule changed: %d bytes, want %d", got.Len(), len(want))
	}
}

// TestContinuousL2Served: the service answers the fallback instance the
// same way a local solve does — a 200 whose format=schedule body is the
// compiled schedule's JSON, byte for byte.
func TestContinuousL2Served(t *testing.T) {
	a, _ := newTestAPI(t)
	rec, body := get(t, a.Handler(), "/v1/schedule?op=continuous&l=2&p=35&k=4&format=schedule")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	c, err := Compile(logp.Postal(35, 2), "continuous", 4, 0, logtime.Tree)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := c.S.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("served body (%d bytes) differs from the local solve (%d bytes)", len(body), want.Len())
	}
}
