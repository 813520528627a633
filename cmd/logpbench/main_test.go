package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
)

// allDigest is the sha256 of `logpbench -all`'s stdout: every figure and
// every table, 27,853 bytes. The report is deterministic at any worker-pool
// width, so a digest change is a change to some experiment's output.
const allDigest = "2b3c5271a42d48b13fd8ee10a3a34395033cc2fc84de836cb01f237952147838"

// TestAllOutputPinned runs the -all experiment loop and compares the digest
// of what it prints. The figure goldens in internal/bench pin Figures 1-6;
// this pins the tables as well.
func TestAllOutputPinned(t *testing.T) {
	var out bytes.Buffer
	if err := runAll(&out, experiments(), func(e experiment) (string, error) { return e.run() }); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(out.Bytes())); got != allDigest {
		t.Fatalf("-all output: %d bytes, sha256 %s; want %s", out.Len(), got, allDigest)
	}
}
