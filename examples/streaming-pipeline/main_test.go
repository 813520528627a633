package main

import (
	"bytes"
	"os"
	"testing"
)

// TestStdoutGolden runs the example and demands output byte-identical to
// testdata/stdout.golden, so a change to the runtime's scheduling cannot
// silently change what the example computes. Regenerate only for an
// intended output change:
//
//	go run . > testdata/stdout.golden
func TestStdoutGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/stdout.golden")
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	main()
	os.Stdout = stdout
	got, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("stdout differs from testdata/stdout.golden:\n--- got\n%s--- want\n%s", got, want)
	}
}
