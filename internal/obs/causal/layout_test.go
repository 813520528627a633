package causal

import (
	"testing"
	"unsafe"
)

// TestNodeLayout pins the analyzer's per-event footprint: a node, with its
// three constraints inline and no copy of its event, takes 72 bytes.
func TestNodeLayout(t *testing.T) {
	if got := unsafe.Sizeof(constraint{}); got != 16 {
		t.Errorf("constraint is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(node{}); got != 72 {
		t.Errorf("node is %d bytes, want 72", got)
	}
}
