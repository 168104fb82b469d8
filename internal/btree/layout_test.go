package btree_test

import (
	"testing"
	"unsafe"

	"hyperdb/internal/btree"
	"hyperdb/internal/zone"
)

// TestIndexItemLayout guards the zone index's per-object DRAM: a 24-byte
// Location in a 40-byte pointer-free item is what brought resident-rw's live
// heap down ~10 % (218 → 195 MiB).
func TestIndexItemLayout(t *testing.T) {
	if got := unsafe.Sizeof(zone.Location{}); got != 24 {
		t.Errorf("zone.Location is %d bytes, want 24: every index entry grows, and the live heap with it", got)
	}
	if got := btree.ItemSize[zone.Location](); got != 40 {
		t.Errorf("an index item holding a zone.Location is %d bytes, want 40: every index entry grows, and the live heap with it", got)
	}
}
