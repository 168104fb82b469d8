package btree_test

import (
	"math/rand"
	"runtime"
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

// TestIndexHeapPerItem prices one partition's index in live heap bytes per
// entry: 75 k random 8-byte keys, then every other one deleted. An item is
// 40 bytes; the rest is node arrays' spare slots. Arrays grown by append's
// doubling, and split halves kept in their full arrays, cost 61.5 and 59.3.
func TestIndexHeapPerItem(t *testing.T) {
	const n = 75_000
	keys := make([]byte, 8*n)
	rand.New(rand.NewSource(20)).Read(keys)
	base := liveHeap()
	m := btree.New[zone.Location]()
	for j := 0; j < len(keys); j += 8 {
		m.Set(keys[j:j+8], zone.Location{})
	}
	check := func(what string, limit float64) {
		got := float64(liveHeap()-base) / float64(m.Len())
		t.Logf("%s: %.1f heap bytes per item", what, got)
		if got > limit {
			t.Errorf("%s: %.1f heap bytes per item, want <= %.0f", what, got, limit)
		}
	}
	check("75 k random keys", 46)
	for j := 0; j < len(keys); j += 16 {
		m.Delete(keys[j : j+8])
	}
	check("after deleting every other key", 50)
	runtime.KeepAlive(keys) // counted in base
}

// liveHeap is the heap's size just after a collection: what is still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
