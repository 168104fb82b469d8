package zone

import (
	"sort"
	"testing"

	"hyperdb/internal/device"
)

// TestValueCacheEvictsOldestFirst: the value cache's victim is the entry
// inserted first, whatever order the map iterates in; an update in place does
// not renew an entry, and deleting from the middle keeps list and byte budget
// consistent.
func TestValueCacheEvictsOldestFirst(t *testing.T) {
	const n = 8
	val := make([]byte, 100)
	per := int64(8+len(val)) + vcacheEntOverhead
	dev := device.New(device.UnthrottledProfile("nvme", 0))
	m := openMgr(t, Config{Dev: dev, BatchSize: 64 << 10, ValueCacheBytes: n * per})
	cached := func(i uint64) bool {
		_, ok := m.vcache[string(k8(i))]
		return ok
	}
	for i := uint64(0); i < n; i++ {
		m.Put(k8(i), val, i+1, false, false)
	}
	m.Put(k8(0), val, 100, false, false) // in place: still the oldest entry
	m.Delete(k8(3), 101)                 // frees one entry's worth of budget
	if cached(3) || m.vcacheBytes != (n-1)*per {
		t.Fatalf("after a delete: key 3 cached=%v, %d bytes held, want %d", cached(3), m.vcacheBytes, (n-1)*per)
	}
	m.Put(k8(n), val, 102, false, false) // fits in the freed budget
	for i := uint64(0); i <= n; i++ {
		if cached(i) != (i != 3) {
			t.Fatalf("key %d cached=%v before any eviction", i, cached(i))
		}
	}
	// Each further insert evicts exactly the oldest survivor: 0, 1, 2, 4, …
	survivors := []uint64{0, 1, 2, 4, 5, 6}
	for j, victim := range survivors[:5] {
		m.Put(k8(n+1+uint64(j)), val, 200+uint64(j), false, false)
		if cached(victim) {
			t.Fatalf("insert %d did not evict key %d", j, victim)
		}
		if next := survivors[j+1]; !cached(next) {
			t.Fatalf("insert %d evicted key %d, younger than the victim %d", j, next, victim)
		}
	}
	if m.vcacheBytes != n*per || len(m.vcache) != n {
		t.Fatalf("cache holds %d entries in %d bytes, want %d in %d", len(m.vcache), m.vcacheBytes, n, n*per)
	}
	// The list and the map agree, oldest to newest.
	count := 0
	for e := m.vcacheOld; e != nil; e = e.newer {
		if m.vcache[e.key] != e || (e.newer == nil) != (e == m.vcacheNew) {
			t.Fatalf("list entry %x is not the map's, or the tail pointer is off", e.key)
		}
		count++
	}
	if count != len(m.vcache) {
		t.Fatalf("list has %d entries, map %d", count, len(m.vcache))
	}
}

// TestZonePagesAreFreedInPageOrder: a demoted, split or evicted zone hands its
// pages back sorted, so the page the next allocation reuses is a function of
// the zone's contents and not of map iteration.
func TestZonePagesAreFreedInPageOrder(t *testing.T) {
	free := map[string]func(m *Manager) error{
		"CommitMigration": func(m *Manager) error {
			b, err := m.PrepareMigration(m.zones[0])
			if err == nil {
				m.CommitMigration(b)
			}
			return err
		},
		"SplitZone":    func(m *Manager) error { _, err := m.SplitZone(m.zones[0]); return err },
		"EvictHotZone": func(m *Manager) error { return m.EvictHotZone(func([]byte) bool { return false }) },
	}
	for name, fn := range free {
		m, _ := newMgr(t, 0, 1<<20)
		for i := uint64(0); i < 4000; i++ {
			// Two size classes, all in one key-range zone (or the hot zone).
			m.Put(k8(i<<20), make([]byte, 40+100*(i%2)), i+1, name == "EvictHotZone", false)
		}
		if name != "EvictHotZone" && len(m.zones) != 1 {
			t.Fatalf("%s: %d zones, want 1", name, len(m.zones))
		}
		if err := fn(m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		freed := 0
		for _, sf := range m.slotFiles {
			if !sort.SliceIsSorted(sf.freePages, func(i, j int) bool { return sf.freePages[i] < sf.freePages[j] }) {
				t.Fatalf("%s: class %d free list out of page order: %v", name, sf.slotSize, sf.freePages)
			}
			freed += len(sf.freePages)
		}
		if freed < 100 {
			t.Fatalf("%s: only %d pages freed", name, freed)
		}
	}
}
