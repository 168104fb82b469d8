package zone

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"hyperdb/internal/device"
)

func newMgr(t testing.TB, capacity int64, batch int64) (*Manager, *device.Device) {
	t.Helper()
	dev := device.New(device.UnthrottledProfile("nvme", capacity))
	return openMgr(t, Config{Dev: dev, Partition: 0, BatchSize: batch}), dev
}

// openMgr opens a manager over whatever cfg.Dev holds.
func openMgr(t testing.TB, cfg Config) *Manager {
	t.Helper()
	m, _, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// putOne and deleteOne write one op through ApplyBatch, the tier's one
// write entry point.
func putOne(m *Manager, key, value []byte, seq uint64, hot bool) error {
	_, err := m.ApplyBatch([]BatchOp{{Key: key, Value: value, Seq: seq, Hot: hot}})
	return err
}

func deleteOne(m *Manager, key []byte, seq uint64) error {
	_, err := m.ApplyBatch([]BatchOp{{Key: key, Seq: seq, Delete: true}})
	return err
}

func k8(i uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, i)
	return b
}

func TestPutGetDelete(t *testing.T) {
	m, _ := newMgr(t, 0, 64<<10)
	for i := uint64(0); i < 500; i++ {
		if err := putOne(m, k8(i<<40), []byte(fmt.Sprintf("v%d", i)), i+1, false); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 500; i++ {
		v, seq, tomb, found, err := m.Get(k8(i<<40), device.Fg)
		if err != nil || !found || tomb || seq != i+1 || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("get %d: %q seq=%d tomb=%v found=%v err=%v", i, v, seq, tomb, found, err)
		}
	}
	if err := deleteOne(m, k8(7<<40), 1000); err != nil {
		t.Fatal(err)
	}
	_, _, tomb, found, _ := m.Get(k8(7<<40), device.Fg)
	if !found || !tomb {
		t.Fatalf("deleted key: tomb=%v found=%v", tomb, found)
	}
	if _, _, _, found, _ := m.Get(k8(999<<40), device.Fg); found {
		t.Fatal("phantom key")
	}
}

func TestInPlaceUpdateSameClass(t *testing.T) {
	m, dev := newMgr(t, 0, 64<<10)
	key := k8(5 << 40)
	putOne(m, key, make([]byte, 100), 1, false)
	usedBefore := dev.Used()
	putOne(m, key, make([]byte, 90), 2, false) // same 128B class
	if dev.Used() != usedBefore {
		t.Fatal("in-place update should not allocate")
	}
	if m.Stats().InPlaceUpdates != 1 {
		t.Fatalf("inPlace = %d", m.Stats().InPlaceUpdates)
	}
	v, seq, _, found, _ := m.Get(key, device.Fg)
	if !found || seq != 2 || len(v) != 90 {
		t.Fatalf("after update: len=%d seq=%d", len(v), seq)
	}
}

func TestResizeRelocatesAndErasesOldSlot(t *testing.T) {
	m, _ := newMgr(t, 0, 64<<10)
	key := k8(5 << 40)
	putOne(m, key, make([]byte, 40), 1, false) // 64B class
	old, _ := m.index.Get(key)
	putOne(m, key, make([]byte, 400), 2, false) // 512B class
	if m.Stats().Relocations != 1 {
		t.Fatalf("relocations = %d", m.Stats().Relocations)
	}
	sf := m.files[old.Class]
	page, err := sf.ReadPage(old.Page, device.Fg)
	if err != nil {
		t.Fatal(err)
	}
	if r, err := sf.Decode(page, old.Slot); err != nil || r.Tomb || len(r.Key) != 0 {
		t.Fatalf("the old slot holds key %x tombstone=%v (%v), want an erased record", r.Key, r.Tomb, err)
	}
	v, _, _, found, _ := m.Get(key, device.Fg)
	if !found || len(v) != 400 {
		t.Fatalf("after resize: len=%d found=%v", len(v), found)
	}
	if m.ObjectCount() != 1 {
		t.Fatalf("objects = %d", m.ObjectCount())
	}
}

// TestRelocatedKeyIsNotHiddenAfterDemotionAndRecovery: a key written hot and
// then rewritten cold in another size class relocates out of the hot zone;
// once its new zone is demoted, the capacity tier holds its newest version.
// What the relocation left in the hot zone's slot must not answer for the key
// after a restart: a tombstone there at the new sequence hid the demoted value.
func TestRelocatedKeyIsNotHiddenAfterDemotionAndRecovery(t *testing.T) {
	m, dev := newMgr(t, 0, 64<<10)
	k := k8(5 << 40)
	if err := putOne(m, k, make([]byte, 100), 1, true); err != nil {
		t.Fatal(err)
	}
	if err := putOne(m, k, make([]byte, 20), 2, false); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Relocations != 1 {
		t.Fatalf("fixture: relocations = %d", m.Stats().Relocations)
	}
	b, err := m.PrepareMigration(m.zoneFor(Key64(k)))
	if err != nil || len(b.Entries) != 1 || b.Entries[0].Seq != 2 || b.Entries[0].Tombstone {
		t.Fatalf("demotion batch %+v, %v", b, err)
	}
	m.CommitMigration(b)

	re := openMgr(t, Config{Dev: dev, Partition: 0, BatchSize: 64 << 10})
	if _, seq, tomb, found, err := re.Get(k, device.Fg); err != nil || found {
		t.Fatalf("the recovered tier answers for the demoted key: seq=%d tombstone=%v found=%v err=%v", seq, tomb, found, err)
	}
}

// TestSplitWritesWholePages: a split into fresh zones writes each
// destination page it fills with one device write, so the rebuild ledger
// books whole pages, where one write per object booked a sector-rounded slot
// each. The keys come in groups of one page of 256-byte slots, far apart, so
// that every destination zone holds whole groups.
func TestSplitWritesWholePages(t *testing.T) {
	const perPage = 16 // 227-byte objects in the 256 B class
	const groups = 24
	m, dev := newMgr(t, 0, 227*4*perPage) // Eq. 2: about four groups a zone
	seq := uint64(0)
	for g := uint64(0); g < groups; g++ {
		for i := uint64(0); i < perPage; i++ {
			seq++
			if err := putOne(m, k8(g<<48|1<<46|i<<8), bytes.Repeat([]byte{byte(seq)}, 200), seq, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(m.zones) != 1 {
		t.Fatalf("fixture: %d zones before the split, want the bootstrap zone alone", len(m.zones))
	}
	old := m.zones[0]
	st, ops := m.Stats().Bg, dev.Counters().BgWriteOps.Load()
	moved, err := m.SplitZone(old)
	if err != nil || moved != groups*perPage {
		t.Fatalf("split moved %d objects, %v", moved, err)
	}
	if len(m.zones) < 3 {
		t.Fatalf("the split made %d zones; the test needs several", len(m.zones))
	}
	pages := 0
	for _, z := range m.zones {
		if z.Objects()%perPage != 0 {
			t.Fatalf("fixture: zone %d holds %d objects, not whole pages", z.ID(), z.Objects())
		}
		pages += z.PageCount()
	}
	if pages != groups {
		t.Fatalf("the split filled %d pages, want %d", pages, groups)
	}
	if got, want := m.Stats().Bg.RebuildWrite-st.RebuildWrite, uint64(pages*dev.PageSize()); got != want {
		t.Fatalf("the split booked %d rebuild write bytes for %d destination pages, want %d", got, pages, want)
	}
	if got := dev.Counters().BgWriteOps.Load() - ops; got != uint64(pages) {
		t.Fatalf("the split issued %d background writes for %d destination pages", got, pages)
	}
	for s := uint64(1); s <= seq; s++ {
		g, i := (s-1)/perPage, (s-1)%perPage
		if v, got, _, found, err := m.Get(k8(g<<48|1<<46|i<<8), device.Fg); err != nil || !found || got != s || len(v) != 200 || v[0] != byte(s) {
			t.Fatalf("key %d.%d after the split: seq=%d found=%v err=%v", g, i, got, found, err)
		}
	}
}

func TestTooLargeRejected(t *testing.T) {
	m, _ := newMgr(t, 0, 64<<10)
	if err := putOne(m, k8(1), make([]byte, 5000), 1, false); err != ErrTooLarge {
		t.Fatalf("err = %v", err)
	}
}

func TestZonesPartitionKeySpace(t *testing.T) {
	m, _ := newMgr(t, 0, 16<<10)
	// Fill with spread keys so multiple zones appear after the estimate
	// kicks in.
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 3000; i++ {
		putOne(m, k8(rng.Uint64()), make([]byte, 64), uint64(i+1), false)
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	for i := 1; i < len(m.zones); i++ {
		if m.zones[i-1].hi > m.zones[i].lo {
			t.Fatalf("zones %d,%d overlap: [%x,%x) vs [%x,%x)", i-1, i,
				m.zones[i-1].lo, m.zones[i-1].hi, m.zones[i].lo, m.zones[i].hi)
		}
	}
}

func TestHotObjectsGoToHotZone(t *testing.T) {
	m, _ := newMgr(t, 0, 64<<10)
	putOne(m, k8(1<<40), []byte("hot"), 1, true)
	putOne(m, k8(2<<40), []byte("cold"), 2, false)
	if m.HotZoneBytes() == 0 {
		t.Fatal("hot put did not land in hot zone")
	}
	v, _, _, found, _ := m.Get(k8(1<<40), device.Fg)
	if !found || string(v) != "hot" {
		t.Fatalf("hot get: %q %v", v, found)
	}
}

func TestMigrationLifecycle(t *testing.T) {
	m, dev := newMgr(t, 0, 8<<10)
	var wantKeys [][]byte
	for i := uint64(0); i < 400; i++ {
		k := k8(i << 32)
		wantKeys = append(wantKeys, k)
		putOne(m, k, []byte(fmt.Sprintf("v%d", i)), i+1, false)
	}
	z := m.PickDemotionVictim()
	if z == nil {
		t.Fatal("no victim")
	}
	usedBefore := dev.Used()
	batch, err := m.PrepareMigration(z)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Entries) == 0 || batch.PageReads == 0 {
		t.Fatalf("batch: %d entries, %d reads", len(batch.Entries), batch.PageReads)
	}
	// Entries sorted.
	for i := 1; i < len(batch.Entries); i++ {
		if bytes.Compare(batch.Entries[i-1].Key, batch.Entries[i].Key) >= 0 {
			t.Fatal("batch out of order")
		}
	}
	// Before commit, reads still work (pages not freed yet).
	v, _, _, found, _ := m.Get(batch.Entries[0].Key, device.Fg)
	if !found || !bytes.Equal(v, batch.Entries[0].Value) {
		t.Fatal("read during migration failed")
	}
	m.CommitMigration(batch)
	if dev.Used() >= usedBefore {
		t.Fatal("commit did not free pages")
	}
	// Migrated keys gone from the tier.
	if _, _, _, found, _ := m.Get(batch.Entries[0].Key, device.Fg); found {
		t.Fatal("migrated key still present")
	}
	st := m.Stats()
	if st.Migrations != 1 || st.MigratedObjects != uint64(len(batch.Entries)) {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMigrationKeepsConcurrentUpdates(t *testing.T) {
	m, _ := newMgr(t, 0, 8<<10)
	for i := uint64(0); i < 200; i++ {
		putOne(m, k8(i<<32), []byte("old"), i+1, false)
	}
	z := m.PickDemotionVictim()
	batch, err := m.PrepareMigration(z)
	if err != nil {
		t.Fatal(err)
	}
	// Update one migrated key mid-flight.
	victim := batch.Entries[0].Key
	if err := putOne(m, victim, []byte("newer"), 10_000, false); err != nil {
		t.Fatal(err)
	}
	m.CommitMigration(batch)
	v, seq, _, found, _ := m.Get(victim, device.Fg)
	if !found || string(v) != "newer" || seq != 10_000 {
		t.Fatalf("concurrent update lost: %q seq=%d found=%v", v, seq, found)
	}
}

func TestAbortMigrationRestores(t *testing.T) {
	m, _ := newMgr(t, 0, 8<<10)
	for i := uint64(0); i < 200; i++ {
		putOne(m, k8(i<<32), []byte("v"), i+1, false)
	}
	z := m.PickDemotionVictim()
	batch, _ := m.PrepareMigration(z)
	m.AbortMigration(batch)
	// All keys still readable and a second migration can pick the zone.
	for _, e := range batch.Entries {
		if _, _, _, found, _ := m.Get(e.Key, device.Fg); !found {
			t.Fatalf("key %x lost after abort", e.Key)
		}
	}
	if m.PickDemotionVictim() == nil {
		t.Fatal("aborted zone not demotable again")
	}
}

func TestPromote(t *testing.T) {
	m, _ := newMgr(t, 0, 64<<10)
	if err := m.Promote(k8(3<<40), []byte("promoted"), 7, 0); err != nil {
		t.Fatal(err)
	}
	v, seq, _, found, _ := m.Get(k8(3<<40), device.Fg)
	if !found || seq != 7 || string(v) != "promoted" {
		t.Fatalf("promoted get: %q seq=%d", v, seq)
	}
	// Promote must not clobber an existing (newer) version.
	putOne(m, k8(4<<40), []byte("fresh"), 100, false)
	m.Promote(k8(4<<40), []byte("stale"), 50, 0)
	v, _, _, _, _ = m.Get(k8(4<<40), device.Fg)
	if string(v) != "fresh" {
		t.Fatalf("promote clobbered newer value: %q", v)
	}
	// Nor put back a value a write newer than its read overwrote, once that
	// write has migrated to the capacity tier.
	b, err := m.PrepareMigration(m.PickDemotionVictim())
	if err != nil || b == nil {
		t.Fatalf("prepare: %v %v", b, err)
	}
	m.CommitMigration(b)
	if err := m.Promote(k8(4<<40), []byte("stale"), 101, 99); err != ErrSuperseded {
		t.Fatalf("promotion read before a demoted write = %v, want ErrSuperseded", err)
	}
	if err := m.Promote(k8(4<<40), []byte("fresh"), 102, 100); err != nil {
		t.Fatalf("promotion read after every demoted write: %v", err)
	}
}

func TestEvictHotZone(t *testing.T) {
	m, _ := newMgr(t, 0, 64<<10)
	// Three kinds of hot-zone residents:
	putOne(m, k8(1<<40), []byte("still-hot"), 1, true)
	m.Promote(k8(2<<40), []byte("cold-promoted"), 2, 0)
	putOne(m, k8(3<<40), []byte("cold-authoritative"), 3, true)

	stillHot := func(key []byte) bool { return bytes.Equal(key, k8(1<<40)) }
	if err := m.EvictHotZone(stillHot); err != nil {
		t.Fatal(err)
	}
	// still-hot stays readable.
	if _, _, _, found, _ := m.Get(k8(1<<40), device.Fg); !found {
		t.Fatal("still-hot object lost")
	}
	// cold promoted copy dropped (capacity tier owns it).
	if _, _, _, found, _ := m.Get(k8(2<<40), device.Fg); found {
		t.Fatal("cold promoted copy should be dropped")
	}
	// cold authoritative object relocated, still readable.
	v, _, _, found, _ := m.Get(k8(3<<40), device.Fg)
	if !found || string(v) != "cold-authoritative" {
		t.Fatalf("cold authoritative object lost: %q %v", v, found)
	}
	st := m.Stats()
	if st.HotEvictDropped != 1 || st.HotEvictRelocated != 1 {
		t.Fatalf("evict stats: %+v", st)
	}
}

// TestBackgroundMovesReadEachPageOnce pins the cost of the three movers that
// empty a zone — demotion, split and hot-zone eviction: however many objects
// share a page, the page is one background read.
func TestBackgroundMovesReadEachPageOnce(t *testing.T) {
	const n = 600 // 67-byte objects: 32 to a page in the 128 B class
	fill := func(m *Manager, hot bool) (pages uint64) {
		for i := 0; i < n; i++ {
			if err := putOne(m, k8(uint64(i)<<20), bytes.Repeat([]byte{byte(i)}, 40), uint64(i+1), hot); err != nil {
				t.Fatal(err)
			}
		}
		z := m.hot
		if !hot {
			z = m.zones[0]
		}
		if int(z.Objects()) != n || z.PageCount() >= n/8 {
			t.Fatalf("fixture: %d objects on %d pages", z.Objects(), z.PageCount())
		}
		return uint64(z.PageCount())
	}
	for name, move := range map[string]func(m *Manager) error{
		"EvictHotZone":     func(m *Manager) error { return m.EvictHotZone(func([]byte) bool { return false }) },
		"SplitZone":        func(m *Manager) error { _, err := m.SplitZone(m.zones[0]); return err },
		"PrepareMigration": func(m *Manager) error { _, err := m.PrepareMigration(m.zones[0]); return err },
	} {
		m, dev := newMgr(t, 0, 1<<20)
		pages := fill(m, name == "EvictHotZone")
		before := dev.Counters().BgReadOps.Load()
		if err := move(m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := dev.Counters().BgReadOps.Load() - before; got != pages {
			t.Fatalf("%s moved %d objects on %d pages with %d background reads", name, n, pages, got)
		}
		if name != "PrepareMigration" { // that one's objects are in the batch
			for i := 0; i < n; i++ {
				if v, _, _, found, err := m.Get(k8(uint64(i)<<20), device.Fg); err != nil || !found || len(v) != 40 || v[0] != byte(i) {
					t.Fatalf("%s: key %d afterwards: %q %v %v", name, i, v, found, err)
				}
			}
		}
	}
}

func TestDemotionScorePrefersColdDenseZones(t *testing.T) {
	m, _ := newMgr(t, 0, 4<<10)
	// Create objects across two zones; then read one zone a lot.
	for i := uint64(0); i < 100; i++ {
		putOne(m, k8(i<<30), make([]byte, 100), i+1, false)
	}
	for i := uint64(0); i < 100; i++ {
		putOne(m, k8(1<<60|i<<30), make([]byte, 100), 200+i, false)
	}
	m.mu.RLock()
	nZones := len(m.zones)
	m.mu.RUnlock()
	if nZones < 2 {
		t.Skip("bootstrap produced one zone; scoring comparison needs two")
	}
	// Heavily read keys in the second half of the space.
	for r := 0; r < 50; r++ {
		m.Get(k8(1<<60|uint64(r%100)<<30), device.Fg)
	}
	victim := m.PickDemotionVictim()
	if victim == nil {
		t.Fatal("no victim")
	}
	if victim.contains(1 << 60) {
		t.Fatal("picked the hot (recently read) zone for demotion")
	}
}

func TestSplitZone(t *testing.T) {
	m, _ := newMgr(t, 0, 4<<10) // tiny batch: bootstrap zone oversize fast
	for i := uint64(0); i < 2000; i++ {
		putOne(m, k8(i<<44), make([]byte, 64), i+1, false)
	}
	z, _ := m.PickOversizedZone()
	if z == nil {
		t.Skip("no oversized zone emerged")
	}
	zonesBefore := m.ZoneCount()
	moved, err := m.SplitZone(z)
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("split moved nothing")
	}
	if m.ZoneCount() <= zonesBefore {
		t.Fatalf("zones %d -> %d; split should create more zones", zonesBefore, m.ZoneCount())
	}
	// All data still readable.
	for i := uint64(0); i < 2000; i += 97 {
		if _, _, _, found, _ := m.Get(k8(i<<44), device.Fg); !found {
			t.Fatalf("key %d lost in split", i)
		}
	}
}

func TestScanOrdered(t *testing.T) {
	m, _ := newMgr(t, 0, 64<<10)
	for i := uint64(0); i < 300; i++ {
		putOne(m, k8(i<<40), []byte("v"), i+1, false)
	}
	var prev []byte
	n := 0
	m.Scan(nil, nil, func(k []byte, loc Location) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatal("scan out of order")
		}
		prev = append(prev[:0], k...)
		n++
		return true
	})
	if n != 300 {
		t.Fatalf("scanned %d", n)
	}
}

func TestKey64(t *testing.T) {
	if Key64([]byte{0, 0, 0, 0, 0, 0, 0, 1}) != 1 {
		t.Fatal("BE decode wrong")
	}
	if Key64([]byte{1}) != 1<<56 {
		t.Fatal("short key padding wrong")
	}
	if Key64(nil) != 0 {
		t.Fatal("nil key should map to 0")
	}
}

func TestRecoverRebuildsIndex(t *testing.T) {
	dev := device.New(device.UnthrottledProfile("nvme", 0))
	m := openMgr(t, Config{Dev: dev, Partition: 0, BatchSize: 64 << 10})
	// Writes, updates (in place and resized), deletes, a migration.
	for i := uint64(0); i < 1000; i++ {
		putOne(m, k8(i<<40), make([]byte, 100), i+1, false)
	}
	for i := uint64(0); i < 1000; i += 5 {
		putOne(m, k8(i<<40), make([]byte, 90), 2000+i, false) // in place
	}
	for i := uint64(1); i < 1000; i += 50 {
		putOne(m, k8(i<<40), make([]byte, 400), 4000+i, false) // resized
	}
	for i := uint64(2); i < 1000; i += 100 {
		deleteOne(m, k8(i<<40), 6000+i)
	}
	if z := m.PickDemotionVictim(); z != nil {
		b, err := m.PrepareMigration(z)
		if err != nil {
			t.Fatal(err)
		}
		m.CommitMigration(b)
	}
	// Refill after the migration so the recovered tier is non-trivial.
	for i := uint64(0); i < 300; i++ {
		putOne(m, k8(i<<40|7), make([]byte, 80), 10_000+i, false)
	}

	// Snapshot expected state.
	type want struct {
		seq  uint64
		tomb bool
	}
	expect := map[string]want{}
	m.Scan(nil, nil, func(k []byte, loc Location) bool {
		expect[string(k)] = want{seq: loc.Seq, tomb: loc.Tombstone}
		return true
	})

	re, maxSeq, err := Recover(Config{Dev: dev, Partition: 0, BatchSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if re.ObjectCount() != len(expect) {
		t.Fatalf("recovered %d objects, want %d", re.ObjectCount(), len(expect))
	}
	for k, w := range expect {
		v, seq, tomb, found, err := re.Get([]byte(k), device.Fg)
		if err != nil || !found {
			t.Fatalf("recovered get %x: found=%v err=%v", k, found, err)
		}
		if seq != w.seq || tomb != w.tomb {
			t.Fatalf("recovered %x: seq=%d tomb=%v, want seq=%d tomb=%v", k, seq, tomb, w.seq, w.tomb)
		}
		if !tomb && len(v) == 0 {
			t.Fatalf("recovered %x: empty value", k)
		}
	}
	if maxSeq < 10_000 {
		t.Fatalf("maxSeq = %d", maxSeq)
	}
	// The recovered manager is fully operational.
	if err := putOne(re, k8(5000<<32), []byte("new"), maxSeq+1, false); err != nil {
		t.Fatal(err)
	}
	if z := re.PickDemotionVictim(); z == nil {
		t.Fatal("recovered manager cannot pick demotion victims")
	}
}

func TestRecoverSlotReuseAccounting(t *testing.T) {
	// After recovery, freed slots must be reusable without double counting.
	dev := device.New(device.UnthrottledProfile("nvme", 0))
	m := openMgr(t, Config{Dev: dev, Partition: 0, BatchSize: 16 << 10})
	for i := uint64(0); i < 200; i++ {
		putOne(m, k8(i<<40), make([]byte, 100), i+1, false)
	}
	for i := uint64(0); i < 200; i += 2 {
		putOne(m, k8(i<<40), make([]byte, 400), 500+i, false) // resize frees 128B slots
	}
	re, maxSeq, err := Recover(Config{Dev: dev, Partition: 0, BatchSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	usedBefore := dev.Used()
	// New small writes into the existing zone ranges should reuse the freed
	// 128B slots, not allocate fresh pages.
	for i := uint64(0); i < 50; i++ {
		if err := putOne(re, k8(i<<40|3), make([]byte, 100), maxSeq+i+1, false); err != nil {
			t.Fatal(err)
		}
	}
	if grown := dev.Used() - usedBefore; grown > 4096*2 {
		t.Fatalf("recovered manager allocated %d bytes despite free slots", grown)
	}
}

// TestRecoverMixedPagesSurviveDemotion recovers a tier whose hot zone packed
// keys from all over the keyspace onto shared pages, then demotes every
// key-range zone. A demotion scans the zone's range and frees its pages
// wholesale, so recovery must not hand a key-range zone a page holding keys
// outside its range: every object must end up in a migration batch or still
// be readable, never freed unseen.
func TestRecoverMixedPagesSurviveDemotion(t *testing.T) {
	dev := device.New(device.UnthrottledProfile("nvme", 0))
	cfg := Config{Dev: dev, Partition: 0, BatchSize: 16 << 10}
	m := openMgr(t, cfg)
	want := map[string]uint64{}
	seq := uint64(0)
	put := func(key []byte, hot bool) {
		seq++
		if err := putOne(m, key, make([]byte, 100), seq, hot); err != nil {
			t.Fatal(err)
		}
		want[string(key)] = seq
	}
	for i := uint64(0); i < 600; i++ {
		put(k8(i<<52), false)
	}
	for i := uint64(0); i < 600; i += 7 {
		put(k8(i<<52|9), true) // hot writes: neighbours on a page are far apart in key
	}

	re, _, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	migrated := map[string]uint64{}
	for z := re.PickDemotionVictim(); z != nil; z = re.PickDemotionVictim() {
		b, err := re.PrepareMigration(z)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range b.Entries {
			migrated[string(e.Key)] = e.Seq
		}
		re.CommitMigration(b)
	}
	if len(migrated) == 0 {
		t.Fatal("nothing demoted")
	}
	for k, s := range want {
		if migrated[k] == s {
			continue
		}
		if _, got, tomb, found, err := re.Get([]byte(k), device.Fg); err != nil || !found || tomb || got != s {
			t.Fatalf("key %x seq %d neither migrated (%d) nor readable: found=%v seq=%d tomb=%v err=%v", k, s, migrated[k], found, got, tomb, err)
		}
	}
}
