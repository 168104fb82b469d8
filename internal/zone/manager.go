package zone

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"hyperdb/internal/btree"
	"hyperdb/internal/cache"
	"hyperdb/internal/device"
	"hyperdb/internal/keys"
	"hyperdb/internal/stats"
)

// ErrTooLarge reports an object bigger than the largest slot class (one
// page). The paper's workloads top out at 1 KiB values.
var ErrTooLarge = errors.New("zone: object exceeds page size")

// Location is an index entry: where a key lives in the zone group.
type Location struct {
	Class     int8
	Page      uint32
	Slot      uint16
	ZoneID    uint32
	Seq       uint64
	Size      int32 // header+key+value bytes
	Tombstone bool
	// Promoted labels objects copied up from the capacity tier (§3.5); a
	// no-longer-hot promoted object is dropped on eviction, not relocated.
	Promoted bool
}

// Config sizes a zone Manager (one per partition).
type Config struct {
	// Dev is the performance-tier device.
	Dev *device.Device
	// Partition names this manager's files.
	Partition int
	// BatchSize is B, the migration batch size = zone capacity in bytes.
	BatchSize int64
	// HotCapacity caps the hot zone's payload bytes before eviction.
	HotCapacity int64
	// Classes are the slot sizes (defaults to 64B…4KiB powers of two).
	Classes []int
	// Cache, if set, is the engine's DRAM cache: point reads cache the
	// object they fetched, scans the slot pages they walked.
	Cache *cache.LRU
}

func (c *Config) fill() {
	if c.BatchSize <= 0 {
		c.BatchSize = 4 << 20
	}
	if c.HotCapacity <= 0 {
		c.HotCapacity = c.BatchSize * 4
	}
	if len(c.Classes) == 0 {
		c.Classes = defaultClasses
	}
}

// Stats aggregates a manager's experiment counters.
type Stats struct {
	Objects            int64
	PayloadBytes       int64
	Zones              int
	MaxZoneBytes       int64 // payload of the largest key-range zone
	Migrations         uint64
	MigratedObjects    uint64
	MigrationPageReads uint64
	InPlaceUpdates     uint64
	Relocations        uint64
	HotEvictDropped    uint64
	HotEvictRelocated  uint64
	// Bg is the tier's background-byte ledger.
	Bg BgBytes
}

// BgBytes attributes the performance tier's background traffic to the
// mechanism that issued it, in bytes as the device books them: whole pages
// per read, sector-rounded slots per write. Demotion and rebuild writes that
// land on the capacity tier are the LSM's to count, not the zone tier's.
type BgBytes struct {
	DemotionRead   uint64 // PrepareMigration reading a zone out
	RebuildRead    uint64 // SplitZone reading an oversized zone
	RebuildWrite   uint64 // SplitZone re-placing its objects
	PromotionWrite uint64 // Promote copying a capacity-tier object up
	HotEvictRead   uint64 // EvictHotZone reading the old hot zone
	HotEvictWrite  uint64 // EvictHotZone keeping or relocating its objects
}

// Add accumulates o into b.
func (b *BgBytes) Add(o BgBytes) {
	b.DemotionRead += o.DemotionRead
	b.RebuildRead += o.RebuildRead
	b.RebuildWrite += o.RebuildWrite
	b.PromotionWrite += o.PromotionWrite
	b.HotEvictRead += o.HotEvictRead
	b.HotEvictWrite += o.HotEvictWrite
}

// Total sums the ledger.
func (b BgBytes) Total() uint64 {
	return b.DemotionRead + b.RebuildRead + b.RebuildWrite +
		b.PromotionWrite + b.HotEvictRead + b.HotEvictWrite
}

// Manager is one partition's zone group: slot files, the zone mapper, the
// in-memory B-tree index and the hot zone. It is internally locked; the
// shared-nothing partitioning above it keeps contention local.
type Manager struct {
	cfg Config

	// evictMu serialises hot-zone evictions (background worker vs stalled
	// foreground writers).
	evictMu sync.Mutex

	mu        sync.RWMutex
	slotFiles []*slotFile
	index     *btree.Map[Location]
	zones     []*Zone // key-range zones sorted by lo
	zoneByID  map[uint32]*Zone
	hot       *Zone
	nextZone  uint32

	migrations         stats.Counter
	migratedObjects    stats.Counter
	migrationPageReads stats.Counter
	inPlaceUpdates     stats.Counter
	relocations        stats.Counter
	hotEvictDropped    stats.Counter
	hotEvictRelocated  stats.Counter
	// bg is the ledger behind Stats.Bg; every background read and write
	// names the counter it is booked to (readObjects, writeObject).
	bg struct {
		demotionRead, rebuildRead, rebuildWrite     stats.Counter
		promotionWrite, hotEvictRead, hotEvictWrite stats.Counter
	}
}

// emptyManager is a manager with its hot zone and no slot files yet.
func emptyManager(cfg Config) *Manager {
	cfg.fill()
	m := &Manager{
		cfg:      cfg,
		index:    btree.New[Location](),
		zoneByID: make(map[uint32]*Zone),
		nextZone: 1,
	}
	m.hot = newZone(0, 0, math.MaxUint64, true, len(cfg.Classes))
	m.zoneByID[0] = m.hot
	return m
}

// zoneFor finds the live key-range zone containing k64, or nil.
func (m *Manager) zoneFor(k64 uint64) *Zone {
	i := sort.Search(len(m.zones), func(i int) bool { return m.zones[i].lo > k64 })
	if i == 0 {
		return nil
	}
	z := m.zones[i-1]
	if z.contains(k64) {
		return z
	}
	return nil
}

// avgObjectSize is Eq. 1: ΣF_k / ΣN_k over the slot files.
func (m *Manager) avgObjectSize() float64 {
	var files, objs int64
	for _, sf := range m.slotFiles {
		files += sf.bytes
		objs += sf.objects
	}
	if objs == 0 {
		return 256 // bootstrap guess
	}
	return float64(files) / float64(objs)
}

// zoneWidth estimates the key-range width of a new zone: Eq. 2 gives
// R = B/O objects per zone; the observed keyspace density (index size over
// key span) converts that object count into a 64-bit prefix width.
func (m *Manager) zoneWidth() uint64 {
	r := float64(m.cfg.BatchSize) / m.avgObjectSize() // objects per zone
	if r < 1 {
		r = 1
	}
	n := m.index.Len()
	if n < 2 {
		return 1 << 56 // bootstrap: carve the space coarsely
	}
	span := float64(Key64(m.index.Max()) - Key64(m.index.Min()))
	if span < 1 {
		span = 1
	}
	width := r * span / float64(n)
	if width < 1 {
		return 1
	}
	if width >= float64(math.MaxUint64) {
		return math.MaxUint64
	}
	return uint64(width)
}

// createZone makes the zone whose grid-aligned range contains k64, clipped
// against existing neighbours. Caller holds mu.
func (m *Manager) createZone(k64 uint64) *Zone {
	width := m.zoneWidth()
	var lo, hi uint64
	if width == math.MaxUint64 {
		lo, hi = 0, math.MaxUint64
	} else {
		lo = k64 - k64%width
		if math.MaxUint64-lo < width {
			hi = math.MaxUint64
		} else {
			hi = lo + width
		}
	}
	// Clip to neighbours so zones stay disjoint as the width estimate drifts.
	i := sort.Search(len(m.zones), func(i int) bool { return m.zones[i].lo > k64 })
	if i > 0 {
		if prev := m.zones[i-1]; prev.hi > lo {
			lo = prev.hi
		}
	}
	if i < len(m.zones) {
		if next := m.zones[i]; next.lo < hi {
			hi = next.lo
		}
	}
	if lo > k64 || (hi != math.MaxUint64 && k64 >= hi) {
		// Clipping collapsed the grid cell (width shrank since the
		// neighbours were created); fall back to a tight range around k64.
		lo, hi = k64, k64+1
		if i > 0 && m.zones[i-1].hi > lo {
			lo = m.zones[i-1].hi
		}
		if i < len(m.zones) && m.zones[i].lo < hi {
			hi = m.zones[i].lo
		}
	}
	z := newZone(m.nextZone, lo, hi, false, len(m.cfg.Classes))
	m.nextZone++
	m.zoneByID[z.id] = z
	m.zones = append(m.zones, nil)
	copy(m.zones[i+1:], m.zones[i:])
	m.zones[i] = z
	return z
}

// writeObject stores an object into zone z, allocating a slot. A nil bg is a
// foreground write; otherwise the write is background traffic, booked to
// that ledger counter. Caller holds mu. Returns the new location.
func (m *Manager) writeObject(z *Zone, c int, k, v []byte, seq uint64, tombstone, promoted bool, bg *stats.Counter) (Location, error) {
	sf := m.slotFiles[c]
	ref, ok := z.takeSlot(c, sf.slotsPerPage)
	if !ok {
		page, err := sf.allocPage()
		if err != nil {
			return Location{}, err
		}
		ref = z.addPage(c, page, sf.slotsPerPage)
	}
	op := device.Fg
	if bg != nil {
		op = device.Bg
	}
	if err := sf.writeSlot(ref.page, ref.slot, seq, tombstone, k, v, op); err != nil {
		return Location{}, err
	}
	if bg != nil {
		bg.Add(uint64(m.cfg.Dev.WriteCharge(int64(sf.slotSize))))
	}
	m.invalidateCache(c, ref.page)
	size := int32(slotHeaderSize + len(k) + len(v))
	z.objects++
	z.bytes += int64(size)
	sf.objects++
	sf.bytes += int64(size)
	return Location{
		Class: int8(c), Page: ref.page, Slot: ref.slot, ZoneID: z.id,
		Seq: seq, Size: size, Tombstone: tombstone, Promoted: promoted,
	}, nil
}

// dropLocation releases loc's slot and adjusts accounting. Caller holds mu.
func (m *Manager) dropLocation(loc Location) {
	z, ok := m.zoneByID[loc.ZoneID]
	if !ok {
		return // zone already detached by a migration
	}
	z.releaseSlot(int(loc.Class), slotRef{page: loc.Page, slot: loc.Slot})
	z.objects--
	z.bytes -= int64(loc.Size)
	sf := m.slotFiles[loc.Class]
	sf.objects--
	sf.bytes -= int64(loc.Size)
}

// cacheKey builds the page-cache key without fmt (it sits on every Get). The
// leading 'Z' plus binary layout keeps zone keys disjoint from the printable
// keys other cache users build.
func (m *Manager) cacheKey(c int, page uint32) string {
	var b [10]byte
	b[0] = 'Z'
	binary.LittleEndian.PutUint32(b[1:], uint32(m.cfg.Partition))
	b[5] = byte(c)
	binary.LittleEndian.PutUint32(b[6:], page)
	return string(b[:])
}

func (m *Manager) invalidateCache(c int, page uint32) {
	if m.cfg.Cache != nil {
		m.cfg.Cache.Delete(m.cacheKey(c, page))
	}
}

// objectKeyBuf holds the cache key of an object with a user key of up to 27
// bytes — with which the key, converted in place for a call that does not
// keep it, never reaches the heap.
type objectKeyBuf [32]byte

// objectKey builds key's name in the cache in buf: 'V', disjoint from the
// page keys' 'Z', the partition, the user key. Objects are cached under the
// rule that makes a stale entry unservable rather than wrong: an entry tagged
// s holds exactly version s of its key — a reader fills it with bytes that
// matched the index entry's key and sequence (load), a writer refreshes it
// with the version it is writing — and it is served only to a reader whose
// index entry names s.
func (m *Manager) objectKey(buf *objectKeyBuf, key []byte) []byte {
	buf[0] = 'V'
	binary.LittleEndian.PutUint32(buf[1:], uint32(m.cfg.Partition))
	return append(buf[:5], key...)
}

// refreshObject keeps key's cached object, if there is one, current with the
// version being written. A write caches nothing itself: most written objects
// are not read before they are written again or leave the tier. Caller holds
// mu, so refreshes reach the cache in index order.
func (m *Manager) refreshObject(key []byte, seq uint64, value []byte) {
	if m.cfg.Cache != nil {
		var kb objectKeyBuf
		m.cfg.Cache.RefreshObject(string(m.objectKey(&kb, key)), seq, value)
	}
}

// uncacheObject drops key's cached object: the key is deleted or has left the
// tier. The tag rule already made the entry unservable; this returns its
// bytes to the budget.
func (m *Manager) uncacheObject(key []byte) {
	if m.cfg.Cache != nil {
		var kb objectKeyBuf
		m.cfg.Cache.Delete(string(m.objectKey(&kb, key)))
	}
}

// Put writes key=value at sequence seq. hot routes the object to the hot
// zone (tracker-classified or promoted). promoted marks a copy of
// capacity-tier data. Charges one random page write, plus a tombstone write
// when the object relocates between slots (§3.2).
func (m *Manager) Put(key, value []byte, seq uint64, hot, promoted bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.putLocked(key, value, seq, hot, promoted)
}

// putLocked is Put's body; the caller holds mu. ApplyBatch uses it to apply
// a whole partition group under one lock acquisition.
func (m *Manager) putLocked(key, value []byte, seq uint64, hot, promoted bool) error {
	need := slotHeaderSize + len(key) + len(value)
	c := classFor(m.cfg.Classes, need)
	if c < 0 {
		return ErrTooLarge
	}

	if ref := m.index.Ref(key); ref != nil {
		old := *ref
		oldZone, zoneLive := m.zoneByID[old.ZoneID]
		if zoneLive && int(old.Class) == c && !old.Tombstone {
			// In-place update: same slot, one page write. The index entry
			// mutates through ref — no second descent, no key re-clone.
			sf := m.slotFiles[c]
			if err := sf.writeSlot(old.Page, old.Slot, seq, false, key, value, device.Fg); err != nil {
				return err
			}
			m.invalidateCache(c, old.Page)
			size := int32(need)
			oldZone.bytes += int64(size) - int64(old.Size)
			sf.bytes += int64(size) - int64(old.Size)
			ref.Seq, ref.Size, ref.Promoted = seq, size, false
			m.refreshObject(key, seq, value)
			m.inPlaceUpdates.Inc()
			return nil
		}
		// Resized (different class) or zone gone: write the new slot first,
		// then leave a tombstone at the old location (§3.2). Writing the
		// value before the tombstone keeps recovery safe: a crash between
		// the two leaves two versions and the newer one wins the scan.
		// writeObject and Set below may restructure the tree, so only the
		// copy in old is used from here on.
		z := m.hot
		if !hot {
			k64 := Key64(key)
			if z = m.zoneFor(k64); z == nil {
				z = m.createZone(k64)
			}
		}
		loc, err := m.writeObject(z, c, key, value, seq, false, promoted, nil)
		if err != nil {
			return err
		}
		m.index.Set(bytes.Clone(key), loc)
		m.refreshObject(key, seq, value)
		if zoneLive {
			sf := m.slotFiles[old.Class]
			if err := sf.writeSlot(old.Page, old.Slot, seq, true, key, nil, device.Fg); err != nil {
				return err
			}
			m.invalidateCache(int(old.Class), old.Page)
			m.dropLocation(old)
			m.relocations.Inc()
		}
		return nil
	}

	z := m.hot
	if !hot {
		k64 := Key64(key)
		if z = m.zoneFor(k64); z == nil {
			z = m.createZone(k64)
		}
	}
	loc, err := m.writeObject(z, c, key, value, seq, false, promoted, nil)
	if err != nil {
		return err
	}
	m.index.Set(bytes.Clone(key), loc) // new to the tier: nothing cached to refresh
	return nil
}

// Delete writes a tombstone for key. The tombstone occupies a small slot and
// migrates to the capacity tier like any object, deleting the key there.
func (m *Manager) Delete(key []byte, seq uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.deleteLocked(key, seq)
}

// deleteLocked is Delete's body; the caller holds mu.
func (m *Manager) deleteLocked(key []byte, seq uint64) error {
	c := classFor(m.cfg.Classes, slotHeaderSize+len(key))
	if c < 0 {
		return ErrTooLarge
	}

	m.uncacheObject(key)
	if ref := m.index.Ref(key); ref != nil {
		old := *ref
		if z, live := m.zoneByID[old.ZoneID]; live {
			// Overwrite the existing slot with the tombstone: cheaper than
			// allocating, and mandatory for recovery — a released slot
			// holding a stale-but-checksummed value would outlive its
			// tombstone if the tombstone's zone migrated to the capacity
			// tier first.
			sf := m.slotFiles[old.Class]
			if err := sf.writeSlot(old.Page, old.Slot, seq, true, key, nil, device.Fg); err != nil {
				return err
			}
			m.invalidateCache(int(old.Class), old.Page)
			size := int32(slotHeaderSize + len(key))
			z.bytes += int64(size) - int64(old.Size)
			sf.bytes += int64(size) - int64(old.Size)
			ref.Seq, ref.Size, ref.Tombstone, ref.Promoted = seq, size, true, false
			return nil
		}
	}
	k64 := Key64(key)
	z := m.zoneFor(k64)
	if z == nil {
		z = m.createZone(k64)
	}
	loc, err := m.writeObject(z, c, key, nil, seq, true, false, nil)
	if err != nil {
		return err
	}
	m.index.Set(bytes.Clone(key), loc)
	return nil
}

// Get looks key up in the tier. found=false means the tier has no opinion
// (fall through to the capacity tier); a tombstone returns found=true,
// tombstone=true — authoritative deletion.
func (m *Manager) Get(key []byte, op device.Op) (value []byte, seq uint64, tombstone, found bool, err error) {
	r, err := m.get(key, op, nil)
	return r.Value, r.Seq, r.Tombstone, r.Found, err
}

// optimisticLoads is how many times get reads a slot without holding the
// index lock before it pins the index for the read.
const optimisticLoads = 3

// get answers for key from the index and the slot the index names. A slot
// that no longer holds the named version (ErrMoved) says nothing about the
// key — it was updated in place, relocated, deleted or demoted since the
// lookup — so the key is resolved again: only an index miss means the tier
// has no opinion. After optimisticLoads tries the read happens under the
// index lock, where no writer can move the object, so a reader terminates
// against a writer that never pauses. Device reads heat the object's zone
// (§3.5) whatever they found.
func (m *Manager) get(key []byte, op device.Op, memo map[scanPageKey][]byte) (GetResult, error) {
	for attempt := 0; ; attempt++ {
		pinned := attempt == optimisticLoads
		m.mu.RLock()
		loc, ok := m.index.Get(key)
		if !pinned || !ok || loc.Tombstone {
			m.mu.RUnlock()
		}
		if !ok {
			return GetResult{}, nil
		}
		if loc.Tombstone {
			return GetResult{Seq: loc.Seq, Tombstone: true, Found: true}, nil
		}
		v, dev, err := m.load(key, loc, op, memo, true)
		if pinned {
			m.mu.RUnlock()
		}
		if dev && !op.Background {
			m.heat(loc.ZoneID)
		}
		switch {
		case err == nil:
			return GetResult{Value: v, Seq: loc.Seq, Found: true}, nil
		case !errors.Is(err, ErrMoved):
			return GetResult{}, err
		case pinned:
			// No writer ran between the lookup and the read, so the slot
			// did not move: it is damaged.
			return GetResult{}, fmt.Errorf("zone: the slot the index names for %q at seq %d does not hold it", string(key), loc.Seq)
		}
	}
}

// heat counts one foreground page read against zone id, if it is still in the
// group. It follows a device read, next to which its lock costs nothing.
func (m *Manager) heat(id uint32) {
	m.mu.RLock()
	if z := m.zoneByID[id]; z != nil {
		z.readIOs.Add(1)
	}
	m.mu.RUnlock()
}

// ErrMoved reports that the object a Location named is no longer there: an
// update, delete, migration, split or hot-zone eviction rewrote or freed its
// slot after the location was taken. The newest version is wherever a fresh
// lookup finds it.
var ErrMoved = errors.New("zone: object moved")

// load returns a copy of the value of the object loc names — key at sequence
// loc.Seq, not a tombstone — or ErrMoved when that version is not at loc any
// more. It is the tier's one reader of slots and looks in a fixed order: the
// cached object, the caller's page memo (nil for none), the cached page, the
// device. A page fetched for a point read is not cached: the object it was
// read for is, tagged loc.Seq, at a twentieth of the price. A scan walks
// neighbours, so its pages are cached whole (and fill the memo, as a cached
// page does).
//
// Slots are rewritten in place, so a page that holds key proves nothing: the
// slot is the object the index named iff key and sequence both match. A
// cached or memoised page that disagrees is stale — a writer reached the slot
// after the page was copied — so the device is read. A page fresh from the
// device that disagrees means loc is stale, and only the index knows where
// the newest version is now.
//
// load takes no lock: the cache has its own, and a slot file is only read.
// dev reports a device read.
func (m *Manager) load(key []byte, loc Location, op device.Op, memo map[scanPageKey][]byte, point bool) (value []byte, dev bool, err error) {
	c := m.cfg.Cache
	var kb objectKeyBuf
	var object string // key's name in the cache; on the stack, like kb
	if c != nil {
		object = string(m.objectKey(&kb, key))
		if v, ok := c.GetObject(object, loc.Seq, nil); ok {
			return v, false, nil
		}
	}
	sf := m.slotFiles[loc.Class]
	named := func(page []byte) ([]byte, bool) {
		seq, tomb, k, v, err := sf.decodeSlotInPage(page, loc.Slot)
		if err != nil || tomb || seq != loc.Seq || !bytes.Equal(k, key) {
			return nil, false
		}
		return bytes.Clone(v), true
	}
	pk := scanPageKey{loc.Class, loc.Page}
	page, have := memo[pk]
	if !have && c != nil {
		if page, have = c.Get(m.cacheKey(int(loc.Class), loc.Page)); have && memo != nil {
			memo[pk] = page
		}
	}
	if have {
		if v, ok := named(page); ok {
			return v, false, nil
		}
	}
	if page, err = sf.readPage(loc.Page, op); err != nil {
		return nil, false, err
	}
	if c != nil && !point {
		c.Put(m.cacheKey(int(loc.Class), loc.Page), page)
	}
	if memo != nil {
		memo[pk] = page
	}
	v, ok := named(page)
	if !ok {
		return nil, true, ErrMoved // bare: formatting key in would make every caller's key escape
	}
	if c != nil && point {
		c.PutObject(object, loc.Seq, v)
	}
	return v, true, nil
}

// Promote inserts a capacity-tier object into the hot zone with the
// promotion label, unless the tier already has any version of the key
// (which would be at least as new). Charged as background I/O (§3.5:
// promotions flush asynchronously from the object cache).
func (m *Manager) Promote(key, value []byte, seq uint64) error {
	need := slotHeaderSize + len(key) + len(value)
	c := classFor(m.cfg.Classes, need)
	if c < 0 {
		return ErrTooLarge
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.index.Get(key); ok {
		return nil
	}
	loc, err := m.writeObject(m.hot, c, key, value, seq, false, true, &m.bg.promotionWrite)
	if err != nil {
		return err
	}
	m.index.Set(bytes.Clone(key), loc)
	// Promoted because it is being read, so cached past admission: its reads
	// went to the capacity tier, and the cache's sketch never counted them.
	if m.cfg.Cache != nil {
		var kb objectKeyBuf
		m.cfg.Cache.PromoteObject(string(m.objectKey(&kb, key)), seq, value)
	}
	return nil
}

// Has reports whether the tier has an entry (value or tombstone) for key.
func (m *Manager) Has(key []byte) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.index.Get(key)
	return ok
}

// Scan visits index entries with lo <= key < hi in order. fn must not call
// back into the manager.
func (m *Manager) Scan(lo, hi []byte, fn func(key []byte, loc Location) bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	m.index.Ascend(lo, hi, fn)
}

// ReadAt fetches the object at loc (used by scans after collecting
// locations), or ErrMoved when loc is stale.
func (m *Manager) ReadAt(key []byte, loc Location, op device.Op) ([]byte, error) {
	v, _, err := m.load(key, loc, op, nil, false)
	return v, err
}

// ObjectCount returns the number of index entries.
func (m *Manager) ObjectCount() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.index.Len()
}

// PayloadBytes returns the payload stored across all zones.
func (m *Manager) PayloadBytes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var n int64
	n += m.hot.bytes
	for _, z := range m.zones {
		n += z.bytes
	}
	return n
}

// Stats snapshots the manager's counters.
func (m *Manager) Stats() Stats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var payload, largest int64
	payload += m.hot.bytes
	for _, z := range m.zones {
		payload += z.bytes
		largest = max(largest, z.bytes)
	}
	return Stats{
		Objects:            int64(m.index.Len()),
		PayloadBytes:       payload,
		Zones:              len(m.zones),
		MaxZoneBytes:       largest,
		Migrations:         m.migrations.Load(),
		MigratedObjects:    m.migratedObjects.Load(),
		MigrationPageReads: m.migrationPageReads.Load(),
		InPlaceUpdates:     m.inPlaceUpdates.Load(),
		Relocations:        m.relocations.Load(),
		HotEvictDropped:    m.hotEvictDropped.Load(),
		HotEvictRelocated:  m.hotEvictRelocated.Load(),
		Bg: BgBytes{
			DemotionRead:   m.bg.demotionRead.Load(),
			RebuildRead:    m.bg.rebuildRead.Load(),
			RebuildWrite:   m.bg.rebuildWrite.Load(),
			PromotionWrite: m.bg.promotionWrite.Load(),
			HotEvictRead:   m.bg.hotEvictRead.Load(),
			HotEvictWrite:  m.bg.hotEvictWrite.Load(),
		},
	}
}

// HotZoneBytes returns the hot zone's payload size.
func (m *Manager) HotZoneBytes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.hot.bytes
}

// HotZoneOver reports whether the hot zone exceeds its capacity.
func (m *Manager) HotZoneOver() bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.hot.bytes > m.cfg.HotCapacity
}

// ZoneCount returns the number of key-range zones (excluding the hot zone).
func (m *Manager) ZoneCount() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.zones)
}

// Batch is a migration batch: sorted entries plus provenance for commit.
type Batch struct {
	Entries   []MigEntry
	PageReads int
	zone      *Zone
}

// MigEntry is one object leaving the performance tier.
type MigEntry struct {
	Key       []byte
	Value     []byte
	Seq       uint64
	Tombstone bool
}

// Range returns the migrated key range.
func (b *Batch) Range() keys.Range {
	if len(b.Entries) == 0 {
		return keys.Range{}
	}
	return keys.Range{
		Lo: b.Entries[0].Key,
		Hi: keys.Successor(b.Entries[len(b.Entries)-1].Key),
	}
}

// ScanReader amortises page reads across one range scan: distinct pages are
// fetched once and shared by every object on them. This implements the scan
// optimisation the paper leaves as future work (§4.2) — without it, scans
// are sequential point queries that may fetch the same page repeatedly.
type ScanReader struct {
	m     *Manager
	pages map[scanPageKey][]byte
}

type scanPageKey struct {
	class int8
	page  uint32
}

// NewScanReader returns a reader with an empty page memo.
func (m *Manager) NewScanReader() *ScanReader {
	return &ScanReader{m: m, pages: make(map[scanPageKey][]byte)}
}

// Read is ReadAt through the reader's page memo, charging its device reads as
// sequential.
func (r *ScanReader) Read(key []byte, loc Location, op device.Op) ([]byte, error) {
	op.Sequential = true
	v, _, err := r.m.load(key, loc, op, r.pages, false)
	return v, err
}
