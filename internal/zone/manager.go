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
	"hyperdb/internal/slot"
	"hyperdb/internal/stats"
)

// ErrTooLarge reports an object bigger than the largest slot class (one
// page). The paper's workloads top out at 1 KiB values.
var ErrTooLarge = errors.New("zone: object exceeds page size")

// ErrSuperseded refuses a promotion that a newer write, since moved to the
// capacity tier, may have overtaken (see Promote).
var ErrSuperseded = errors.New("zone: promotion superseded")

// Location is an index entry: where a key lives in the zone group. Its
// fields are ordered to pack into 24 bytes, one index item's largest part.
type Location struct {
	slot.Addr
	ZoneID    uint32
	Size      uint16 // header+key+value bytes, at most one page
	Tombstone bool
	// Promoted labels objects copied up from the capacity tier (§3.5); a
	// no-longer-hot promoted object is dropped on eviction, not relocated.
	Promoted bool
	Seq      uint64
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
	// Cache, if set, is the engine's DRAM cache: every read caches the
	// object it fetched, never its slot page.
	Cache *cache.LRU
}

func (c *Config) fill() {
	if c.BatchSize <= 0 {
		c.BatchSize = 4 << 20
	}
	if c.HotCapacity <= 0 {
		c.HotCapacity = c.BatchSize * 4
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
// per read, sector-rounded slot runs per write. Demotion and rebuild writes
// that land on the capacity tier are the LSM's to count, not the zone tier's.
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

	mu       sync.RWMutex
	files    slot.Files
	index    *btree.Map[Location]
	zones    []*Zone // key-range zones sorted by lo
	zoneByID map[uint32]*Zone
	hot      *Zone
	nextZone uint32
	// storedObjects and storedBytes sum every object in the slot files:
	// Eq. 1's ΣN_k and ΣF_k.
	storedObjects, storedBytes int64
	// demoted is the newest sequence a migration has moved to the capacity
	// tier.
	demoted uint64
	// gen moves with every put, delete and removal from the index: a point
	// read caches what it read only if gen held still since its lookup (load).
	gen uint64

	migrations         stats.Counter
	migratedObjects    stats.Counter
	migrationPageReads stats.Counter
	inPlaceUpdates     stats.Counter
	relocations        stats.Counter
	hotEvictDropped    stats.Counter
	hotEvictRelocated  stats.Counter
	// bg is the ledger behind Stats.Bg; every background read and write
	// names the counter it is booked to (readObjects, writeObject,
	// writeRun).
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
	m.hot = newZone(0, 0, math.MaxUint64, true)
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
	if m.storedObjects == 0 {
		return 256 // bootstrap guess
	}
	return float64(m.storedBytes) / float64(m.storedObjects)
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
	z := newZone(m.nextZone, lo, hi, false)
	m.nextZone++
	m.zoneByID[z.id] = z
	m.zones = append(m.zones, nil)
	copy(m.zones[i+1:], m.zones[i:])
	m.zones[i] = z
	return z
}

// rangeZone returns the key-range zone that owns key, creating it if the
// range has none. Caller holds mu.
func (m *Manager) rangeZone(key []byte) *Zone {
	k64 := Key64(key)
	if z := m.zoneFor(k64); z != nil {
		return z
	}
	return m.createZone(k64)
}

// allocSlot takes a slot of class c in zone z: a freed one, the next of the
// open page, or the first of a fresh page. Caller holds mu.
func (m *Manager) allocSlot(z *Zone, c int) (slot.Addr, error) {
	sf := m.files[c]
	if ref, ok := z.takeSlot(c, sf.SlotsPerPage()); ok {
		return ref, nil
	}
	page, err := sf.AllocPage()
	if err != nil {
		return slot.Addr{}, err
	}
	return z.addPage(c, page, sf.SlotsPerPage()), nil
}

// stored books an object just written to slot a into z's and the group's
// accounting and returns its location. Caller holds mu.
func (m *Manager) stored(z *Zone, a slot.Addr, k, v []byte, seq uint64, tombstone, promoted bool) Location {
	size := uint16(slot.HeaderSize + len(k) + len(v))
	z.objects++
	z.bytes += int64(size)
	m.storedObjects++
	m.storedBytes += int64(size)
	return Location{
		Addr: a, ZoneID: z.id, Seq: seq, Size: size, Tombstone: tombstone, Promoted: promoted,
	}
}

// writeObject stores one object into zone z, allocating a slot. A nil bg is
// a foreground write; otherwise the write is background traffic, booked to
// that ledger counter. Caller holds mu. Returns the new location.
func (m *Manager) writeObject(z *Zone, c int, k, v []byte, seq uint64, tombstone, promoted bool, bg *stats.Counter) (Location, error) {
	a, err := m.allocSlot(z, c)
	if err != nil {
		return Location{}, err
	}
	op := device.Fg
	if bg != nil {
		op = device.Bg
	}
	sf := m.files[c]
	if err := sf.Write(a.Page, a.Slot, seq, tombstone, k, v, op); err != nil {
		return Location{}, err
	}
	if bg != nil {
		bg.Add(uint64(m.cfg.Dev.WriteCharge(int64(sf.SlotSize()))))
	}
	return m.stored(z, a, k, v, seq, tombstone, promoted), nil
}

// dropLocation releases loc's slot and adjusts accounting. Caller holds mu.
func (m *Manager) dropLocation(loc Location) {
	z, ok := m.zoneByID[loc.ZoneID]
	if !ok {
		return // zone already detached by a migration
	}
	z.releaseSlot(loc.Addr)
	z.objects--
	z.bytes -= int64(loc.Size)
	m.storedObjects--
	m.storedBytes -= int64(loc.Size)
}

// objectKeyBuf holds the cache key of an object with a user key of up to 27
// bytes — with which the key, converted in place for a call that does not
// keep it, never reaches the heap.
type objectKeyBuf [32]byte

// objectKey builds key's name in the cache in buf: 'V', disjoint from the
// capacity tier's printable block keys, the partition, the user key. A cached
// object is always its key's newest version in the tier, so a hit answers a
// Get without the index: a writer, under mu, refreshes the entry with the
// version it writes or uncaches the key it deletes or removes, and a reader
// fills only a version no write has overtaken since its lookup (load).
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
// tier. Caller holds mu.
func (m *Manager) uncacheObject(key []byte) {
	if m.cfg.Cache != nil {
		var kb objectKeyBuf
		m.cfg.Cache.Delete(string(m.objectKey(&kb, key)))
	}
}

// putLocked writes key=value at sequence seq; the caller (ApplyBatch) holds
// mu. hot routes the object to the hot zone. Charges one random page write,
// plus a write erasing the old slot when the object relocates (§3.2).
func (m *Manager) putLocked(key, value []byte, seq uint64, hot bool) error {
	need := slot.HeaderSize + len(key) + len(value)
	c := slot.ClassFor(need)
	if c < 0 {
		return ErrTooLarge
	}
	m.gen++

	if ref := m.index.Ref(key); ref != nil {
		old := *ref
		oldZone, zoneLive := m.zoneByID[old.ZoneID]
		if zoneLive && int(old.Class) == c && !old.Tombstone {
			// In-place update: same slot, one page write. The index entry
			// mutates through ref — no second descent.
			if err := m.files[c].Write(old.Page, old.Slot, seq, false, key, value, device.Fg); err != nil {
				return err
			}
			size := uint16(need)
			oldZone.bytes += int64(size) - int64(old.Size)
			m.storedBytes += int64(size) - int64(old.Size)
			ref.Seq, ref.Size, ref.Promoted = seq, size, false
			m.refreshObject(key, seq, value)
			m.inPlaceUpdates.Inc()
			return nil
		}
		// Resized (different class) or zone gone: write the new slot first,
		// then erase the old one (§3.2). Writing the value first keeps
		// recovery safe: a crash between the two leaves two versions and the
		// newer one wins the scan. The old slot is erased, not tombstoned: a
		// tombstone at the new sequence would outlive the value if the
		// value's zone were demoted first, and hide the key after a restart.
		// writeObject and Set below may restructure the tree, so only the
		// copy in old is used from here on.
		z := m.hot
		if !hot {
			z = m.rangeZone(key)
		}
		loc, err := m.writeObject(z, c, key, value, seq, false, false, nil)
		if err != nil {
			return err
		}
		m.index.Set(key, loc)
		m.refreshObject(key, seq, value)
		if zoneLive {
			if err := m.files[old.Class].Erase(old.Page, old.Slot, device.Fg); err != nil {
				return err
			}
			m.dropLocation(old)
			m.relocations.Inc()
		}
		return nil
	}

	z := m.hot
	if !hot {
		z = m.rangeZone(key)
	}
	loc, err := m.writeObject(z, c, key, value, seq, false, false, nil)
	if err != nil {
		return err
	}
	m.index.Set(key, loc) // new to the tier: nothing cached to refresh
	return nil
}

// deleteLocked writes a tombstone for key; the caller (ApplyBatch) holds mu.
// The tombstone occupies a small slot and migrates to the capacity tier like
// any object, deleting the key there.
func (m *Manager) deleteLocked(key []byte, seq uint64) error {
	c := slot.ClassFor(slot.HeaderSize + len(key))
	if c < 0 {
		return ErrTooLarge
	}
	m.gen++
	m.uncacheObject(key)
	if ref := m.index.Ref(key); ref != nil {
		old := *ref
		if z, live := m.zoneByID[old.ZoneID]; live {
			// Overwrite the existing slot with the tombstone: cheaper than
			// allocating, and mandatory for recovery — a released slot
			// holding a stale-but-checksummed value would outlive its
			// tombstone if the tombstone's zone migrated to the capacity
			// tier first.
			if err := m.files[old.Class].Write(old.Page, old.Slot, seq, true, key, nil, device.Fg); err != nil {
				return err
			}
			size := uint16(slot.HeaderSize + len(key))
			z.bytes += int64(size) - int64(old.Size)
			m.storedBytes += int64(size) - int64(old.Size)
			ref.Seq, ref.Size, ref.Tombstone, ref.Promoted = seq, size, true, false
			return nil
		}
	}
	loc, err := m.writeObject(m.rangeZone(key), c, key, nil, seq, true, false, nil)
	if err != nil {
		return err
	}
	m.index.Set(key, loc)
	return nil
}

// Get looks key up in the tier. found=false means the tier has no opinion
// (fall through to the capacity tier); a tombstone returns found=true,
// tombstone=true — authoritative deletion.
func (m *Manager) Get(key []byte, op device.Op) (value []byte, seq uint64, tombstone, found bool, err error) {
	r, err := m.get(key, op)
	return r.Value, r.Seq, r.Tombstone, r.Found, err
}

// GetResult is what get answers for one key. Found=false means the tier has
// no opinion; Tombstone=true is an authoritative deletion.
type GetResult struct {
	Value     []byte
	Seq       uint64
	Tombstone bool
	Found     bool
}

// optimisticLoads is how many times get reads a slot without holding the
// index lock before it pins the index for the read.
const optimisticLoads = 3

// get answers for key from the cached object, which is its newest version,
// or else from the index and the slot the index names. A slot that no longer
// holds the named version (ErrMoved) says nothing about the key — it was
// updated in place, relocated, deleted or demoted since the lookup — so the
// key is resolved again: only an index miss means the tier has no opinion.
// After optimisticLoads tries the read happens under the index lock, where no
// writer can move the object, so a reader terminates against a writer that
// never pauses. Device reads heat the object's zone (§3.5) whatever they
// found.
func (m *Manager) get(key []byte, op device.Op) (GetResult, error) {
	if c := m.cfg.Cache; c != nil {
		// A miss here is not counted: the key may not be the tier's at all,
		// and the lookup's own probe (load) counts it if it is.
		var kb objectKeyBuf
		if v, seq, ok := c.GetObject(string(m.objectKey(&kb, key)), nil, false); ok {
			return GetResult{Value: v, Seq: seq, Found: true}, nil
		}
	}
	for attempt := 0; ; attempt++ {
		pinned := attempt == optimisticLoads
		m.mu.RLock()
		loc, ok := m.index.Get(key)
		gen := m.gen
		if !pinned || !ok || loc.Tombstone {
			m.mu.RUnlock()
		}
		if !ok {
			return GetResult{}, nil
		}
		if loc.Tombstone {
			return GetResult{Seq: loc.Seq, Tombstone: true, Found: true}, nil
		}
		v, dev, err := m.load(key, loc, op, nil, gen, pinned)
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
// cached object, the page in memo — the pages a scan has fetched, nil for a
// point read — and the device, which a point read asks for the slot alone.
// It caches the object, never the page, which would crowd out blocks the
// capacity tier needs.
//
// A slot is the object the index named iff key and sequence both match
// (slot.File.Named). A page in memo that disagrees is stale — a writer
// reached the slot after the page was fetched — so the device is read. A
// slot fresh from the device that disagrees means loc is stale, and only the
// index knows where the newest version is now. So does a cached object of
// another version, for the cache holds the newest.
//
// load takes no lock to read: the cache has its own, a slot file is only
// read, and a memo is one scan's. The fill takes mu for reading, unless the
// caller holds it (locked), and is dropped if a write has overtaken loc since
// its lookup (current): else it could put back what a write just replaced or
// uncached. dev reports a device read.
func (m *Manager) load(key []byte, loc Location, op device.Op, memo slot.Pages, gen uint64, locked bool) (value []byte, dev bool, err error) {
	c := m.cfg.Cache
	var kb objectKeyBuf
	var object string // key's name in the cache; on the stack, like kb
	if c != nil {
		object = string(m.objectKey(&kb, key))
		if v, tag, ok := c.GetObject(object, nil, true); ok {
			if tag != loc.Seq {
				return nil, false, ErrMoved
			}
			return v, false, nil
		}
	}
	sf := m.files[loc.Class]
	var v []byte
	ok := false
	if page, held := memo.Held(loc.Addr); held {
		v, ok = sf.Named(page, loc.Slot, key, loc.Seq)
	}
	if !ok {
		buf, s, err := memo.Fetch(m.files, loc.Addr, op)
		if err != nil {
			return nil, false, err
		}
		if v, ok = sf.Named(buf, s, key, loc.Seq); !ok {
			return nil, true, ErrMoved // bare: formatting key in would make every caller's key escape
		}
		dev = true
	}
	if memo != nil {
		v = bytes.Clone(v) // a view into a page the scan keeps
	}
	v = v[:len(v):len(v)]
	if c != nil {
		if fillHook != nil {
			fillHook()
		}
		if !locked {
			m.mu.RLock()
			defer m.mu.RUnlock()
		}
		if m.current(key, loc, gen) {
			c.PutObject(object, loc.Seq, v)
		}
	}
	return v, dev, nil
}

// fillHook, when a test sets it, runs between load's slot read and its fill.
var fillHook func()

// scanGen is the generation a scan's read passes load, having none.
const scanGen = ^uint64(0)

// current reports whether loc, looked up at generation gen, or by a scan, is
// still its key's newest version. Caller holds mu.
func (m *Manager) current(key []byte, loc Location, gen uint64) bool {
	if gen != scanGen {
		return gen == m.gen
	}
	cur, ok := m.index.Get(key)
	return ok && cur.Seq == loc.Seq
}

// Promote inserts a capacity-tier object into the hot zone with the
// promotion label, unless the tier already has any version of the key
// (which would be at least as new). after is the newest sequence applied to
// the tier when the read that found the object began: a write the read did
// not see carries a larger one. If a migration has since moved such a write
// to the capacity tier, it may be the key's, so the promotion is refused
// with ErrSuperseded rather than put back a value that write overwrote.
// Charged as background I/O (§3.5: promotions flush asynchronously from the
// object cache).
func (m *Manager) Promote(key, value []byte, seq, after uint64) error {
	c := slot.ClassFor(slot.HeaderSize + len(key) + len(value))
	if c < 0 {
		return ErrTooLarge
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.index.Get(key); ok {
		return nil
	}
	if m.demoted > after {
		return ErrSuperseded
	}
	loc, err := m.writeObject(m.hot, c, key, value, seq, false, true, &m.bg.promotionWrite)
	if err != nil {
		return err
	}
	m.index.Set(key, loc)
	// Promoted because it is being read, so cached past admission: its reads
	// went to the capacity tier, and the cache's sketch never counted them.
	if m.cfg.Cache != nil {
		var kb objectKeyBuf
		m.cfg.Cache.PromoteObject(string(m.objectKey(&kb, key)), seq, value)
	}
	return nil
}

// Scan visits index entries with lo <= key < hi in order. fn must not call
// back into the manager. The key fn gets is immutable and stays valid after
// the walk (btree.Map.Ascend).
func (m *Manager) Scan(lo, hi []byte, fn func(key []byte, loc Location) bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	m.index.Ascend(lo, hi, fn)
}

// ReadAt fetches the object at loc for a scan, through the scan's own memo,
// or ErrMoved when loc is stale.
func (m *Manager) ReadAt(key []byte, loc Location, op device.Op, memo slot.Pages) ([]byte, error) {
	v, _, err := m.load(key, loc, op, memo, scanGen, false)
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
