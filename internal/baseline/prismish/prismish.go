// Package prismish is the PrismDB-style baseline of §4.1: the *caching*
// multi-tier architecture. The NVMe device holds a slab object store —
// size-classed slot files with global free lists, no key-range organisation
// — plus an in-memory index; a clock (second-chance) bit per object tracks
// hotness; when the device crosses its high watermark, cold objects in a
// key range are collected and merged into a SATA-resident leveled LSM.
//
// Because slots are allocated from global free lists, objects with adjacent
// keys scatter across pages. Migrating a sorted batch of K small objects
// therefore reads ~K distinct pages — the read amplification HyperDB's
// zone layout removes (Figures 2a and 9b).
package prismish

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"hyperdb/internal/baseline/leveled"
	"hyperdb/internal/btree"
	"hyperdb/internal/cache"
	"hyperdb/internal/compress"
	"hyperdb/internal/device"
	"hyperdb/internal/engine"
	"hyperdb/internal/stats"
)

// ErrTooLarge reports an object over the page size.
var ErrTooLarge = fmt.Errorf("prismish: object exceeds page size")

// Options configures the engine.
type Options struct {
	NVMe *device.Device
	SATA *device.Device
	// CacheBytes is the DRAM page cache budget.
	CacheBytes int64
	// HighWatermark triggers migration; LowWatermark stops it.
	HighWatermark float64
	LowWatermark  float64
	// BatchObjects is the object count per migration batch.
	BatchObjects int
	// FileSize, L1Target, Ratio, MaxLevels parameterise the SATA LSM.
	FileSize  int64
	L1Target  int64
	Ratio     int
	MaxLevels int
	// BackgroundThreads compacts the SATA LSM (paper default 8).
	BackgroundThreads int
	// Compress picks the SSTable block codec per level (zero: raw).
	Compress compress.Policy
	// DisableBackground turns workers off.
	DisableBackground bool
	// BackgroundInterval is the workers' poll period.
	BackgroundInterval time.Duration
}

func (o *Options) fill() {
	if o.CacheBytes <= 0 {
		o.CacheBytes = 64 << 20
	}
	if o.HighWatermark <= 0 || o.HighWatermark > 1 {
		o.HighWatermark = 0.9
	}
	if o.LowWatermark <= 0 || o.LowWatermark >= o.HighWatermark {
		o.LowWatermark = o.HighWatermark - 0.15
	}
	if o.BatchObjects <= 0 {
		o.BatchObjects = 4096
	}
	if o.BackgroundThreads <= 0 {
		o.BackgroundThreads = 8
	}
	if o.BackgroundInterval <= 0 {
		o.BackgroundInterval = 2 * time.Millisecond
	}
}

// slot header: seq(8) flags(1) klen(2) vlen(4) crc(4). The CRC covers the
// first 15 header bytes plus the key/value payload, so recovery can tell a
// fully persisted slot from a never-written or torn one — an all-zero slot
// fails the check (the CRC of zero bytes is non-zero).
const slotHeader = 19

// slotCRC checksums a slot's header prefix and payload.
func slotCRC(buf []byte, kl, vl int) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(buf[:15]), crc32.IEEETable, buf[slotHeader:slotHeader+kl+vl])
}

var classes = []int{64, 128, 256, 512, 1024, 2048, 4096}

func classFor(n int) int {
	for i, c := range classes {
		if n <= c {
			return i
		}
	}
	return -1
}

// loc is an index entry in the slab store.
type loc struct {
	class int8
	page  uint32
	slot  uint16
	seq   uint64
	size  int32
	ref   bool // clock second-chance bit
	tomb  bool
}

// slabFile is one size class: pages of fixed slots with a global free list.
type slabFile struct {
	f            *device.File
	slotSize     int
	slotsPerPage int
	nextPage     uint32
	nextSlot     uint16
	freeSlots    []slotRef // global — the scatter source
	freePages    []uint32
}

type slotRef struct {
	page uint32
	slot uint16
}

// DB is the PrismDB-style engine.
type DB struct {
	opts  Options
	dram  *cache.LRU
	lsm   *leveled.LSM
	seq   atomic.Uint64
	stopC chan struct{}
	wg    sync.WaitGroup

	mu     sync.RWMutex
	slabs  []*slabFile
	index  *btree.Map[loc]
	cursor []byte // round-robin key cursor for migration ranges

	migrations     stats.Counter
	migratedObjs   stats.Counter
	migrationReads stats.Counter // page reads during migration
	closed         atomic.Bool
}

var _ engine.Engine = (*DB)(nil)

// newDB is the part of construction Open and Recover share: the struct, the
// DRAM cache, the slab files (openSlab creates or reopens one) and the SATA
// tree, which openLSM builds from the engine's leveled options.
func newDB(opts Options, openSlab func(name string) (*device.File, error),
	openLSM func(leveled.Options) (*leveled.LSM, error)) (*DB, error) {
	if opts.NVMe == nil || opts.SATA == nil {
		return nil, fmt.Errorf("prismish: both devices required")
	}
	opts.fill()
	db := &DB{
		opts:  opts,
		dram:  cache.NewLRU(opts.CacheBytes, nil),
		index: btree.New[loc](),
		stopC: make(chan struct{}),
	}
	ps := int64(opts.NVMe.PageSize())
	for _, c := range classes {
		f, err := openSlab(fmt.Sprintf("prismish-slab%d", c))
		if err != nil {
			return nil, err
		}
		db.slabs = append(db.slabs, &slabFile{
			f: f, slotSize: c, slotsPerPage: max(int(ps)/c, 1),
			nextPage: uint32((f.Size() + ps - 1) / ps),
		})
	}
	l, err := openLSM(leveled.Options{
		Name:      "prismish",
		Place:     func(int, int64) *device.Device { return opts.SATA },
		FileSize:  opts.FileSize,
		L1Target:  opts.L1Target,
		Ratio:     opts.Ratio,
		MaxLevels: opts.MaxLevels,
		PageCache: db.dram,
		Compress:  opts.Compress,
	})
	if err != nil {
		return nil, err
	}
	db.lsm = l
	return db, nil
}

// startWorkers launches the migration thread and the compaction pool.
func (db *DB) startWorkers() {
	if db.opts.DisableBackground {
		return
	}
	db.wg.Add(1 + db.opts.BackgroundThreads)
	go db.migrationWorker()
	for i := 0; i < db.opts.BackgroundThreads; i++ {
		go func() {
			defer db.wg.Done()
			db.lsm.RunCompactor(db.stopC, nil, db.opts.BackgroundInterval)
		}()
	}
}

// Open builds the engine.
func Open(opts Options) (*DB, error) {
	db, err := newDB(opts, opts.NVMe.Create, leveled.New)
	if err != nil {
		return nil, err
	}
	db.startWorkers()
	return db, nil
}

// Close stops the workers.
func (db *DB) Close() error {
	if db.closed.Swap(true) {
		return nil
	}
	close(db.stopC)
	db.wg.Wait()
	return nil
}

func encodeSlot(dst []byte, seq uint64, tomb bool, k, v []byte) {
	binary.LittleEndian.PutUint64(dst, seq)
	if tomb {
		dst[8] = 1
	} else {
		dst[8] = 0
	}
	binary.LittleEndian.PutUint16(dst[9:], uint16(len(k)))
	binary.LittleEndian.PutUint32(dst[11:], uint32(len(v)))
	copy(dst[slotHeader:], k)
	copy(dst[slotHeader+len(k):], v)
	binary.LittleEndian.PutUint32(dst[15:], slotCRC(dst, len(k), len(v)))
}

func decodeSlot(buf []byte) (seq uint64, tomb bool, k, v []byte, err error) {
	if len(buf) < slotHeader {
		return 0, false, nil, nil, fmt.Errorf("prismish: short slot")
	}
	seq = binary.LittleEndian.Uint64(buf)
	tomb = buf[8] == 1
	kl := int(binary.LittleEndian.Uint16(buf[9:]))
	vl := int(binary.LittleEndian.Uint32(buf[11:]))
	if slotHeader+kl+vl > len(buf) {
		return 0, false, nil, nil, fmt.Errorf("prismish: slot overflow")
	}
	if binary.LittleEndian.Uint32(buf[15:]) != slotCRC(buf, kl, vl) {
		return 0, false, nil, nil, fmt.Errorf("prismish: slot checksum mismatch")
	}
	return seq, tomb, buf[slotHeader : slotHeader+kl], buf[slotHeader+kl : slotHeader+kl+vl], nil
}

// allocSlot returns a free slot in class c — global free list first (the
// scatter), then the current open page, then a fresh page.
func (db *DB) allocSlot(c int) (slotRef, error) {
	sf := db.slabs[c]
	if n := len(sf.freeSlots); n > 0 {
		r := sf.freeSlots[n-1]
		sf.freeSlots = sf.freeSlots[:n-1]
		return r, nil
	}
	if len(sf.freePages) > 0 {
		p := sf.freePages[len(sf.freePages)-1]
		if err := sf.f.Reallocate(int64(p)); err != nil {
			return slotRef{}, err
		}
		sf.freePages = sf.freePages[:len(sf.freePages)-1]
		for s := 1; s < sf.slotsPerPage; s++ {
			sf.freeSlots = append(sf.freeSlots, slotRef{page: p, slot: uint16(s)})
		}
		return slotRef{page: p, slot: 0}, nil
	}
	if sf.nextSlot == 0 {
		// Open a fresh page at the tail: a ledger operation, no traffic.
		end := (int64(sf.nextPage) + 1) * int64(db.opts.NVMe.PageSize())
		if err := sf.f.EnsureAllocated(end); err != nil {
			return slotRef{}, err
		}
	}
	r := slotRef{page: sf.nextPage, slot: sf.nextSlot}
	sf.nextSlot++
	if int(sf.nextSlot) >= sf.slotsPerPage {
		sf.nextSlot = 0
		sf.nextPage++
	}
	return r, nil
}

func (db *DB) writeSlot(c int, r slotRef, seq uint64, tomb bool, k, v []byte, op device.Op) error {
	sf := db.slabs[c]
	buf := make([]byte, sf.slotSize)
	encodeSlot(buf, seq, tomb, k, v)
	off := int64(r.page)*int64(db.opts.NVMe.PageSize()) + int64(r.slot)*int64(sf.slotSize)
	db.dram.Delete(db.pageKey(c, r.page))
	return sf.f.WriteAt(buf, off, op)
}

// pageKey builds the DRAM-cache key without fmt (hot on every slab read).
// The 'P' prefix plus binary layout keeps it disjoint from other cache keys.
func (db *DB) pageKey(c int, page uint32) string {
	var b [6]byte
	b[0] = 'P'
	b[1] = byte(c)
	binary.LittleEndian.PutUint32(b[2:], page)
	return string(b[:])
}

// readSlotPage fetches a slab page through the DRAM cache.
func (db *DB) readSlotPage(c int, page uint32, op device.Op) ([]byte, error) {
	if p, ok := db.dram.Get(db.pageKey(c, page)); ok {
		return p, nil
	}
	return db.devicePage(c, page, op)
}

// devicePage reads a slab page from the device and caches it.
func (db *DB) devicePage(c int, page uint32, op device.Op) ([]byte, error) {
	buf := make([]byte, db.opts.NVMe.PageSize())
	if _, err := db.slabs[c].f.ReadAt(buf, int64(page)*int64(len(buf)), op); err != nil {
		return nil, err
	}
	db.dram.Put(db.pageKey(c, page), buf)
	return buf, nil
}
