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
	"sync"
	"sync/atomic"

	"hyperdb/internal/btree"
	"hyperdb/internal/cache"
	"hyperdb/internal/compress"
	"hyperdb/internal/device"
	"hyperdb/internal/engine"
	"hyperdb/internal/lsm"
	"hyperdb/internal/slot"
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
}

// loc is an index entry in the slab store.
type loc struct {
	slot.Addr
	seq  uint64
	size int32
	ref  bool // clock second-chance bit
	tomb bool
}

// slab is one size class's placement: a global free-slot list and the next
// slot of the page open at the tail (slot 0: no page is open).
type slab struct {
	freeSlots []slot.Addr // global — the scatter source
	tail      slot.Addr
}

// DB is the PrismDB-style engine.
type DB struct {
	opts  Options
	dram  *cache.LRU
	lsm   *lsm.Tree
	seq   atomic.Uint64
	stopC chan struct{}
	wg    sync.WaitGroup
	errs  engine.Errors // what the background threads gave up on

	mu     sync.RWMutex
	files  slot.Files
	slabs  []slab // per class, parallel to files
	index  *btree.Map[loc]
	cursor []byte // round-robin key cursor for migration ranges

	migrations     stats.Counter
	migratedObjs   stats.Counter
	migrationReads stats.Counter // page reads during migration
	closed         atomic.Bool
}

var _ engine.Engine = (*DB)(nil)

// Open builds the engine over whatever the devices hold: nothing, or the
// slab files and SATA tables a previous instance left after a crash or a
// clean Close. The slab index and free lists lived only in memory, so they
// are rebuilt by a scan of every slot (recoverSlabs). On empty devices that
// is empty slabs and no table.
func Open(opts Options) (*DB, error) {
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
	files, err := slot.Open(opts.NVMe, "prismish-slab")
	if err != nil {
		return nil, err
	}
	db.files, db.slabs = files, make([]slab, len(files))
	l, lsmSeq, err := lsm.Open(lsm.Options{
		Prefix:    "prismish",
		Dev:       opts.SATA,
		FileSize:  opts.FileSize,
		L1Target:  opts.L1Target,
		Ratio:     opts.Ratio,
		MaxLevels: opts.MaxLevels,
		PageCache: db.dram,
		Compress:  opts.Compress,
	}, lsm.Leveled)
	if err != nil {
		return nil, err
	}
	db.lsm = l
	slabSeq, err := db.recoverSlabs()
	if err != nil {
		return nil, err
	}
	db.seq.Store(max(lsmSeq, slabSeq))

	if !opts.DisableBackground {
		// One migration thread, with hysteresis: it starts a demotion burst
		// when the slab reaches HighWatermark and runs it down to
		// LowWatermark. BackgroundThreads threads compact the SATA LSM.
		db.wg.Add(1 + opts.BackgroundThreads)
		go func() {
			defer db.wg.Done()
			bursting := false
			engine.Work(db.stopC, nil, &db.errs, func() (bool, error) {
				if !bursting && db.usedFraction() < opts.HighWatermark {
					return false, nil
				}
				more, err := db.demoteBatch()
				bursting = more
				return more, err
			})
		}()
		for i := 0; i < opts.BackgroundThreads; i++ {
			go func() {
				defer db.wg.Done()
				engine.Work(db.stopC, nil, &db.errs, func() (bool, error) { return db.lsm.Compact(device.Bg) })
			}()
		}
	}
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

// allocSlot returns a free slot in class c — global free list first (the
// scatter), then the current open page, then a fresh page.
func (db *DB) allocSlot(c int) (slot.Addr, error) {
	sf := &db.slabs[c]
	if n := len(sf.freeSlots); n > 0 {
		r := sf.freeSlots[n-1]
		sf.freeSlots = sf.freeSlots[:n-1]
		return r, nil
	}
	if sf.tail.Slot == 0 {
		// Open a fresh page at the tail: a ledger operation, no traffic.
		p, err := db.files[c].AllocPage()
		if err != nil {
			return slot.Addr{}, err
		}
		sf.tail = slot.Addr{Class: int8(c), Page: p}
	}
	r := sf.tail
	sf.tail.Slot++
	if int(sf.tail.Slot) >= db.files[c].SlotsPerPage() {
		sf.tail.Slot = 0
	}
	return r, nil
}

// free puts slot a on its class's free list. Caller holds db.mu.
func (db *DB) free(a slot.Addr) {
	db.slabs[a.Class].freeSlots = append(db.slabs[a.Class].freeSlots, a)
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
