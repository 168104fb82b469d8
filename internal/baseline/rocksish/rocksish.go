// Package rocksish is the RocksDB-style baseline of §4.1: a classic
// single-LSM key-value store with a skiplist memtable, group-committed WAL,
// L0 flush, and leveled compaction. Two multi-tier deployments are
// supported, matching the paper's baselines:
//
//   - Embedding ("RocksDB"): db_path-style placement puts the top levels of
//     the LSM on the NVMe device and deeper levels on SATA. A level cannot
//     span tiers, which is why Figure 2b shows 40–80% NVMe capacity
//     utilisation.
//   - Secondary cache ("RocksDB-SC"): the whole LSM lives on SATA and the
//     NVMe device serves as a flash block cache under the DRAM cache.
package rocksish

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hyperdb/internal/cache"
	"hyperdb/internal/compress"
	"hyperdb/internal/device"
	"hyperdb/internal/engine"
	"hyperdb/internal/keys"
	"hyperdb/internal/lsm"
	"hyperdb/internal/skiplist"
	"hyperdb/internal/wal"
)

// Options configures the engine.
type Options struct {
	// NVMe and SATA are the two storage tiers (required).
	NVMe *device.Device
	SATA *device.Device
	// SecondaryCache selects the RocksDB-SC deployment.
	SecondaryCache bool
	// MemtableBytes rotates the memtable at this size.
	MemtableBytes int64
	// CacheBytes is the DRAM block cache budget.
	CacheBytes int64
	// FileSize is the SSTable target (paper: 64 MiB, scaled by harness).
	FileSize int64
	// L1Target, Ratio, MaxLevels parameterise the leveled LSM.
	L1Target  int64
	Ratio     int
	MaxLevels int
	// BackgroundThreads is the compaction thread count (paper default 8).
	BackgroundThreads int
	// Compress picks the SSTable block codec per level (zero: raw).
	Compress compress.Policy
	// DisableBackground turns workers off (tests drive BackgroundStep).
	DisableBackground bool
}

func (o *Options) fill() {
	if o.MemtableBytes <= 0 {
		o.MemtableBytes = 1 << 20
	}
	if o.CacheBytes <= 0 {
		o.CacheBytes = 64 << 20
	}
	if o.FileSize <= 0 {
		o.FileSize = 2 << 20
	}
	if o.BackgroundThreads <= 0 {
		o.BackgroundThreads = 8
	}
}

// DB is the RocksDB-style engine.
type DB struct {
	opts Options
	lsm  *lsm.Tree
	bc   cache.BlockCache

	mu      sync.Mutex
	flushMu sync.Mutex
	walMu   sync.RWMutex // appenders hold R; rotation holds W
	mem     *skiplist.SkipList
	imm     *skiplist.SkipList
	memWAL  *wal.WAL
	immWAL  *wal.WAL
	walGen  int
	flushed chan struct{} // closed+replaced when a flush completes

	seq      atomic.Uint64
	stop     chan struct{}
	wg       sync.WaitGroup
	flushC   chan struct{}
	compactC chan struct{}
	errs     engine.Errors // what the background threads gave up on
	closed   atomic.Bool
}

var _ engine.Engine = (*DB)(nil)

// Open builds the engine over whatever the devices hold: nothing, or what a
// previous instance left after a crash or a clean Close. The leveled LSM
// reopens its self-describing tables, and every surviving WAL generation is
// replayed into L0 (replayWALs). On empty devices that is no table and a
// fresh rocksish-wal-0.
func Open(opts Options) (*DB, error) {
	if opts.NVMe == nil || opts.SATA == nil {
		return nil, fmt.Errorf("rocksish: both devices required")
	}
	opts.fill()
	db := &DB{
		opts:     opts,
		mem:      skiplist.New(),
		stop:     make(chan struct{}),
		flushC:   make(chan struct{}, 1),
		compactC: make(chan struct{}, 1),
		flushed:  make(chan struct{}),
	}

	if opts.SecondaryCache {
		// Flash cache over most of the NVMe device. Its contents are not
		// durable state: a cache file left by a crashed instance is dropped
		// and the cache starts cold.
		opts.NVMe.Remove("rocksish-sc")
		budget := opts.NVMe.Capacity() * 9 / 10
		fl, err := cache.NewFlash(opts.NVMe, "rocksish-sc", budget)
		if err != nil {
			return nil, err
		}
		db.bc = cache.NewTiered(opts.CacheBytes, fl)
	} else {
		db.bc = cache.NewLRU(opts.CacheBytes, nil)
	}

	l, lsmSeq, err := lsm.Open(lsm.Options{
		Prefix:    "rocksish",
		Dev:       opts.SATA,
		Place:     db.place,
		FileSize:  opts.FileSize,
		L1Target:  opts.L1Target,
		Ratio:     opts.Ratio,
		MaxLevels: opts.MaxLevels,
		PageCache: db.bc,
		Compress:  opts.Compress,
	}, lsm.Leveled, opts.NVMe)
	if err != nil {
		return nil, err
	}
	db.lsm = l
	walSeq, err := db.replayWALs()
	if err != nil {
		return nil, err
	}
	db.seq.Store(max(lsmSeq, walSeq))

	if !opts.DisableBackground {
		// One flush thread and BackgroundThreads compaction threads; a
		// rotation wakes the first, a flush the others.
		db.wg.Add(1 + opts.BackgroundThreads)
		go func() {
			defer db.wg.Done()
			engine.Work(db.stop, db.flushC, &db.errs, func() (bool, error) { return false, db.FlushOnce() })
		}()
		for i := 0; i < opts.BackgroundThreads; i++ {
			go func() {
				defer db.wg.Done()
				engine.Work(db.stop, db.compactC, &db.errs, func() (bool, error) { return db.lsm.Compact(device.Bg) })
			}()
		}
	}
	return db, nil
}

// walDevice returns where the WAL lives: the performance tier when
// embedding (RocksDB puts WAL on the fastest path), SATA for SC mode (the
// NVMe is a cache, not durable storage, in that deployment).
func (o *Options) walDevice() *device.Device {
	if o.SecondaryCache {
		return o.SATA
	}
	return o.NVMe
}

// place implements db_path placement: a level goes to NVMe while the
// cumulative LSM size through that level fits the NVMe budget; otherwise
// SATA. SC mode keeps every level on SATA.
func (db *DB) place(level int, size int64) *device.Device {
	if db.opts.SecondaryCache {
		return db.opts.SATA
	}
	// Reserve headroom for the WALs and in-flight builds: placement races
	// between compaction threads overshoot whatever remains.
	budget := db.opts.NVMe.Capacity()*85/100 - 2*db.opts.MemtableBytes
	cum := db.opts.MemtableBytes * 2 // L0 allowance
	target := db.opts.L1Target
	if target <= 0 {
		target = 4 * db.opts.FileSize
	}
	ratio := db.opts.Ratio
	if ratio <= 1 {
		ratio = 10
	}
	for l := 1; l <= level; l++ {
		cum += target
		target *= int64(ratio)
	}
	if cum <= budget && db.opts.NVMe.Used()+size <= budget {
		return db.opts.NVMe
	}
	return db.opts.SATA
}

// Close stops the workers, flushing nothing further.
func (db *DB) Close() error {
	if db.closed.Swap(true) {
		return nil
	}
	close(db.stop)
	db.wg.Wait()
	return nil
}

// record encodes a WAL entry: kind(1) seq(8) klen(4) vlen(4) key value.
func encodeRecord(kind keys.Kind, seq uint64, k, v []byte) []byte {
	buf := make([]byte, 17+len(k)+len(v))
	buf[0] = byte(kind)
	binary.LittleEndian.PutUint64(buf[1:], seq)
	binary.LittleEndian.PutUint32(buf[9:], uint32(len(k)))
	binary.LittleEndian.PutUint32(buf[13:], uint32(len(v)))
	copy(buf[17:], k)
	copy(buf[17+len(k):], v)
	return buf
}

// Put writes key=value through the WAL and memtable: WriteBatch of one op.
func (db *DB) Put(key, value []byte) error {
	return db.WriteBatch([]engine.BatchOp{{Key: key, Value: value}})
}

// Delete writes a tombstone: WriteBatch of one op.
func (db *DB) Delete(key []byte) error {
	return db.WriteBatch([]engine.BatchOp{{Key: key, Delete: true}})
}

// stallWait blocks while the LSM signals an L0-debt write stall,
// RocksDB-style.
func (db *DB) stallWait() {
	for ch := db.lsm.Stalled(); ch != nil; ch = db.lsm.Stalled() {
		select {
		case <-ch:
		case <-time.After(engine.Tick):
		}
		if db.opts.DisableBackground {
			// Nothing will unstall us; let the test driver compact.
			break
		}
	}
}

// maybeRotateLocked rotates the memtable when it crosses its budget. Called
// with db.mu held; always returns with it released.
func (db *DB) maybeRotateLocked() error {
	if db.mem.ApproxBytes() >= db.opts.MemtableBytes {
		for db.imm != nil {
			// Previous flush still running: wait (write stall).
			done := db.flushed
			db.mu.Unlock()
			if db.opts.DisableBackground {
				if err := db.FlushOnce(); err != nil {
					return err
				}
			} else {
				select {
				case <-done:
				case <-time.After(engine.Tick):
				}
			}
			db.mu.Lock()
		}
		if err := db.rotateLocked(); err != nil {
			db.mu.Unlock()
			return err
		}
		select {
		case db.flushC <- struct{}{}:
		default:
		}
	}
	db.mu.Unlock()
	return nil
}

// rotateLocked makes the memtable immutable and starts a fresh one on the
// next WAL generation. Caller holds db.mu and has seen db.imm nil.
func (db *DB) rotateLocked() error {
	nw, err := wal.Open(db.opts.walDevice(), fmt.Sprintf("rocksish-wal-%d", db.walGen+1))
	if err != nil {
		return err
	}
	db.walGen++
	db.imm = db.mem
	db.mem = skiplist.New()
	db.walMu.Lock()
	db.immWAL = db.memWAL
	db.memWAL = nw
	db.walMu.Unlock()
	return nil
}

// WriteBatch is the one write path, group-committed: one stall check, one
// sequence block, one WAL-lock acquisition for all appends, and one memtable
// lock for all inserts with a single rotation check at the end. Slice order
// is sequence order, so duplicate keys resolve last-write-wins.
func (db *DB) WriteBatch(ops []engine.BatchOp) error {
	if db.closed.Load() {
		return fmt.Errorf("rocksish: closed")
	}
	if len(ops) == 0 {
		return nil
	}
	for i := range ops {
		if ops[i].Merge {
			return fmt.Errorf("rocksish: merge op at batch index %d: no merge operator", i)
		}
	}
	db.stallWait()
	n := uint64(len(ops))
	base := db.seq.Add(n) - n + 1

	// Hold the rotation lock across the appends so a concurrent flush cannot
	// retire (and delete) this WAL mid-write.
	db.walMu.RLock()
	for i := range ops {
		if err := db.memWAL.Append(encodeRecord(kindOf(ops[i]), base+uint64(i), ops[i].Key, ops[i].Value)); err != nil {
			db.walMu.RUnlock()
			return err
		}
	}
	db.walMu.RUnlock()

	db.mu.Lock()
	for i := range ops {
		db.mem.Insert(keys.InternalKey{User: append([]byte(nil), ops[i].Key...), Seq: base + uint64(i), Kind: kindOf(ops[i])},
			append([]byte(nil), ops[i].Value...))
	}
	return db.maybeRotateLocked()
}

func kindOf(op engine.BatchOp) keys.Kind {
	if op.Delete {
		return keys.KindDelete
	}
	return keys.KindSet
}

// memtables snapshots the mutable and immutable memtables.
func (db *DB) memtables() (mem, imm *skiplist.SkipList) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.mem, db.imm
}

// get is the per-key read Get and MultiGet share: the memtables newest
// first, then the tree. found is false for a missing or deleted key.
func (db *DB) get(mem, imm *skiplist.SkipList, key []byte) (v []byte, found bool, err error) {
	v, kind, found := mem.Get(key, keys.MaxSeq)
	if !found && imm != nil {
		v, kind, found = imm.Get(key, keys.MaxSeq)
	}
	if !found {
		if v, kind, _, found, err = db.lsm.Get(key, keys.MaxSeq, device.Fg); err != nil {
			return nil, false, err
		}
	}
	if !found || kind == keys.KindDelete {
		return nil, false, nil
	}
	return v, true, nil
}

// Get returns the value for key, or engine.ErrNotFound.
func (db *DB) Get(key []byte) ([]byte, error) {
	if db.closed.Load() {
		return nil, fmt.Errorf("rocksish: closed")
	}
	mem, imm := db.memtables()
	v, found, err := db.get(mem, imm, key)
	if err == nil && !found {
		err = engine.ErrNotFound
	}
	return v, err
}

// MultiGet returns values positionally aligned with keys (nil = missing or
// deleted), snapshotting the memtables once for the whole batch.
func (db *DB) MultiGet(keyList [][]byte) ([][]byte, error) {
	if db.closed.Load() {
		return nil, fmt.Errorf("rocksish: closed")
	}
	mem, imm := db.memtables()
	out := make([][]byte, len(keyList))
	for i, key := range keyList {
		v, _, err := db.get(mem, imm, key)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// FlushOnce flushes the immutable memtable if present. Serialised by
// flushMu so the background worker and Drain cannot double-flush.
func (db *DB) FlushOnce() error {
	db.flushMu.Lock()
	defer db.flushMu.Unlock()
	db.mu.Lock()
	imm, immWAL := db.imm, db.immWAL
	db.mu.Unlock()
	if imm == nil {
		return nil
	}
	var entries []lsm.Entry
	it := imm.Iter()
	for it.First(); it.Valid(); it.Next() {
		entries = append(entries, lsm.Entry{Key: it.Key(), Value: it.Value()})
	}
	if err := db.lsm.Ingest(entries, device.Bg); err != nil {
		return err
	}
	select {
	case db.compactC <- struct{}{}:
	default:
	}
	db.mu.Lock()
	db.imm = nil
	db.immWAL = nil
	close(db.flushed)
	db.flushed = make(chan struct{})
	db.mu.Unlock()
	if immWAL != nil {
		db.opts.walDevice().Remove(immWAL.Name())
	}
	return nil
}

// Scan returns up to limit live keys >= start in order, merging memtables
// with the LSM.
func (db *DB) Scan(start []byte, limit int) ([]engine.KV, error) {
	mem, imm := db.memtables()

	lsmIt := db.lsm.NewScanIter(start, device.Fg)
	defer lsmIt.Close()
	memIt := mem.Iter()
	memIt.SeekGE(keys.MakeSearchKey(start, keys.MaxSeq))
	var immIt *skiplist.Iterator
	if imm != nil {
		immIt = imm.Iter()
		immIt.SeekGE(keys.MakeSearchKey(start, keys.MaxSeq))
	}

	out := make([]engine.KV, 0, limit)
	for len(out) < limit {
		// Find the smallest candidate user key across the three sources,
		// preferring the newest version (mem > imm > lsm).
		var bestKey []byte
		pick := -1 // 0=mem 1=imm 2=lsm
		if memIt.Valid() {
			bestKey, pick = memIt.Key().User, 0
		}
		if immIt != nil && immIt.Valid() {
			if pick < 0 || bytes.Compare(immIt.Key().User, bestKey) < 0 {
				bestKey, pick = immIt.Key().User, 1
			}
		}
		if lsmIt.Valid() {
			if pick < 0 || bytes.Compare(lsmIt.Key(), bestKey) < 0 {
				bestKey, pick = lsmIt.Key(), 2
			}
		}
		if pick < 0 {
			break
		}
		key := append([]byte(nil), bestKey...)
		var value []byte
		tomb := false
		switch pick {
		case 0:
			value = append([]byte(nil), memIt.Value()...)
			tomb = memIt.Key().Kind == keys.KindDelete
		case 1:
			value = append([]byte(nil), immIt.Value()...)
			tomb = immIt.Key().Kind == keys.KindDelete
		case 2:
			value = append([]byte(nil), lsmIt.Value()...)
		}
		// Advance every source past this user key.
		for memIt.Valid() && bytes.Equal(memIt.Key().User, key) {
			memIt.Next()
		}
		if immIt != nil {
			for immIt.Valid() && bytes.Equal(immIt.Key().User, key) {
				immIt.Next()
			}
		}
		if lsmIt.Valid() && bytes.Equal(lsmIt.Key(), key) {
			lsmIt.Next()
		}
		if !tomb {
			out = append(out, engine.KV{Key: key, Value: value})
		}
	}
	return out, lsmIt.Err()
}

// LSM exposes the underlying leveled tree for harness inspection.
func (db *DB) LSM() *lsm.Tree { return db.lsm }

// BackgroundStep flushes the immutable memtable, if there is one, and runs
// at most one compaction.
func (db *DB) BackgroundStep() error {
	if err := db.FlushOnce(); err != nil {
		return err
	}
	_, err := db.lsm.Compact(device.Bg)
	return err
}

// DrainBackground flushes the memtable and compacts until quiescent, then
// reports what the background threads failed at since the last drain.
func (db *DB) DrainBackground() error {
	db.mu.Lock()
	if db.imm == nil && db.mem.Len() > 0 {
		if err := db.rotateLocked(); err != nil {
			db.mu.Unlock()
			return err
		}
	}
	db.mu.Unlock()
	if err := db.FlushOnce(); err != nil {
		return err
	}
	if err := db.lsm.Drain(); err != nil {
		return err
	}
	return db.errs.Take()
}
