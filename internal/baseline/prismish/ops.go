package prismish

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"time"

	"hyperdb/internal/baseline/leveled"
	"hyperdb/internal/device"
	"hyperdb/internal/engine"
	"hyperdb/internal/keys"
)

// usedFraction is the slab store's logical occupancy: allocated device
// bytes minus reusable free slots/pages, over capacity. Slab pages persist
// across migrations (PrismDB keeps the NVMe >95% utilised, Fig. 2b), so the
// raw device usage would never fall; free-slot accounting is what tells
// migration when it has made room.
func (db *DB) usedFraction() float64 {
	capacity := db.opts.NVMe.Capacity()
	if capacity <= 0 {
		return 0
	}
	ps := int64(db.opts.NVMe.PageSize())
	db.mu.RLock()
	var free int64
	for _, sf := range db.slabs {
		free += int64(len(sf.freeSlots)) * int64(sf.slotSize)
		free += int64(len(sf.freePages)) * ps
	}
	db.mu.RUnlock()
	used := db.opts.NVMe.Used() - free
	if used < 0 {
		used = 0
	}
	return float64(used) / float64(capacity)
}

// Put writes key=value into the slab store (durable in-place page write).
// When the slab is full and background migration has not yet freed slots,
// the writer migrates synchronously and retries — the foreground-blocking
// behaviour that shows up as PrismDB's write slowdowns in §4.2.
func (db *DB) Put(key, value []byte) error {
	return db.putWithEviction(key, value, false)
}

// Delete writes a tombstone that migrates down to delete the SATA copy.
func (db *DB) Delete(key []byte) error {
	return db.putWithEviction(key, nil, true)
}

func (db *DB) putWithEviction(key, value []byte, tomb bool) error {
	for attempt := 0; ; attempt++ {
		err := db.put(key, value, tomb, device.Fg)
		if err == nil || !errors.Is(err, device.ErrNoSpace) || attempt >= 64 {
			return err
		}
		if _, merr := db.MigrateOnce(); merr != nil {
			return merr
		}
	}
}

func (db *DB) put(key, value []byte, tomb bool, op device.Op) error {
	seq := db.seq.Add(1)
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.putLocked(key, value, tomb, seq, op)
}

// putLocked is put's body with the sequence supplied by the caller (batches
// allocate one block up front). Caller holds db.mu.
func (db *DB) putLocked(key, value []byte, tomb bool, seq uint64, op device.Op) error {
	c := classFor(slotHeader + len(key) + len(value))
	if c < 0 {
		return ErrTooLarge
	}
	if old, ok := db.index.Get(key); ok {
		if int(old.class) == c {
			// In-place update.
			if err := db.writeSlot(c, slotRef{page: old.page, slot: old.slot}, seq, tomb, key, value, op); err != nil {
				return err
			}
			db.index.Set(bytes.Clone(key), loc{
				class: old.class, page: old.page, slot: old.slot,
				seq: seq, size: int32(slotHeader + len(key) + len(value)),
				ref: true, tomb: tomb,
			})
			return nil
		}
		// Resized: free the old slot, take a new one.
		db.slabs[old.class].freeSlots = append(db.slabs[old.class].freeSlots,
			slotRef{page: old.page, slot: old.slot})
	}
	r, err := db.allocSlot(c)
	if err != nil {
		return err
	}
	if err := db.writeSlot(c, r, seq, tomb, key, value, op); err != nil {
		return err
	}
	db.index.Set(bytes.Clone(key), loc{
		class: int8(c), page: r.page, slot: r.slot,
		seq: seq, size: int32(slotHeader + len(key) + len(value)),
		ref: true, tomb: tomb,
	})
	return nil
}

// errMoved reports that a slot no longer holds the version an index entry
// named: a write or a migration reached it after the lookup.
var errMoved = errors.New("prismish: object moved")

// slotValue decodes l's slot out of its page and returns a copy of the value
// if the slot holds key at l's sequence, live — the version the index named.
func (db *DB) slotValue(page []byte, l loc, key []byte) ([]byte, bool) {
	sf := db.slabs[l.class]
	off := int(l.slot) * sf.slotSize
	if off+sf.slotSize > len(page) {
		return nil, false
	}
	seq, tomb, k, v, err := decodeSlot(page[off : off+sf.slotSize])
	if err != nil || tomb || seq != l.seq || !bytes.Equal(k, key) {
		return nil, false
	}
	return bytes.Clone(v), true
}

// readSlot returns the value of the version l names, or errMoved. A cached
// page that disagrees may be a copy a writer has since made stale, so the
// device is read (and its page cached); a device page that disagrees means l
// is stale.
func (db *DB) readSlot(l loc, key []byte) ([]byte, error) {
	if page, ok := db.dram.Get(db.pageKey(int(l.class), l.page)); ok {
		if v, ok := db.slotValue(page, l, key); ok {
			return v, nil
		}
	}
	page, err := db.devicePage(int(l.class), l.page, device.Fg)
	if err != nil {
		return nil, err
	}
	if v, ok := db.slotValue(page, l, key); ok {
		return v, nil
	}
	return nil, errMoved
}

// optimisticReads is how many times Get reads a slot without holding the
// index lock before it holds the lock across the read.
const optimisticReads = 3

// Get returns the value for key, or engine.ErrNotFound. A slot that does not
// hold the version the index named says nothing about key — migration may
// have freed it for a Put after moving key to the tree — so key is resolved
// again: index, then tree. After optimisticReads tries the read happens under
// the index lock, where no writer can reach the slot. SATA hits are admitted
// back into the slab (the caching architecture's promotion path).
func (db *DB) Get(key []byte) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		pinned := attempt == optimisticReads
		db.mu.RLock()
		l, ok := db.index.Get(key)
		if !pinned || !ok {
			db.mu.RUnlock()
		}
		if !ok {
			break
		}
		if l.tomb {
			if pinned {
				db.mu.RUnlock()
			}
			return nil, engine.ErrNotFound
		}
		v, err := db.readSlot(l, key)
		if pinned {
			db.mu.RUnlock()
		}
		switch {
		case err == nil:
			db.mu.Lock()
			if cur, ok := db.index.Get(key); ok && cur.seq == l.seq {
				cur.ref = true
				db.index.Set(key, cur)
			}
			db.mu.Unlock()
			return v, nil
		case !errors.Is(err, errMoved):
			return nil, err
		case pinned:
			return nil, fmt.Errorf("prismish: the slot the index names for %q at seq %d does not hold it", key, l.seq)
		}
	}

	v, kind, found, err := db.lsm.Get(key, keys.MaxSeq, device.Fg)
	if err != nil {
		return nil, err
	}
	if !found || kind == keys.KindDelete {
		return nil, engine.ErrNotFound
	}
	// Admission: copy the read object into the slab when there is room.
	if db.usedFraction() < db.opts.HighWatermark {
		db.put(key, v, false, device.Bg)
	}
	return v, nil
}

// WriteBatch applies the ops under one lock acquisition, drawing a single
// sequence block so slice order is sequence order (last-write-wins for
// duplicates). On ErrNoSpace the lock is dropped, one migration batch runs
// synchronously, and the batch resumes at the failed op.
func (db *DB) WriteBatch(ops []engine.BatchOp) error {
	for i := range ops {
		if ops[i].Merge {
			return fmt.Errorf("prismish: merge op at batch index %d: no merge operator", i)
		}
	}
	if len(ops) == 0 {
		return nil
	}
	n := uint64(len(ops))
	base := db.seq.Add(n) - n + 1
	i, attempts := 0, 0
	db.mu.Lock()
	for i < len(ops) {
		o := &ops[i]
		err := db.putLocked(o.Key, o.Value, o.Delete, base+uint64(i), device.Fg)
		if err == nil {
			i++
			continue
		}
		if !errors.Is(err, device.ErrNoSpace) || attempts >= 64 {
			db.mu.Unlock()
			return err
		}
		attempts++
		db.mu.Unlock()
		if _, merr := db.MigrateOnce(); merr != nil {
			return merr
		}
		db.mu.Lock()
	}
	db.mu.Unlock()
	return nil
}

// MultiGet returns values positionally aligned with keys (nil = missing or
// deleted): one index-lock acquisition for the batch, a page memo shared
// between keys on the same slab page, one clock-bit refresh pass, and LSM
// fallback (with slab admission) for index misses.
func (db *DB) MultiGet(keyList [][]byte) ([][]byte, error) {
	out := make([][]byte, len(keyList))
	type pend struct {
		idx int
		l   loc
	}
	var slab []pend
	var lsmMiss []int
	db.mu.RLock()
	for i, k := range keyList {
		if l, ok := db.index.Get(k); ok {
			if !l.tomb {
				slab = append(slab, pend{idx: i, l: l})
			}
		} else {
			lsmMiss = append(lsmMiss, i)
		}
	}
	db.mu.RUnlock()

	type pid struct {
		c    int8
		page uint32
	}
	pages := make(map[pid][]byte, len(slab))
	var refresh []pend
	for _, p := range slab {
		key := keyList[p.idx]
		pg, ok := pages[pid{p.l.class, p.l.page}]
		if !ok {
			var err error
			pg, err = db.readSlotPage(int(p.l.class), p.l.page, device.Fg)
			if err != nil {
				return nil, err
			}
			pages[pid{p.l.class, p.l.page}] = pg
		}
		if v, ok := db.slotValue(pg, p.l, key); ok {
			out[p.idx] = v
			refresh = append(refresh, p)
			continue
		}
		// The slot moved on since the index pass: resolve the key alone.
		v, err := db.Get(key)
		if err != nil && !errors.Is(err, engine.ErrNotFound) {
			return nil, err
		}
		out[p.idx] = v
	}
	if len(refresh) > 0 {
		db.mu.Lock()
		for _, p := range refresh {
			if cur, ok := db.index.Get(keyList[p.idx]); ok && cur.seq == p.l.seq {
				cur.ref = true
				db.index.Set(keyList[p.idx], cur)
			}
		}
		db.mu.Unlock()
	}

	for _, i := range lsmMiss {
		v, kind, found, err := db.lsm.Get(keyList[i], keys.MaxSeq, device.Fg)
		if err != nil {
			return nil, err
		}
		if found && kind != keys.KindDelete {
			out[i] = v
			if db.usedFraction() < db.opts.HighWatermark {
				db.put(keyList[i], v, false, device.Bg)
			}
		}
	}
	return out, nil
}

// Scan returns up to limit live keys >= start, merging slab and LSM.
func (db *DB) Scan(start []byte, limit int) ([]engine.KV, error) {
	type sref struct {
		key []byte
		l   loc
	}
	var srefs []sref
	db.mu.RLock()
	db.index.Ascend(start, nil, func(k []byte, l loc) bool {
		srefs = append(srefs, sref{key: bytes.Clone(k), l: l})
		return len(srefs) < limit*4
	})
	db.mu.RUnlock()

	it := db.lsm.NewScanIter(start, device.Fg)
	defer it.Close()
	out := make([]engine.KV, 0, limit)
	si := 0
	// appendSlab reads srefs[si]'s slot. A slot that moved on since the index
	// pass is resolved by a point lookup; a device error is the scan's error,
	// as it is Get's.
	appendSlab := func() error {
		r := srefs[si]
		if r.l.tomb {
			return nil
		}
		v, err := db.readSlot(r.l, r.key)
		if errors.Is(err, errMoved) {
			v, err = db.Get(r.key)
		}
		switch {
		case err == nil:
			out = append(out, engine.KV{Key: r.key, Value: v})
		case !errors.Is(err, engine.ErrNotFound):
			return err
		}
		return nil
	}
	for len(out) < limit {
		var sk []byte
		if si < len(srefs) {
			sk = srefs[si].key
		}
		switch {
		case sk == nil && !it.Valid():
			return out, it.Err()
		case sk != nil && (!it.Valid() || bytes.Compare(sk, it.Key()) <= 0):
			if err := appendSlab(); err != nil {
				return nil, err
			}
			if it.Valid() && bytes.Equal(sk, it.Key()) {
				it.Next() // the slab copy shadows the tree's
			}
			si++
		default:
			out = append(out, engine.KV{Key: bytes.Clone(it.Key()), Value: bytes.Clone(it.Value())})
			it.Next()
		}
	}
	return out, it.Err()
}

// Stats reports migration counters for the harness.
type Stats struct {
	Migrations         uint64
	MigratedObjects    uint64
	MigrationPageReads uint64
	SlabObjects        int
}

// Stats snapshots the engine counters.
func (db *DB) Stats() Stats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return Stats{
		Migrations:         db.migrations.Load(),
		MigratedObjects:    db.migratedObjs.Load(),
		MigrationPageReads: db.migrationReads.Load(),
		SlabObjects:        db.index.Len(),
	}
}

// MigrateOnce demotes one batch of cold objects (clock bit clear) starting
// at the round-robin key cursor into the SATA LSM. Objects with the clock
// bit set get a second chance (bit cleared, kept). Returns the number of
// objects demoted.
func (db *DB) MigrateOnce() (int, error) {
	type victim struct {
		key []byte
		l   loc
	}
	var victims []victim

	db.mu.Lock()
	start := db.cursor
	// Ascend must not mutate the tree mid-walk; collect the second-chance
	// clears and apply them afterwards.
	var secondChance [][]byte
	collect := func(lo, hi []byte) {
		db.index.Ascend(lo, hi, func(k []byte, l loc) bool {
			if l.ref {
				secondChance = append(secondChance, bytes.Clone(k))
				return true
			}
			victims = append(victims, victim{key: bytes.Clone(k), l: l})
			return len(victims) < db.opts.BatchObjects
		})
	}
	collect(start, nil)
	if len(victims) < db.opts.BatchObjects && start != nil {
		collect(nil, start) // wrap around
	}
	for _, k := range secondChance {
		if l, ok := db.index.Get(k); ok && l.ref {
			l.ref = false
			db.index.Set(k, l)
		}
	}
	if len(victims) > 0 {
		db.cursor = keys.Successor(victims[len(victims)-1].key)
	} else {
		db.cursor = nil
	}
	db.mu.Unlock()
	if len(victims) == 0 {
		return 0, nil
	}

	// Read the victims' pages — scattered, so roughly one page per object.
	type pageID struct {
		c    int8
		page uint32
	}
	pages := make(map[pageID][]byte)
	var entries []leveled.Entry
	var pageReads uint64
	for _, vt := range victims {
		pid := pageID{vt.l.class, vt.l.page}
		page, ok := pages[pid]
		if !ok {
			sf := db.slabs[vt.l.class]
			buf := make([]byte, db.opts.NVMe.PageSize())
			if _, err := sf.f.ReadAt(buf, int64(vt.l.page)*int64(db.opts.NVMe.PageSize()), device.Bg); err != nil {
				return 0, err
			}
			pages[pid] = buf
			page = buf
			pageReads++
		}
		sf := db.slabs[vt.l.class]
		off := int(vt.l.slot) * sf.slotSize
		seq, tomb, k, v, err := decodeSlot(page[off : off+sf.slotSize])
		if err != nil || !bytes.Equal(k, vt.key) {
			continue
		}
		kind := keys.KindSet
		if tomb {
			kind = keys.KindDelete
		}
		entries = append(entries, leveled.Entry{
			Key:   keys.InternalKey{User: bytes.Clone(k), Seq: seq, Kind: kind},
			Value: bytes.Clone(v),
		})
	}
	// Victims were collected in key order (with at most one wrap); sort the
	// wrapped tail into place for the LSM ingest.
	slices.SortStableFunc(entries, func(a, b leveled.Entry) int { return bytes.Compare(a.Key.User, b.Key.User) })
	// Backpressure: when the SATA LSM has L0 debt, the migration thread
	// helps compact before ingesting more — otherwise a sustained uniform
	// write load grows L0 without bound (and stalls client writes anyway,
	// which is the PrismDB slowdown the paper observes).
	for db.lsm.Stalled() {
		did, err := db.lsm.CompactOnce(device.Bg)
		if err != nil {
			return 0, err
		}
		if !did {
			break
		}
	}
	if err := db.lsm.Ingest(entries, device.Bg); err != nil {
		return 0, err
	}

	// Remove from the index and free slots (skip keys updated concurrently).
	db.mu.Lock()
	demoted := 0
	for _, vt := range victims {
		if cur, ok := db.index.Get(vt.key); ok && cur.seq == vt.l.seq {
			db.index.Delete(vt.key)
			db.slabs[vt.l.class].freeSlots = append(db.slabs[vt.l.class].freeSlots,
				slotRef{page: vt.l.page, slot: vt.l.slot})
			demoted++
		}
	}
	db.mu.Unlock()

	db.migrations.Inc()
	db.migratedObjs.Add(uint64(demoted))
	db.migrationReads.Add(pageReads)
	return demoted, nil
}

func (db *DB) migrationWorker() {
	defer db.wg.Done()
	t := time.NewTicker(db.opts.BackgroundInterval)
	defer t.Stop()
	for {
		select {
		case <-db.stopC:
			return
		case <-t.C:
		}
		for db.usedFraction() >= db.opts.HighWatermark {
			n, err := db.MigrateOnce()
			if err != nil {
				db.lsm.NoteBackgroundError(err)
			}
			if err != nil || n == 0 {
				break
			}
			if db.usedFraction() < db.opts.LowWatermark {
				break
			}
			select {
			case <-db.stopC:
				return
			default:
			}
		}
	}
}

// BackgroundStep demotes one batch of cold objects and runs at most one
// compaction.
func (db *DB) BackgroundStep() error {
	if _, err := db.MigrateOnce(); err != nil {
		return err
	}
	_, err := db.lsm.CompactOnce(device.Bg)
	return err
}

// DrainBackground migrates down to the low watermark and compacts until
// quiescent, then reports what the background workers failed at since the
// last drain.
func (db *DB) DrainBackground() error {
	for db.usedFraction() >= db.opts.LowWatermark {
		n, err := db.MigrateOnce()
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
	}
	return db.lsm.Drain()
}

// LSM exposes the SATA tree for harness inspection.
func (db *DB) LSM() *leveled.LSM { return db.lsm }
