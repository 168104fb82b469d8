package prismish

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"hyperdb/internal/device"
	"hyperdb/internal/engine"
	"hyperdb/internal/keys"
	"hyperdb/internal/lsm"
	"hyperdb/internal/slot"
)

// usedFraction is the slab store's logical occupancy: allocated device
// bytes minus reusable free slots, over capacity. Slab pages persist
// across migrations (PrismDB keeps the NVMe >95% utilised, Fig. 2b), so the
// raw device usage would never fall; free-slot accounting is what tells
// migration when it has made room.
func (db *DB) usedFraction() float64 {
	capacity := db.opts.NVMe.Capacity()
	if capacity <= 0 {
		return 0
	}
	db.mu.RLock()
	var free int64
	for c, sf := range db.slabs {
		free += int64(len(sf.freeSlots)) * int64(db.files[c].SlotSize())
	}
	db.mu.RUnlock()
	used := db.opts.NVMe.Used() - free
	if used < 0 {
		used = 0
	}
	return float64(used) / float64(capacity)
}

// Put writes key=value into the slab store (durable in-place page write):
// WriteBatch of one op.
func (db *DB) Put(key, value []byte) error {
	return db.WriteBatch([]engine.BatchOp{{Key: key, Value: value}})
}

// Delete writes a tombstone that migrates down to delete the SATA copy:
// WriteBatch of one op.
func (db *DB) Delete(key []byte) error {
	return db.WriteBatch([]engine.BatchOp{{Key: key, Delete: true}})
}

// putLocked writes one object at seq. Caller holds db.mu, as every slot
// write must: the slot file reuses one encode buffer. A resized object
// takes its new slot, and the index names it, before the old slot is freed:
// a put that finds no space leaves the object where it was.
func (db *DB) putLocked(key, value []byte, tomb bool, seq uint64, op device.Op) error {
	c := slot.ClassFor(slot.HeaderSize + len(key) + len(value))
	if c < 0 {
		return ErrTooLarge
	}
	old, ok := db.index.Get(key)
	r := old.Addr
	if !ok || int(old.Class) != c {
		var err error
		if r, err = db.allocSlot(c); err != nil {
			return err
		}
	}
	db.dram.Delete(db.pageKey(c, r.Page))
	if err := db.files[c].Write(r.Page, r.Slot, seq, tomb, key, value, op); err != nil {
		return err
	}
	db.index.Set(key, loc{
		Addr: r, seq: seq, size: int32(slot.HeaderSize + len(key) + len(value)),
		ref: true, tomb: tomb,
	})
	if ok && int(old.Class) != c {
		db.free(old.Addr)
	}
	return nil
}

// errMoved reports that a slot no longer holds the version an index entry
// named: a write or a migration reached it after the lookup.
var errMoved = errors.New("prismish: object moved")

// readSlot returns a copy of the value of the version l names, or errMoved.
// A page holds that version by slot.File.Named's rule. A cached page that
// disagrees may be a copy a writer has since made stale, so the device is
// read (and its page cached); a device page that disagrees means l is stale.
func (db *DB) readSlot(l loc, key []byte) ([]byte, error) {
	sf, pk := db.files[l.Class], db.pageKey(int(l.Class), l.Page)
	if page, ok := db.dram.Get(pk); ok {
		if v, ok := sf.Named(page, l.Slot, key, l.seq); ok {
			return bytes.Clone(v), nil
		}
	}
	page, err := sf.ReadPage(l.Page, device.Fg)
	if err != nil {
		return nil, err
	}
	db.dram.Put(pk, page)
	if v, ok := sf.Named(page, l.Slot, key, l.seq); ok {
		return bytes.Clone(v), nil
	}
	return nil, errMoved
}

// optimisticReads is how many times get reads a slot without holding the
// index lock before it holds the lock across the read.
const optimisticReads = 3

// Get returns the value for key, or engine.ErrNotFound.
func (db *DB) Get(key []byte) ([]byte, error) {
	v, found, err := db.get(key)
	if err == nil && !found {
		err = engine.ErrNotFound
	}
	return v, err
}

// get is the per-key read Get and MultiGet share. found is false for a
// missing or deleted key. A slot that does not hold the version the index
// named says nothing about key — migration may have freed it for a Put after
// moving key to the tree — so key is resolved again: index, then tree. After
// optimisticReads tries the read happens under the index lock, where no
// writer can reach the slot. SATA hits are admitted back into the slab (the
// caching architecture's promotion path).
func (db *DB) get(key []byte) ([]byte, bool, error) {
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
			return nil, false, nil
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
			return v, true, nil
		case !errors.Is(err, errMoved):
			return nil, false, err
		case pinned:
			return nil, false, fmt.Errorf("prismish: the slot the index names for %q at seq %d does not hold it", key, l.seq)
		}
	}

	v, kind, _, found, err := db.lsm.Get(key, keys.MaxSeq, device.Fg)
	if err != nil || !found || kind == keys.KindDelete {
		return nil, false, err
	}
	// Admission: copy the read object into the slab when there is room,
	// charged to the background. It is best-effort: the read has its value
	// whether or not the copy lands.
	// A write that reached the slab since the read is newer: keep it.
	if db.usedFraction() < db.opts.HighWatermark {
		db.mu.Lock()
		if _, ok := db.index.Get(key); !ok {
			_ = db.putLocked(key, v, false, db.seq.Add(1), device.Bg)
		}
		db.mu.Unlock()
	}
	return v, true, nil
}

// WriteBatch applies the ops in slice order under the index lock (last-write-
// wins for duplicates). Each op draws its sequence under that lock as it
// applies, so any key's writes apply in sequence order, across concurrent
// batches too. On ErrNoSpace the lock is dropped, one migration batch runs
// synchronously, and the batch resumes at the failed op.
func (db *DB) WriteBatch(ops []engine.BatchOp) error {
	for i := range ops {
		switch {
		case ops[i].Merge:
			return fmt.Errorf("prismish: merge op at batch index %d: no merge operator", i)
		case len(ops[i].Key) == 0:
			// A record that names no key is an erased slot to the scan.
			return fmt.Errorf("prismish: empty key at batch index %d", i)
		}
	}
	if len(ops) == 0 {
		return nil
	}
	i, attempts := 0, 0
	db.mu.Lock()
	for i < len(ops) {
		o := &ops[i]
		err := db.putLocked(o.Key, o.Value, o.Delete, db.seq.Add(1), device.Fg)
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
// deleted), reading each key as Get does.
func (db *DB) MultiGet(keyList [][]byte) ([][]byte, error) {
	out := make([][]byte, len(keyList))
	for i, key := range keyList {
		v, _, err := db.get(key)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// Scan returns up to limit live keys >= start, merging slab and LSM.
//
// Data moves from the slab to the tree, so the slab is read first: a key
// that left the index before its refs were taken was in the tree before the
// tree iterator opened. The slab is read in chunks of index refs, and every
// chunk repeats that order — refs, then a tree iterator opened at the
// chunk's start — so a chunk of tombstones shadows the tree keys it covers
// and tree keys past a full chunk wait for the next one.
func (db *DB) Scan(start []byte, limit int) ([]engine.KV, error) {
	type sref struct {
		key []byte
		l   loc
	}
	out := make([]engine.KV, 0, limit)
	// appendSlab reads r's slot. A slot that moved on since the index pass
	// is resolved by a point lookup; a device error is the scan's error, as
	// it is Get's.
	appendSlab := func(r sref) error {
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
	srefs := make([]sref, 0, limit)
	for from := start; ; from = keys.Successor(srefs[len(srefs)-1].key) {
		want := limit - len(out)
		srefs = srefs[:0]
		db.mu.RLock()
		db.index.Ascend(from, nil, func(k []byte, l loc) bool {
			srefs = append(srefs, sref{key: k, l: l})
			return len(srefs) < want
		})
		db.mu.RUnlock()
		more := len(srefs) == want // the slab may hold keys past the chunk
		it := db.lsm.NewScanIter(from, device.Fg)
		si := 0
		for len(out) < limit && (si < len(srefs) || (!more && it.Valid())) {
			c := 1 // which store holds the smaller key: <0 slab, 0 both, >0 tree
			if si < len(srefs) {
				c = -1
				if it.Valid() {
					c = bytes.Compare(srefs[si].key, it.Key())
				}
			}
			if c > 0 {
				out = append(out, engine.KV{Key: bytes.Clone(it.Key()), Value: bytes.Clone(it.Value())})
				it.Next()
				continue
			}
			// The slab copy, or its tombstone, shadows the tree's.
			if err := appendSlab(srefs[si]); err != nil {
				it.Close()
				return nil, err
			}
			si++
			if c == 0 {
				it.Next()
			}
		}
		err := it.Err()
		it.Close()
		if err != nil {
			return nil, err
		}
		if !more || len(out) == limit {
			return out, nil
		}
	}
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
				secondChance = append(secondChance, k)
				return true
			}
			victims = append(victims, victim{key: k, l: l})
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
	// A slot that fails its checksum fails the migration and leaves every
	// victim indexed; one that holds another key was freed and reused since
	// the victims were taken, and its victim is no longer indexed there.
	var entries []lsm.Entry
	pageReads, err := db.files.ReadBatch(len(victims),
		func(i int) slot.Addr { return victims[i].l.Addr },
		func(i int, r slot.Record, err error) error {
			if err != nil {
				return fmt.Errorf("prismish: migrating %q: %w", victims[i].key, err)
			}
			if !bytes.Equal(r.Key, victims[i].key) {
				return nil
			}
			kind := keys.KindSet
			if r.Tomb {
				kind = keys.KindDelete
			}
			entries = append(entries, lsm.Entry{
				Key:   keys.InternalKey{User: bytes.Clone(r.Key), Seq: r.Seq, Kind: kind},
				Value: bytes.Clone(r.Value),
			})
			return nil
		})
	if err != nil {
		return 0, err
	}
	// Victims were collected in key order (with at most one wrap); sort the
	// wrapped tail into place for the LSM ingest.
	slices.SortStableFunc(entries, func(a, b lsm.Entry) int { return bytes.Compare(a.Key.User, b.Key.User) })
	// Backpressure: when the SATA LSM has L0 debt, the migration thread
	// helps compact before ingesting more — otherwise a sustained uniform
	// write load grows L0 without bound (and stalls client writes anyway,
	// which is the PrismDB slowdown the paper observes).
	for db.lsm.Stalled() != nil {
		did, err := db.lsm.Compact(device.Bg)
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
			db.free(vt.l.Addr)
			demoted++
		}
	}
	db.mu.Unlock()

	db.migrations.Inc()
	db.migratedObjs.Add(uint64(demoted))
	db.migrationReads.Add(uint64(pageReads))
	return demoted, nil
}

// demoteBatch migrates one batch of a demotion burst and reports whether
// the burst goes on: the batch moved something and the slab is still at or
// above LowWatermark. The migration thread and DrainBackground run the same
// bursts.
func (db *DB) demoteBatch() (more bool, err error) {
	n, err := db.MigrateOnce()
	return err == nil && n > 0 && db.usedFraction() >= db.opts.LowWatermark, err
}

// BackgroundStep demotes one batch of cold objects and runs at most one
// compaction.
func (db *DB) BackgroundStep() error {
	if _, err := db.MigrateOnce(); err != nil {
		return err
	}
	_, err := db.lsm.Compact(device.Bg)
	return err
}

// DrainBackground migrates down to the low watermark and compacts until
// quiescent, then reports what the background threads failed at since the
// last drain.
func (db *DB) DrainBackground() error {
	for more := db.usedFraction() >= db.opts.LowWatermark; more; {
		var err error
		if more, err = db.demoteBatch(); err != nil {
			return err
		}
	}
	if err := db.lsm.Drain(); err != nil {
		return err
	}
	return db.errs.Take()
}

// LSM exposes the SATA tree for harness inspection.
func (db *DB) LSM() *lsm.Tree { return db.lsm }
