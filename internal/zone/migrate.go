package zone

import (
	"bytes"
	"fmt"
	"slices"
	"sort"

	"hyperdb/internal/slot"
	"hyperdb/internal/stats"
)

// PickDemotionVictim returns the key-range zone with the best §3.5
// benefit/cost score, or nil when the group has no migratable zone. The hot
// zone is never demoted wholesale.
func (m *Manager) PickDemotionVictim() *Zone {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var best *Zone
	var bestScore float64
	for _, z := range m.zones {
		if z.objects == 0 {
			continue
		}
		if s := z.Score(); best == nil || s > bestScore {
			best, bestScore = z, s
		}
	}
	return best
}

// locRef pairs an index key with its location, for migration snapshots.
type locRef struct {
	key []byte
	loc Location
}

// detachLocked takes key-range zone z out of the group and returns its index
// entries in key order. Off the ordered zone list, the range can be re-zoned;
// off zoneByID, concurrent updates to its keys allocate fresh slots instead
// of writing in place into pages that are about to be freed, so the zone's
// slots are stable from here on. ok is false when a racing caller (foreground
// stall vs background worker) already detached z. Caller holds mu.
func (m *Manager) detachLocked(z *Zone) (refs []locRef, ok bool) {
	i := 0
	for i < len(m.zones) && m.zones[i] != z {
		i++
	}
	if i == len(m.zones) {
		return nil, false
	}
	m.zones = append(m.zones[:i], m.zones[i+1:]...)
	delete(m.zoneByID, z.id)
	lo, hi := z.scanBounds()
	return m.zoneRefsLocked(z, lo, hi), true
}

// zoneRefsLocked snapshots the index entries in [lo, hi) that live in z. The
// keys are the walk's own copies: immutable, so not cloned. Caller holds mu.
func (m *Manager) zoneRefsLocked(z *Zone, lo, hi []byte) []locRef {
	var refs []locRef
	m.index.Ascend(lo, hi, func(k []byte, loc Location) bool {
		if loc.ZoneID == z.id {
			refs = append(refs, locRef{key: k, loc: loc})
		}
		return true
	})
	return refs
}

// readObjects reads the slots of a detached zone's refs outside the lock
// (slot.Files.ReadBatch, fn in refs order) and books the pages it fetched
// to ledger. It returns the number of pages fetched.
func (m *Manager) readObjects(refs []locRef, ledger *stats.Counter, fn func(r locRef, rec slot.Record, err error) error) (int, error) {
	pages, err := m.files.ReadBatch(len(refs),
		func(i int) slot.Addr { return refs[i].loc.Addr },
		func(i int, rec slot.Record, err error) error { return fn(refs[i], rec, err) })
	ledger.Add(uint64(pages * m.cfg.Dev.PageSize()))
	return pages, err
}

// PrepareMigration detaches zone z from the group and reads its objects out
// of the slot files at page granularity. New writes to the zone's key range
// create a fresh zone; concurrent updates to migrated keys simply supersede
// them (CommitMigration compares sequence numbers). A zone a racing
// migration already took yields a nil batch.
//
// The returned batch's entries are sorted by key — the zone's limited key
// range is what makes this cheap (§3.2). PageReads counts the distinct pages
// fetched, the experiment metric behind Figure 9b.
func (m *Manager) PrepareMigration(z *Zone) (*Batch, error) {
	m.mu.Lock()
	refs, ok := m.detachLocked(z)
	m.mu.Unlock()
	if !ok {
		return nil, nil
	}
	batch := &Batch{zone: z, Entries: make([]MigEntry, 0, len(refs))}
	var err error
	batch.PageReads, err = m.readObjects(refs, &m.bg.demotionRead, func(r locRef, rec slot.Record, err error) error {
		if err != nil {
			return err
		}
		if !bytes.Equal(rec.Key, r.key) {
			return fmt.Errorf("zone: migration found %q at slot of %q", rec.Key, r.key)
		}
		batch.Entries = append(batch.Entries, MigEntry{
			Key:       bytes.Clone(rec.Key),
			Value:     bytes.Clone(rec.Value),
			Seq:       r.loc.Seq,
			Tombstone: rec.Tomb,
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Index iteration order is already sorted; assert the invariant cheaply.
	if !sort.SliceIsSorted(batch.Entries, func(a, b int) bool {
		return bytes.Compare(batch.Entries[a].Key, batch.Entries[b].Key) < 0
	}) {
		return nil, fmt.Errorf("zone: migration batch out of order")
	}
	m.migrationPageReads.Add(uint64(batch.PageReads))
	return batch, nil
}

// CommitMigration finalises a batch after the capacity tier has durably
// absorbed it: index entries that still point at the migrated versions are
// removed (newer concurrent writes are kept), the zone's pages return to
// the slot files' free lists, and demoted advances for Promote's check.
func (m *Manager) CommitMigration(b *Batch) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range b.Entries {
		m.demoted = max(m.demoted, e.Seq)
		if cur, ok := m.index.Get(e.Key); ok && cur.ZoneID == b.zone.id && cur.Seq == e.Seq {
			m.index.Delete(e.Key)
			m.uncacheObject(e.Key)
			m.gen++
		}
	}
	m.freeZoneLocked(b.zone)
	m.migrations.Inc()
	m.migratedObjects.Add(uint64(len(b.Entries)))
}

// freeZoneLocked returns a detached zone's pages to the slot files — in page
// order, so that which page the next allocation reuses does not depend on
// map iteration — and takes what is left of its payload out of the Eq. 1
// estimate. Caller holds mu.
func (m *Manager) freeZoneLocked(z *Zone) {
	for c, pageSet := range z.pages {
		pages := make([]uint32, 0, len(pageSet))
		for p := range pageSet {
			pages = append(pages, p)
		}
		slices.Sort(pages)
		for _, p := range pages {
			m.files[c].FreePage(p)
		}
	}
	m.storedBytes -= z.bytes
	m.storedObjects -= z.objects
}

// AbortMigration reattaches a prepared batch's zone after a failed merge so
// its objects stay readable and migratable.
func (m *Manager) AbortMigration(b *Batch) {
	m.mu.Lock()
	defer m.mu.Unlock()
	z := b.zone
	m.zoneByID[z.id] = z
	i := sort.Search(len(m.zones), func(i int) bool { return m.zones[i].lo > z.lo })
	m.zones = append(m.zones, nil)
	copy(m.zones[i+1:], m.zones[i:])
	m.zones[i] = z
}

// encodeKey64 renders a keyspace position back into an 8-byte key bound.
func encodeKey64(v uint64) []byte {
	b := make([]byte, 8)
	for i := 7; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
	return b
}

// EvictHotZone rebuilds the hot zone (§3.5): objects still classified hot by
// isHot stay; cold objects with the promotion label are dropped outright
// (the capacity tier still has them); cold authoritative objects relocate to
// their key-range zones. Old hot-zone pages are then freed wholesale.
func (m *Manager) EvictHotZone(isHot func(key []byte) bool) error {
	m.evictMu.Lock()
	defer m.evictMu.Unlock()
	m.mu.Lock()
	old := m.hot
	// The rebuilt hot zone gets a fresh id, so new hot writes are
	// distinguishable, and the old one leaves zoneByID like any detached
	// zone: its slots are stable until its pages are freed below.
	m.hot = newZone(m.nextZone, 0, ^uint64(0), true)
	m.nextZone++
	m.zoneByID[m.hot.id] = m.hot
	delete(m.zoneByID, old.id)
	refs := m.zoneRefsLocked(old, nil, nil)
	m.mu.Unlock()

	_, err := m.replace(old, refs, &m.bg.hotEvictRead, &m.bg.hotEvictWrite, func(r locRef) *Zone {
		switch {
		case isHot != nil && isHot(r.key):
			// Still hot: keep in the rebuilt hot zone.
			return m.hot
		case r.loc.Promoted:
			// Cold promoted copy: drop without relocation.
			m.index.Delete(r.key)
			m.uncacheObject(r.key)
			m.gen++
			m.hotEvictDropped.Inc()
			return nil
		default:
			// Cold authoritative object: relocate into its key-range zone.
			m.hotEvictRelocated.Inc()
			return m.rangeZone(r.key)
		}
	})
	if err != nil {
		return err
	}

	// Free the old hot zone's pages.
	m.mu.Lock()
	m.freeZoneLocked(old)
	m.mu.Unlock()
	return nil
}
