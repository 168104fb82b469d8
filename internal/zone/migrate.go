package zone

import (
	"bytes"
	"fmt"
	"sort"

	"hyperdb/internal/device"
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

// PrepareMigration detaches zone z from the group and reads its objects out
// of the slot files at page granularity. New writes to the zone's key range
// create a fresh zone; concurrent updates to migrated keys simply supersede
// them (CommitMigration compares sequence numbers).
//
// The returned batch's entries are sorted by key — the zone's limited key
// range is what makes this cheap (§3.2). PageReads counts the distinct pages
// fetched, the experiment metric behind Figure 9b.
func (m *Manager) PrepareMigration(z *Zone) (*Batch, error) {
	m.mu.Lock()
	// Detach: remove from the ordered zone list so the range can be
	// re-zoned, and from zoneByID so concurrent updates to migrated keys
	// allocate fresh slots instead of writing in place into pages that are
	// about to be freed. A zone already detached by a racing migration
	// (foreground stall vs background worker) yields a nil batch.
	found := false
	for i, zz := range m.zones {
		if zz == z {
			m.zones = append(m.zones[:i], m.zones[i+1:]...)
			found = true
			break
		}
	}
	if !found {
		m.mu.Unlock()
		return nil, nil
	}
	delete(m.zoneByID, z.id)
	// Snapshot the zone's index entries. The zone's range bounds the scan.
	var refs []locRef
	lo, hi := z.scanBounds()
	m.index.Ascend(lo, hi, func(k []byte, loc Location) bool {
		if loc.ZoneID == z.id {
			refs = append(refs, locRef{key: k, loc: loc})
		}
		return true
	})
	m.mu.Unlock()

	// Read pages outside the lock; the zone is detached so its slots are
	// stable (slot reuse only happens through the zone, which no new write
	// can reach).
	batch := &Batch{zone: z}
	type pageKey struct {
		class int8
		page  uint32
	}
	pages := make(map[pageKey][]byte)
	for _, r := range refs {
		pk := pageKey{r.loc.Class, r.loc.Page}
		page, ok := pages[pk]
		if !ok {
			var err error
			page, err = m.slotFiles[r.loc.Class].readPage(r.loc.Page, device.Bg)
			if err != nil {
				return nil, err
			}
			pages[pk] = page
			batch.PageReads++
		}
		_, tomb, k, v, err := m.slotFiles[r.loc.Class].decodeSlotInPage(page, r.loc.Slot)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(k, r.key) {
			return nil, fmt.Errorf("zone: migration found %q at slot of %q", k, r.key)
		}
		batch.Entries = append(batch.Entries, MigEntry{
			Key:       bytes.Clone(k),
			Value:     bytes.Clone(v),
			Seq:       r.loc.Seq,
			Tombstone: tomb,
		})
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
// removed (newer concurrent writes are kept) and the zone's pages return to
// the slot files' free lists.
func (m *Manager) CommitMigration(b *Batch) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range b.Entries {
		if cur, ok := m.index.Get(e.Key); ok && cur.ZoneID == b.zone.id && cur.Seq == e.Seq {
			m.index.Delete(e.Key)
			m.vcacheDelete(e.Key)
		}
	}
	for c, pageSet := range b.zone.pages {
		for p := range pageSet {
			m.invalidateCache(c, p)
			m.slotFiles[c].freePage(p)
		}
	}
	m.slotFilesAdjust(-b.zone.bytes, -b.zone.objects)
	m.migrations.Inc()
	m.migratedObjects.Add(uint64(len(b.Entries)))
}

// slotFilesAdjust spreads aggregate byte/object deltas across slot files for
// the Eq. 1 estimate after a whole-zone drop. Caller holds mu.
func (m *Manager) slotFilesAdjust(bytesDelta, objectsDelta int64) {
	// Aggregate-only adjustment: Eq. 1 uses ΣF_k/ΣN_k, so attributing the
	// delta to the first file keeps the ratio exact without per-class
	// bookkeeping during wholesale zone drops.
	if len(m.slotFiles) > 0 {
		m.slotFiles[0].bytes += bytesDelta
		m.slotFiles[0].objects += objectsDelta
	}
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
	m.hot = newZone(0, 0, ^uint64(0), true, len(m.cfg.Classes))
	// Collect the old hot zone's entries from the index.
	var refs []locRef
	m.index.Ascend(nil, nil, func(k []byte, loc Location) bool {
		if loc.ZoneID == old.id && old == m.zoneByID[loc.ZoneID] {
			refs = append(refs, locRef{key: bytes.Clone(k), loc: loc})
		}
		return true
	})
	// Swap IDs so new hot writes are distinguishable: give the rebuilt hot
	// zone a fresh id and register it.
	m.hot.id = m.nextZone
	m.nextZone++
	m.zoneByID[m.hot.id] = m.hot
	delete(m.zoneByID, old.id)
	m.mu.Unlock()

	for _, r := range refs {
		page, err := m.slotFiles[r.loc.Class].readPage(r.loc.Page, device.Bg)
		if err != nil {
			return err
		}
		_, tomb, k, v, err := m.slotFiles[r.loc.Class].decodeSlotInPage(page, r.loc.Slot)
		if err != nil || !bytes.Equal(k, r.key) {
			continue // superseded concurrently
		}
		m.mu.Lock()
		cur, ok := m.index.Get(r.key)
		if !ok || cur.Seq != r.loc.Seq || cur.ZoneID != old.id {
			m.mu.Unlock()
			continue // superseded concurrently
		}
		switch {
		case isHot != nil && isHot(r.key):
			// Still hot: keep in the rebuilt hot zone.
			loc, err := m.writeObject(m.hot, int(r.loc.Class), k, v, r.loc.Seq, tomb, r.loc.Promoted, device.Bg)
			if err != nil {
				m.mu.Unlock()
				return err
			}
			m.index.Set(r.key, loc)
		case r.loc.Promoted:
			// Cold promoted copy: drop without relocation.
			m.index.Delete(r.key)
			m.vcacheDelete(r.key)
			m.hotEvictDropped.Inc()
		default:
			// Cold authoritative object: relocate into its key-range zone.
			k64 := Key64(r.key)
			z := m.zoneFor(k64)
			if z == nil {
				z = m.createZone(k64)
			}
			loc, err := m.writeObject(z, int(r.loc.Class), k, v, r.loc.Seq, tomb, false, device.Bg)
			if err != nil {
				m.mu.Unlock()
				return err
			}
			m.index.Set(r.key, loc)
			m.hotEvictRelocated.Inc()
		}
		m.mu.Unlock()
	}

	// Free the old hot zone's pages.
	m.mu.Lock()
	for c, pageSet := range old.pages {
		for p := range pageSet {
			m.invalidateCache(c, p)
			m.slotFiles[c].freePage(p)
		}
	}
	m.slotFilesAdjust(-old.bytes, -old.objects)
	m.mu.Unlock()
	return nil
}
