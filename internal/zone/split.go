package zone

import (
	"bytes"

	"hyperdb/internal/device"
)

// OversizeFactor: a zone holding more than OversizeFactor × BatchSize of
// payload is due for a rebuild. Oversized zones appear when the width
// estimate was stale at creation (most commonly the bootstrap zone created
// before any statistics existed).
const OversizeFactor = 2

// PickOversizedZone returns a key-range zone whose payload exceeds
// OversizeFactor × BatchSize (plus that payload size), or nil.
func (m *Manager) PickOversizedZone() (*Zone, int64) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, z := range m.zones {
		if z.bytes > OversizeFactor*m.cfg.BatchSize {
			return z, z.bytes
		}
	}
	return nil, 0
}

// SplitZone rebuilds an oversized zone (§3.2: "periodically rebuilds the
// zone size based on the workload and updates the representation range"):
// the zone is detached, its objects re-placed into freshly created zones
// sized by the current Eq. 1–2 estimate, and its pages freed. All I/O is
// background traffic. Returns the number of objects moved.
func (m *Manager) SplitZone(z *Zone) (int, error) {
	m.mu.Lock()
	if z.hot {
		m.mu.Unlock()
		return 0, nil
	}
	// Detach, like a migration: new writes re-zone on the fly.
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
		return 0, nil
	}
	delete(m.zoneByID, z.id)
	var refs []locRef
	lo, hi := z.scanBounds()
	m.index.Ascend(lo, hi, func(k []byte, loc Location) bool {
		if loc.ZoneID == z.id {
			refs = append(refs, locRef{key: bytes.Clone(k), loc: loc})
		}
		return true
	})
	m.mu.Unlock()

	moved := 0
	type pageID struct {
		c    int8
		page uint32
	}
	pages := make(map[pageID][]byte)
	for _, r := range refs {
		pid := pageID{r.loc.Class, r.loc.Page}
		page, ok := pages[pid]
		if !ok {
			var err error
			page, err = m.slotFiles[r.loc.Class].readPage(r.loc.Page, device.Bg)
			if err != nil {
				return moved, err
			}
			pages[pid] = page
		}
		_, tomb, k, v, err := m.slotFiles[r.loc.Class].decodeSlotInPage(page, r.loc.Slot)
		if err != nil || !bytes.Equal(k, r.key) {
			continue
		}
		m.mu.Lock()
		cur, ok := m.index.Get(r.key)
		if !ok || cur.Seq != r.loc.Seq || cur.ZoneID != z.id {
			m.mu.Unlock()
			continue // superseded concurrently
		}
		k64 := Key64(r.key)
		dst := m.zoneFor(k64)
		if dst == nil {
			dst = m.createZone(k64)
		}
		nloc, err := m.writeObject(dst, int(r.loc.Class), k, v, r.loc.Seq, tomb, r.loc.Promoted, device.Bg)
		if err != nil {
			m.mu.Unlock()
			return moved, err
		}
		m.index.Set(r.key, nloc)
		moved++
		m.mu.Unlock()
	}

	m.mu.Lock()
	for c, pageSet := range z.pages {
		for p := range pageSet {
			m.invalidateCache(c, p)
			m.slotFiles[c].freePage(p)
		}
	}
	m.slotFilesAdjust(-z.bytes, -z.objects)
	m.mu.Unlock()
	return moved, nil
}
