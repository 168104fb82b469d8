package zone

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
	if z.hot {
		return 0, nil
	}
	// Detach, like a migration: new writes re-zone on the fly.
	m.mu.Lock()
	refs, ok := m.detachLocked(z)
	m.mu.Unlock()
	if !ok {
		return 0, nil
	}
	moved, err := m.replace(z, refs, &m.bg.rebuildRead, &m.bg.rebuildWrite, func(r locRef) *Zone {
		return m.rangeZone(r.key)
	})
	if err != nil {
		return moved, err
	}
	m.mu.Lock()
	m.freeZoneLocked(z)
	m.mu.Unlock()
	return moved, nil
}
