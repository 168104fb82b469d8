package zone

import (
	"bytes"
	"cmp"
	"slices"

	"hyperdb/internal/device"
	"hyperdb/internal/slot"
	"hyperdb/internal/stats"
)

// staged is an object a re-placement has read and not yet written; the
// record's key and value are views into a page readObjects fetched.
type staged struct {
	ref locRef
	rec slot.Record
}

// placement is a staged object's new slot.
type placement struct {
	obj  *staged
	zone *Zone
	slot slot.Addr
}

func (p *placement) class() int { return int(p.slot.Class) }

// replace moves the objects of detached zone from that are still current
// into the zones dest picks, each keeping its promotion label: the one loop
// of SplitZone and EvictHotZone. Pages are read outside the lock, once each
// (readObjects, booked to read). The objects are staged up to one
// destination page at a time; each batch is then placed under one hold of mu
// (placeLocked), its writes booked to write. dest runs under mu; a nil zone
// drops the object, and dest has dealt with its index entry. from's pages
// are the caller's to free, after every object is re-placed. Returns the
// number of objects moved.
func (m *Manager) replace(from *Zone, refs []locRef, read, write *stats.Counter, dest func(r locRef) *Zone) (int, error) {
	pageSize := m.cfg.Dev.PageSize()
	buf := make([]byte, pageSize)
	var stage []staged
	moved, size, limit := 0, 0, pageSize
	flush := func() error {
		m.mu.Lock()
		defer m.mu.Unlock()
		n, room, err := m.placeLocked(from, stage, buf, write, dest)
		moved += n
		stage, size, limit = stage[:0], 0, room
		return err
	}
	_, err := m.readObjects(refs, read, func(r locRef, rec slot.Record, err error) error {
		if err != nil || !bytes.Equal(rec.Key, r.key) {
			return nil // superseded concurrently
		}
		n := m.files[r.loc.Class].SlotSize()
		if len(stage) > 0 && size+n > limit {
			if err := flush(); err != nil {
				return err
			}
		}
		stage = append(stage, staged{ref: r, rec: rec})
		size += n
		return nil
	})
	if err == nil && len(stage) > 0 {
		err = flush()
	}
	return moved, err
}

// placeLocked re-places the staged objects still current — the index entry
// names from and the same sequence — in three steps: it takes their slots,
// writes each run of adjacent slots on a page with one device write, and
// points an object's index entry at its new slot once the run is written.
// It returns the number moved and the next batch's size in bytes: what is
// left of the page the last object went to, so that batch fills it, or a
// whole page. Caller holds mu.
func (m *Manager) placeLocked(from *Zone, stage []staged, buf []byte, ledger *stats.Counter, dest func(locRef) *Zone) (moved, room int, err error) {
	room = len(buf)
	placed := make([]placement, 0, len(stage))
	defer func() {
		if err != nil { // give back the slots no object reached
			for _, p := range placed[moved:] {
				p.zone.releaseSlot(p.slot)
			}
		}
	}()
	for i := range stage {
		s := &stage[i]
		cur, ok := m.index.Get(s.ref.key)
		if !ok || cur.Seq != s.ref.loc.Seq || cur.ZoneID != from.id {
			continue // superseded concurrently
		}
		z := dest(s.ref)
		if z == nil {
			continue
		}
		ref, err := m.allocSlot(z, int(s.ref.loc.Class))
		if err != nil {
			return 0, room, err
		}
		placed = append(placed, placement{obj: s, zone: z, slot: ref})
	}
	if len(placed) == 0 {
		return 0, room, nil
	}
	last := &placed[len(placed)-1]
	if op, sf := last.zone.open[last.class()], m.files[last.class()]; op.inUse && op.page == last.slot.Page {
		room = (sf.SlotsPerPage() - int(op.next)) * sf.SlotSize()
	}

	slices.SortFunc(placed, func(a, b placement) int {
		return cmp.Or(cmp.Compare(a.slot.Class, b.slot.Class), cmp.Compare(a.slot.Page, b.slot.Page), cmp.Compare(a.slot.Slot, b.slot.Slot))
	})
	for moved < len(placed) {
		run := placed[moved:]
		n := 1
		for n < len(run) && run[n].slot.Class == run[0].slot.Class && run[n].slot.Page == run[0].slot.Page && run[n].slot.Slot == run[n-1].slot.Slot+1 {
			n++
		}
		run = run[:n]
		if err := m.writeRun(run, buf, ledger); err != nil {
			return moved, room, err
		}
		for _, p := range run {
			o := p.obj
			m.index.Set(o.ref.key, m.stored(p.zone, p.slot, o.rec.Key, o.rec.Value, o.ref.loc.Seq, o.rec.Tomb, o.ref.loc.Promoted))
		}
		moved += n
	}
	return moved, room, nil
}

// writeRun writes the objects of run — adjacent slots of one page, in slot
// order — with one background device write, booked to ledger. buf holds at
// least a page. Caller holds mu.
func (m *Manager) writeRun(run []placement, buf []byte, ledger *stats.Counter) error {
	c, first := run[0].class(), run[0].slot
	sf := m.files[c]
	b := buf[:len(run)*sf.SlotSize()]
	clear(b) // no byte of a slot's previous occupant may persist
	for i, p := range run {
		o := p.obj
		slot.Encode(b[i*sf.SlotSize():], o.ref.loc.Seq, o.rec.Tomb, o.rec.Key, o.rec.Value)
	}
	if err := sf.WriteRun(b, first.Page, first.Slot, device.Bg); err != nil {
		return err
	}
	ledger.Add(uint64(m.cfg.Dev.WriteCharge(int64(len(b)))))
	return nil
}
