package zone

import (
	"fmt"

	"hyperdb/internal/slot"
)

// Recover rebuilds a zone Manager from slot files persisted on the device —
// the KVell-style recovery the paper's durability model implies: writes are
// durable in place, so the in-memory index and zone metadata reconstruct by
// scanning every allocated slot page, keeping the newest checksummed version
// of each key.
//
// Zone structure is rebuilt approximately: each recovered page is assigned
// to the key-range zone owning its first live key (created on demand with
// fresh Eq. 1–2 estimates). Because the original placement grouped adjacent
// keys per page, the rebuilt zones closely track the pre-crash layout; a
// zone left holding keys outside its range is marked so (Zone.strays), and
// the drift only affects future placement and migration batching, never
// lookups or what a demotion carries. Returns the manager and the largest
// sequence number seen.
func Recover(cfg Config) (*Manager, uint64, error) {
	m := emptyManager(cfg)
	files, err := slot.Open(m.cfg.Dev, fmt.Sprintf("p%d-slab", m.cfg.Partition))
	if err != nil {
		return nil, 0, err
	}
	m.files = files

	// Pass 1: the recovery scan indexes the newest version per key and notes,
	// in scan order, the pages (by slot 0) it found records on.
	var scanned []slot.Addr
	maxSeq, err := m.files.Scan(func(a slot.Addr, r slot.Record) {
		if pk := (slot.Addr{Class: a.Class, Page: a.Page}); len(scanned) == 0 || scanned[len(scanned)-1] != pk {
			scanned = append(scanned, pk)
		}
		// Newest sequence wins. Two slots hold one sequence of a key only
		// while a split or hot-zone eviction has copied it and not yet
		// freed the old zone: the same object.
		if cur, ok := m.index.Get(r.Key); !ok || cur.Seq < r.Seq {
			m.index.Set(r.Key, Location{Addr: a, Seq: r.Seq, Size: uint16(r.Size()), Tombstone: r.Tomb})
		}
	})
	if err != nil {
		return nil, 0, err
	}

	// Pass 2: assign pages to zones and rebuild accounting. Each page joins
	// the zone of its first live key; all live slots on the page count
	// toward that zone, including keys outside its range — the page was
	// written by the hot zone, or the freshly estimated zone grid cuts it in
	// two. Such a zone is marked: demoting or splitting it frees its pages
	// wholesale, so it must collect its objects by zone id over the whole
	// index, not over its range.
	pageZone := make(map[slot.Addr]*Zone)
	live := make(map[slot.Addr]bool)
	var refs []locRef
	m.index.Ascend(nil, nil, func(k []byte, loc Location) bool {
		refs = append(refs, locRef{key: k, loc: loc})
		return true
	})
	for _, r := range refs {
		loc := r.loc
		pk := slot.Addr{Class: loc.Class, Page: loc.Page}
		z, ok := pageZone[pk]
		if !ok {
			z = m.rangeZone(r.key)
			pageZone[pk] = z
		} else if !z.contains(Key64(r.key)) {
			z.strays = true
		}
		if z.pages[pk.Class] == nil {
			z.pages[pk.Class] = make(map[uint32]struct{})
		}
		z.pages[pk.Class][loc.Page] = struct{}{}
		loc.ZoneID = z.id
		m.index.Set(r.key, loc)
		z.objects++
		z.bytes += int64(loc.Size)
		m.storedObjects++
		m.storedBytes += int64(loc.Size)
		live[loc.Addr] = true
	}

	// Pass 3: every slot of a zone's page that the index does not name —
	// superseded, erased or never written — is free. Slots are released in
	// scan order, so two recoveries of one device place later writes alike.
	for _, pk := range scanned {
		z, ok := pageZone[pk]
		if !ok {
			continue
		}
		for s := uint16(0); int(s) < m.files[pk.Class].SlotsPerPage(); s++ {
			if a := (slot.Addr{Class: pk.Class, Page: pk.Page, Slot: s}); !live[a] {
				z.releaseSlot(a)
			}
		}
	}
	return m, maxSeq, nil
}
