package zone

import (
	"bytes"
	"fmt"

	"hyperdb/internal/device"
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
	cfg = m.cfg // with defaults filled
	for _, cls := range slotClasses {
		name := fmt.Sprintf("p%d-slab%d", cfg.Partition, cls)
		f, err := cfg.Dev.Open(name)
		if err != nil {
			// Missing slab file: the partition never wrote this class.
			nf, cerr := newSlotFile(cfg.Dev, name, cls)
			if cerr != nil {
				return nil, 0, cerr
			}
			m.slotFiles = append(m.slotFiles, nf)
			continue
		}
		m.slotFiles = append(m.slotFiles, wrapSlotFile(cfg.Dev, f, cls))
	}

	// Pass 1: scan every allocated page of every slot file and index the
	// newest valid version per key. Charged as background sequential reads —
	// recovery is one streaming pass over the performance tier.
	var maxSeq uint64
	for c, sf := range m.slotFiles {
		pages := sf.f.AllocatedPageIDs()
		ps := int64(sf.pageSize)
		if n := sf.f.Size() / ps; n > 0 {
			sf.nextPage = uint32(n)
		}
		// Rebuild the free-page list from holes.
		alloc := make(map[uint32]bool, len(pages))
		for _, p := range pages {
			alloc[uint32(p)] = true
		}
		for p := uint32(0); p < sf.nextPage; p++ {
			if !alloc[p] {
				sf.freePages = append(sf.freePages, p)
			}
		}
		for _, p := range pages {
			page := make([]byte, sf.pageSize)
			if _, err := sf.f.ReadAt(page, p*ps, device.BgSeq); err != nil {
				return nil, 0, err
			}
			for s := 0; s < sf.slotsPerPage; s++ {
				off := s * sf.slotSize
				ts, tomb, k, v, err := decodeSlot(page[off : off+sf.slotSize])
				if err != nil || len(k) == 0 {
					continue // freed, torn, or never-written slot
				}
				if ts > maxSeq {
					maxSeq = ts
				}
				size := int32(slotHeaderSize + len(k) + len(v))
				loc := Location{
					Class: int8(c), Page: uint32(p), Slot: uint16(s),
					Seq: ts, Size: size, Tombstone: tomb,
				}
				// Newest sequence wins. Two slots hold one sequence of a
				// key only while a split or hot-zone eviction has copied
				// it and not yet freed the old zone: the same object.
				cur, ok := m.index.Get(k)
				if !ok || cur.Seq < ts {
					m.index.Set(bytes.Clone(k), loc)
				}
			}
		}
	}

	// Pass 2: assign pages to zones and rebuild accounting. Each page joins
	// the zone of its first live key; all live slots on the page count
	// toward that zone, including keys outside its range — the page was
	// written by the hot zone, or the freshly estimated zone grid cuts it in
	// two. Such a zone is marked: demoting or splitting it frees its pages
	// wholesale, so it must collect its objects by zone id over the whole
	// index, not over its range. Superseded slots become reusable free slots.
	type pageKey struct {
		c    int
		page uint32
	}
	pageZone := make(map[pageKey]*Zone)
	var refs []locRef
	m.index.Ascend(nil, nil, func(k []byte, loc Location) bool {
		refs = append(refs, locRef{key: k, loc: loc})
		return true
	})
	for _, r := range refs {
		loc := r.loc
		pk := pageKey{int(loc.Class), loc.Page}
		z, ok := pageZone[pk]
		if !ok {
			z = m.rangeZone(r.key)
			pageZone[pk] = z
		} else if !z.contains(Key64(r.key)) {
			z.strays = true
		}
		if z.pages[pk.c] == nil {
			z.pages[pk.c] = make(map[uint32]struct{})
		}
		z.pages[pk.c][loc.Page] = struct{}{}
		loc.ZoneID = z.id
		m.index.Set(r.key, loc)
		z.objects++
		z.bytes += int64(loc.Size)
		sf := m.slotFiles[loc.Class]
		sf.objects++
		sf.bytes += int64(loc.Size)
	}

	// Pass 3: free slots for every (page, slot) not referenced by the index.
	live := make(map[pageKey]map[uint16]bool)
	m.index.Ascend(nil, nil, func(k []byte, loc Location) bool {
		pk := pageKey{int(loc.Class), loc.Page}
		if live[pk] == nil {
			live[pk] = make(map[uint16]bool)
		}
		live[pk][loc.Slot] = true
		return true
	})
	for pk, z := range pageZone {
		sf := m.slotFiles[pk.c]
		for s := 0; s < sf.slotsPerPage; s++ {
			if !live[pk][uint16(s)] {
				z.releaseSlot(pk.c, slotRef{page: pk.page, slot: uint16(s)})
			}
		}
	}
	return m, maxSeq, nil
}
