package prismish

import (
	"bytes"
	"sort"

	"hyperdb/internal/device"
	"hyperdb/internal/keys"
)

// recoverSlabs rebuilds the slab index and free lists from the slot files
// and returns the largest sequence they hold. Slab writes are durable
// in-place page writes, so the slot files themselves survive; what is lost
// is the in-memory index and free lists. Every slot is rescanned: CRC-valid
// slots are candidates (torn or never-written slots fail the checksum and
// become free), the newest sequence wins per key, and a candidate whose key
// has an equal-or-newer version in the SATA LSM is a leftover from a
// completed migration — its slot is freed, since the migration's slot-free
// bookkeeping also lived only in memory.
func (db *DB) recoverSlabs() (uint64, error) {
	ps := db.opts.NVMe.PageSize()

	type cand struct {
		key  []byte
		l    loc
		free bool
	}
	var cands []cand
	var maxSeq uint64
	pageBuf := make([]byte, ps)
	for ci, sf := range db.slabs {
		nPages := sf.f.Size() / int64(ps)
		for page := int64(0); page < nPages; page++ {
			if _, err := sf.f.ReadAt(pageBuf, page*int64(ps), device.BgSeq); err != nil {
				return 0, err
			}
			for slot := 0; slot < sf.slotsPerPage; slot++ {
				buf := pageBuf[slot*sf.slotSize : (slot+1)*sf.slotSize]
				seq, tomb, k, v, err := decodeSlot(buf)
				if err != nil {
					sf.freeSlots = append(sf.freeSlots,
						slotRef{page: uint32(page), slot: uint16(slot)})
					continue
				}
				if seq > maxSeq {
					maxSeq = seq
				}
				cands = append(cands, cand{
					key: bytes.Clone(k),
					l: loc{
						class: int8(ci), page: uint32(page), slot: uint16(slot),
						seq: seq, size: int32(slotHeader + len(k) + len(v)),
						tomb: tomb,
					},
				})
			}
		}
	}

	// Newest sequence wins per key; every losing copy (a stale slot left by a
	// resize to another class) frees its slot.
	sort.Slice(cands, func(a, b int) bool {
		if c := bytes.Compare(cands[a].key, cands[b].key); c != 0 {
			return c < 0
		}
		return cands[a].l.seq > cands[b].l.seq
	})
	for i := range cands {
		if i > 0 && bytes.Equal(cands[i].key, cands[i-1].key) {
			cands[i].free = true
			continue
		}
		_, _, entrySeq, found, err := db.lsm.Get(cands[i].key, keys.MaxSeq, device.BgSeq)
		if err != nil {
			return 0, err
		}
		if found && entrySeq >= cands[i].l.seq {
			cands[i].free = true // already migrated to the LSM
			continue
		}
		db.index.Set(cands[i].key, cands[i].l)
	}
	for _, c := range cands {
		if c.free {
			db.slabs[c.l.class].freeSlots = append(db.slabs[c.l.class].freeSlots,
				slotRef{page: c.l.page, slot: c.l.slot})
		}
	}
	return maxSeq, nil
}
