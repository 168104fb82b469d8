package prismish

import (
	"bytes"
	"sort"

	"hyperdb/internal/device"
	"hyperdb/internal/keys"
	"hyperdb/internal/slot"
)

// recoverSlabs rebuilds the slab index and free lists from the slot files
// and returns the largest sequence they hold. Slab writes are durable
// in-place page writes, so the slot files themselves survive; what is lost
// is the in-memory index and free lists. The slot files' recovery scan
// yields the candidates (torn or never-written slots fail the checksum and
// become free), the newest sequence wins per key, and a candidate whose key
// has an equal-or-newer version in the SATA LSM is a leftover from a
// completed migration — its slot is freed, since the migration's slot-free
// bookkeeping also lived only in memory.
func (db *DB) recoverSlabs() (uint64, error) {
	type cand struct {
		key []byte
		l   loc
	}
	var cands []cand
	maxSeq, err := db.files.Scan(func(a slot.Addr, r slot.Record) {
		cands = append(cands, cand{
			key: bytes.Clone(r.Key),
			l:   loc{Addr: a, seq: r.Seq, size: r.Size(), tomb: r.Tomb},
		})
	})
	if err != nil {
		return 0, err
	}
	// Every slot the scan passed over is free, in scan order.
	next := 0
	for c, f := range db.files {
		for p := uint32(0); p < f.Pages(); p++ {
			for s := uint16(0); int(s) < f.SlotsPerPage(); s++ {
				if a := (slot.Addr{Class: int8(c), Page: p, Slot: s}); next < len(cands) && cands[next].l.Addr == a {
					next++
				} else {
					db.free(a)
				}
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
			db.free(cands[i].l.Addr)
			continue
		}
		_, _, entrySeq, found, err := db.lsm.Get(cands[i].key, keys.MaxSeq, device.BgSeq)
		if err != nil {
			return 0, err
		}
		if found && entrySeq >= cands[i].l.seq {
			db.free(cands[i].l.Addr) // already migrated to the LSM
			continue
		}
		db.index.Set(cands[i].key, cands[i].l)
	}
	return maxSeq, nil
}
