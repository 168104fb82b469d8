// Package zone implements the performance-tier data layout of §3.2: each
// partition's NVMe share is a zone group; a zone stores objects of one
// contiguous key range (ordered and non-overlapping between zones) in
// size-classed slot files (internal/slot); the zone mapper tracks which
// slot-file pages each zone owns; a per-partition hot zone holds
// tracker-identified hot objects with no key-range restriction. Objects
// smaller than a page update in place; resized objects relocate and erase the
// old slot. Access is at page (block) granularity, matching the device model,
// so the page-read amplification the paper analyses appears naturally.
package zone

import (
	"math"
	"sync/atomic"

	"hyperdb/internal/btree"
	"hyperdb/internal/slot"
)

// Key64 maps a user key to its position in the 64-bit prefix keyspace used
// for zone ranges (btree.Prefix: big-endian first 8 bytes, zero-padded — the
// same integer the index orders its items by). Zone ranges are
// intervals of this space; keys sharing an 8-byte prefix land in the same
// zone, which only affects range-width estimation, not correctness.
func Key64(k []byte) uint64 { return btree.Prefix(k) }

// openPage is a partially filled page being appended to.
type openPage struct {
	page  uint32
	next  uint16 // next unused slot
	inUse bool
}

// Zone is a collection of objects with adjacent keys, mapped onto slot-file
// pages by the zone mapper. The hot zone has the full keyspace as its range.
type Zone struct {
	id  uint32
	lo  uint64 // inclusive
	hi  uint64 // exclusive; math.MaxUint64 means "through the top"
	hot bool
	// strays marks a zone rebuilt by Recover whose pages hold keys outside
	// [lo, hi); see scanBounds.
	strays bool

	// Zone mapper state: pages owned per class, the open page per class,
	// and freed slots available for reuse.
	pages     []map[uint32]struct{} // per class
	open      []openPage            // per class
	freeSlots [][]slot.Addr         // per class

	objects int64
	bytes   int64 // payload bytes stored (the demotion benefit)
	// readIOs is atomic: Get bumps it after a device read holding only the
	// manager's read lock (Manager.heat), which readers share.
	readIOs atomic.Int64 // foreground page reads since the last migration
}

func newZone(id uint32, lo, hi uint64, hot bool) *Zone {
	return &Zone{
		id: id, lo: lo, hi: hi, hot: hot,
		pages:     make([]map[uint32]struct{}, len(slot.Classes)),
		open:      make([]openPage, len(slot.Classes)),
		freeSlots: make([][]slot.Addr, len(slot.Classes)),
	}
}

// scanBounds returns the index bounds that enclose every object of the zone:
// its key range, or the whole index for a recovered zone with strays. The
// callers free the zone's pages wholesale afterwards, so an object the scan
// missed would be destroyed.
func (z *Zone) scanBounds() (lo, hi []byte) {
	if z.strays {
		return nil, nil
	}
	if z.hi != math.MaxUint64 {
		hi = encodeKey64(z.hi)
	}
	return encodeKey64(z.lo), hi
}

// contains reports whether key position k64 falls in the zone's range.
func (z *Zone) contains(k64 uint64) bool {
	if z.hot {
		return true
	}
	if k64 < z.lo {
		return false
	}
	if z.hi == math.MaxUint64 {
		return true
	}
	return k64 < z.hi
}

// PageCount returns the number of slot-file pages the zone owns — the
// demotion cost term (read I/Os to migrate the zone).
func (z *Zone) PageCount() int {
	n := 0
	for _, m := range z.pages {
		n += len(m)
	}
	return n
}

// Bytes returns the payload bytes stored (the demotion benefit term).
func (z *Zone) Bytes() int64 { return z.bytes }

// Objects returns the number of live objects (including tombstones).
func (z *Zone) Objects() int64 { return z.objects }

// ReadIOs returns foreground page reads since the last migration reset.
func (z *Zone) ReadIOs() int64 { return z.readIOs.Load() }

// ID returns the zone's identifier.
func (z *Zone) ID() uint32 { return z.id }

// Hot reports whether this is the partition's hot zone.
func (z *Zone) Hot() bool { return z.hot }

// Score is the §3.5 demotion metric: freed capacity over the read I/Os the
// migration costs, discounted by recent foreground reads so actively read
// zones stay resident. Higher is a better demotion victim.
func (z *Zone) Score() float64 {
	cost := float64(z.PageCount()) + float64(z.readIOs.Load())
	if cost == 0 {
		return 0
	}
	return float64(z.bytes) / cost
}

// takeSlot returns a free slot for class c, reusing freed slots, then the
// open page, then nil (caller must allocate a fresh page via addPage).
func (z *Zone) takeSlot(c int, slotsPerPage int) (slot.Addr, bool) {
	if n := len(z.freeSlots[c]); n > 0 {
		s := z.freeSlots[c][n-1]
		z.freeSlots[c] = z.freeSlots[c][:n-1]
		return s, true
	}
	op := &z.open[c]
	if op.inUse && int(op.next) < slotsPerPage {
		s := slot.Addr{Class: int8(c), Page: op.page, Slot: op.next}
		op.next++
		if int(op.next) >= slotsPerPage {
			op.inUse = false
		}
		return s, true
	}
	return slot.Addr{}, false
}

// addPage registers a freshly allocated page as the class's open page and
// returns its first slot.
func (z *Zone) addPage(c int, page uint32, slotsPerPage int) slot.Addr {
	if z.pages[c] == nil {
		z.pages[c] = make(map[uint32]struct{})
	}
	z.pages[c][page] = struct{}{}
	z.open[c] = openPage{page: page, next: 1, inUse: slotsPerPage > 1}
	return slot.Addr{Class: int8(c), Page: page}
}

// releaseSlot marks a slot reusable after its object moved or died.
func (z *Zone) releaseSlot(a slot.Addr) {
	z.freeSlots[a.Class] = append(z.freeSlots[a.Class], a)
}
