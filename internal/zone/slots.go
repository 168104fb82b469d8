// Package zone implements the performance-tier data layout of §3.2: each
// partition's NVMe share is a zone group; a zone stores objects of one
// contiguous key range (ordered and non-overlapping between zones) in
// size-classed slot files; the zone mapper tracks which slot-file pages each
// zone owns; a per-partition hot zone holds tracker-identified hot objects
// with no key-range restriction. Objects smaller than a page update in
// place; resized objects relocate and erase the old slot. Access
// is at page (block) granularity, matching the device model, so the
// page-read amplification the paper analyses appears naturally.
package zone

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"hyperdb/internal/device"
)

// slot header: timestamp(8) | flags(1) | keyLen(2) | valLen(4) | crc32(4)
// The checksum covers the rest of the header plus key and value; recovery
// scans use it to distinguish live slots from freed or torn ones.
const slotHeaderSize = 19

const (
	flagTombstone = 1 << 0
)

// slotClasses are the slot sizes; an object occupies the smallest class that
// fits header+key+value. The largest class is one page.
var slotClasses = []int{64, 128, 256, 512, 1024, 2048, 4096}

// classFor returns the class index fitting need bytes, or -1 if oversized.
func classFor(need int) int {
	for i, c := range slotClasses {
		if need <= c {
			return i
		}
	}
	return -1
}

// encodeSlot writes the object into dst (len >= slotHeaderSize+len(k)+len(v)).
func encodeSlot(dst []byte, ts uint64, tombstone bool, k, v []byte) {
	binary.LittleEndian.PutUint64(dst[0:], ts)
	var flags byte
	if tombstone {
		flags |= flagTombstone
	}
	dst[8] = flags
	binary.LittleEndian.PutUint16(dst[9:], uint16(len(k)))
	binary.LittleEndian.PutUint32(dst[11:], uint32(len(v)))
	copy(dst[slotHeaderSize:], k)
	copy(dst[slotHeaderSize+len(k):], v)
	binary.LittleEndian.PutUint32(dst[15:], slotCRC(dst, len(k), len(v)))
}

// slotCRC computes the slot checksum: header fields (crc zeroed) + payload.
func slotCRC(buf []byte, kl, vl int) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(buf[:15]), crc32.IEEETable, buf[slotHeaderSize:slotHeaderSize+kl+vl])
}

// decodeSlot parses a slot, returning ts, tombstone flag, key and value
// views into buf. A checksum mismatch (freed/garbage/torn slot) errors.
func decodeSlot(buf []byte) (ts uint64, tombstone bool, k, v []byte, err error) {
	if len(buf) < slotHeaderSize {
		return 0, false, nil, nil, fmt.Errorf("zone: slot too short")
	}
	ts = binary.LittleEndian.Uint64(buf[0:])
	tombstone = buf[8]&flagTombstone != 0
	kl := int(binary.LittleEndian.Uint16(buf[9:]))
	vl := int(binary.LittleEndian.Uint32(buf[11:]))
	if slotHeaderSize+kl+vl > len(buf) {
		return 0, false, nil, nil, fmt.Errorf("zone: slot overflow kl=%d vl=%d cap=%d", kl, vl, len(buf))
	}
	if got := binary.LittleEndian.Uint32(buf[15:]); got != slotCRC(buf, kl, vl) {
		return 0, false, nil, nil, fmt.Errorf("zone: slot checksum mismatch")
	}
	k = buf[slotHeaderSize : slotHeaderSize+kl]
	v = buf[slotHeaderSize+kl : slotHeaderSize+kl+vl]
	return ts, tombstone, k, v, nil
}

// slotFile is one size class's backing file: an array of pages, each divided
// into fixed slots. Pages are allocated at the tail and recycled through a
// free list when zones migrate away.
type slotFile struct {
	f            *device.File
	slotSize     int
	pageSize     int
	slotsPerPage int
	nextPage     uint32
	freePages    []uint32
	// scratch is the reusable writeSlot encode buffer. All writers hold the
	// manager's write lock, and File.WriteAt copies before returning.
	scratch []byte
	// Aggregate fill statistics for Eq. 1 (average object size O_k).
	objects int64
	bytes   int64
}

func newSlotFile(dev *device.Device, name string, slotSize int) (*slotFile, error) {
	f, err := dev.Create(name)
	if err != nil {
		return nil, err
	}
	return wrapSlotFile(dev, f, slotSize), nil
}

// wrapSlotFile lays a size class's geometry over its backing file.
func wrapSlotFile(dev *device.Device, f *device.File, slotSize int) *slotFile {
	ps := dev.PageSize()
	spp := ps / slotSize
	if spp < 1 {
		spp = 1
	}
	return &slotFile{
		f: f, slotSize: slotSize, pageSize: ps, slotsPerPage: spp,
		scratch: make([]byte, slotSize),
	}
}

// allocPage returns a page index, reusing freed (hole-punched) pages first.
func (sf *slotFile) allocPage() (uint32, error) {
	if n := len(sf.freePages); n > 0 {
		p := sf.freePages[n-1]
		if err := sf.f.Reallocate(int64(p)); err != nil {
			return 0, err
		}
		sf.freePages = sf.freePages[:n-1]
		return p, nil
	}
	p := sf.nextPage
	// Extend the file by one page; allocation is a ledger operation, not
	// device traffic.
	if err := sf.f.EnsureAllocated(int64(p+1) * int64(sf.pageSize)); err != nil {
		return 0, err
	}
	sf.nextPage++
	return p, nil
}

// freePage returns page p to the free list and the device ledger (TRIM); it
// reads back as zeros from here on.
func (sf *slotFile) freePage(p uint32) {
	sf.freePages = append(sf.freePages, p)
	sf.f.PunchHole(int64(p))
}

// slotOffset returns the byte offset of slot s in page p.
func (sf *slotFile) slotOffset(p uint32, s uint16) int64 {
	return int64(p)*int64(sf.pageSize) + int64(s)*int64(sf.slotSize)
}

// writeSlot stores an encoded object into (page, slot), charging one random
// page write.
func (sf *slotFile) writeSlot(p uint32, s uint16, ts uint64, tombstone bool, k, v []byte, op device.Op) error {
	buf := sf.scratch
	encodeSlot(buf, ts, tombstone, k, v)
	// Zero only the tail past the payload: the encode overwrote the head,
	// and stale bytes from a previous (longer) occupant must not persist.
	for i := slotHeaderSize + len(k) + len(v); i < len(buf); i++ {
		buf[i] = 0
	}
	return sf.f.WriteAt(buf, sf.slotOffset(p, s), op)
}

// eraseSlot overwrites (page, slot) with a record that names no key, which
// readers and recovery skip: the slot an object relocated out of.
func (sf *slotFile) eraseSlot(p uint32, s uint16, op device.Op) error {
	return sf.writeSlot(p, s, 0, false, nil, nil, op)
}

// readPage fetches an entire page, charging one page read.
func (sf *slotFile) readPage(p uint32, op device.Op) ([]byte, error) {
	buf := make([]byte, sf.pageSize)
	if _, err := sf.f.ReadAt(buf, int64(p)*int64(sf.pageSize), op); err != nil {
		return nil, err
	}
	return buf, nil
}

// decodeSlotInPage parses slot s out of a previously read page buffer.
func (sf *slotFile) decodeSlotInPage(page []byte, s uint16) (ts uint64, tombstone bool, k, v []byte, err error) {
	off := int(s) * sf.slotSize
	if off+sf.slotSize > len(page) {
		return 0, false, nil, nil, fmt.Errorf("zone: slot %d beyond page", s)
	}
	return decodeSlot(page[off : off+sf.slotSize])
}
