// Package slot is the on-device object format both NVMe object stores
// share: HyperDB's zone tier (internal/zone) and the PrismDB-style
// baseline's slab store (internal/baseline/prismish). An object occupies one
// fixed-size slot of a size-classed slot file, whose pages are device pages
// divided into slots. The package owns the record codec, the class table,
// the per-class file (page allocation, slot writes, page reads), the
// named-version check every reader applies, the fetch-once page set, the
// batch reader and the recovery scan. Which page and slot an object goes to
// is the caller's placement policy.
package slot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"sync"

	"hyperdb/internal/device"
)

// HeaderSize is a record's header: seq(8) | flags(1) | keyLen(2) |
// valLen(4) | crc32(4). The checksum covers the rest of the header plus key
// and value, so a scan tells a persisted slot from a freed, torn or
// never-written one — an all-zero slot fails it (the CRC of zero bytes is
// non-zero).
const HeaderSize = 19

const flagTombstone = 1 << 0

// Classes are the slot sizes; an object occupies the smallest class that
// fits header+key+value. The largest class is one page.
var Classes = []int{64, 128, 256, 512, 1024, 2048, 4096}

// ClassFor returns the class index fitting need bytes, or -1 if oversized.
func ClassFor(need int) int {
	for i, c := range Classes {
		if need <= c {
			return i
		}
	}
	return -1
}

// Record is a decoded slot. A record with no key is erased: the slot an
// object relocated out of, which readers and the scan skip.
type Record struct {
	Seq   uint64
	Tomb  bool
	Key   []byte
	Value []byte
}

// Size is the bytes the record occupies in its slot.
func (r Record) Size() int32 { return int32(HeaderSize + len(r.Key) + len(r.Value)) }

// Encode writes the record into dst (len >= HeaderSize+len(k)+len(v)).
func Encode(dst []byte, seq uint64, tomb bool, k, v []byte) {
	binary.LittleEndian.PutUint64(dst[0:], seq)
	var flags byte
	if tomb {
		flags |= flagTombstone
	}
	dst[8] = flags
	binary.LittleEndian.PutUint16(dst[9:], uint16(len(k)))
	binary.LittleEndian.PutUint32(dst[11:], uint32(len(v)))
	copy(dst[HeaderSize:], k)
	copy(dst[HeaderSize+len(k):], v)
	binary.LittleEndian.PutUint32(dst[15:], checksum(dst, len(k), len(v)))
}

// checksum is the slot CRC: header fields (crc excluded) + payload.
func checksum(buf []byte, kl, vl int) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(buf[:15]), crc32.IEEETable, buf[HeaderSize:HeaderSize+kl+vl])
}

// Addr names one slot of a store.
type Addr struct {
	Page  uint32
	Slot  uint16
	Class int8
}

// File is one size class's backing file: an array of pages, each divided
// into fixed slots. Pages are allocated at the tail and recycled through a
// free list when a store hands them back.
type File struct {
	f            *device.File
	slotSize     int
	pageSize     int
	slotsPerPage int
	nextPage     uint32
	freePages    []uint32
	// scratch is the reusable Write encode buffer: every writer holds its
	// store's write lock, and device.File.WriteAt copies before returning.
	scratch []byte
}

// SlotSize is the class's slot size in bytes.
func (f *File) SlotSize() int { return f.slotSize }

// SlotsPerPage is how many slots one page holds.
func (f *File) SlotsPerPage() int { return f.slotsPerPage }

// Pages is the number of pages the file spans, freed ones included.
func (f *File) Pages() uint32 { return f.nextPage }

// AllocPage returns a page index, reusing freed (hole-punched) pages first.
func (f *File) AllocPage() (uint32, error) {
	if n := len(f.freePages); n > 0 {
		p := f.freePages[n-1]
		if err := f.f.Reallocate(int64(p)); err != nil {
			return 0, err
		}
		f.freePages = f.freePages[:n-1]
		return p, nil
	}
	p := f.nextPage
	// Extend the file by one page; allocation is a ledger operation, not
	// device traffic.
	if err := f.f.EnsureAllocated(int64(p+1) * int64(f.pageSize)); err != nil {
		return 0, err
	}
	f.nextPage++
	return p, nil
}

// FreePage returns page p to the free list and the device ledger (TRIM); it
// reads back as zeros from here on.
func (f *File) FreePage(p uint32) {
	f.freePages = append(f.freePages, p)
	f.f.PunchHole(int64(p))
}

func (f *File) offset(p uint32, s uint16) int64 {
	return int64(p)*int64(f.pageSize) + int64(s)*int64(f.slotSize)
}

// Write stores an encoded record into (page, slot), charging one random
// write. Caller holds the store's write lock.
func (f *File) Write(p uint32, s uint16, seq uint64, tomb bool, k, v []byte, op device.Op) error {
	buf := f.scratch
	Encode(buf, seq, tomb, k, v)
	// Zero only the tail past the payload: the encode overwrote the head,
	// and stale bytes from a previous (longer) occupant must not persist.
	clear(buf[HeaderSize+len(k)+len(v):])
	return f.f.WriteAt(buf, f.offset(p, s), op)
}

// Erase overwrites (page, slot) with a record that names no key.
func (f *File) Erase(p uint32, s uint16, op device.Op) error {
	return f.Write(p, s, 0, false, nil, nil, op)
}

// WriteRun writes b, whole encoded slots, to the adjacent slots from
// (page, slot) on with one device write.
func (f *File) WriteRun(b []byte, p uint32, s uint16, op device.Op) error {
	return f.f.WriteAt(b, f.offset(p, s), op)
}

// ReadPage reads page p into a fresh buffer: one page read.
func (f *File) ReadPage(p uint32, op device.Op) ([]byte, error) {
	return f.readPage(make([]byte, f.pageSize), p, op)
}

// readPage reads page p into buf, a page long, zeroing what lies past the
// file's end: buf may hold another page's bytes.
func (f *File) readPage(buf []byte, p uint32, op device.Op) ([]byte, error) {
	n, err := f.f.ReadAt(buf, int64(p)*int64(f.pageSize), op)
	if err != nil {
		return nil, err
	}
	clear(buf[n:])
	return buf, nil
}

// ReadSlot reads slot s of page p alone into a fresh buffer, slot 0 to
// Decode. The device books it as ReadPage: one read of one page.
func (f *File) ReadSlot(p uint32, s uint16, op device.Op) ([]byte, error) {
	buf := make([]byte, f.slotSize)
	if _, err := f.f.ReadAt(buf, f.offset(p, s), op); err != nil {
		return nil, err
	}
	return buf, nil
}

// Decode parses slot s of page; key and value are views into page. A slot
// past the page, a checksum mismatch (freed, garbage or torn slot) or an
// unknown flag errors.
func (f *File) Decode(page []byte, s uint16) (Record, error) {
	off := int(s) * f.slotSize
	if off+f.slotSize > len(page) {
		return Record{}, fmt.Errorf("slot: slot %d beyond page", s)
	}
	buf := page[off : off+f.slotSize]
	kl := int(binary.LittleEndian.Uint16(buf[9:]))
	vl := int(binary.LittleEndian.Uint32(buf[11:]))
	if HeaderSize+kl+vl > len(buf) {
		return Record{}, fmt.Errorf("slot: record overflow kl=%d vl=%d cap=%d", kl, vl, len(buf))
	}
	if got := binary.LittleEndian.Uint32(buf[15:]); got != checksum(buf, kl, vl) {
		return Record{}, fmt.Errorf("slot: checksum mismatch")
	}
	if buf[8]&^flagTombstone != 0 { // so every record re-encodes to its bytes
		return Record{}, fmt.Errorf("slot: unknown flags %#x", buf[8])
	}
	return Record{
		Seq:   binary.LittleEndian.Uint64(buf[0:]),
		Tomb:  buf[8]&flagTombstone != 0,
		Key:   buf[HeaderSize : HeaderSize+kl],
		Value: buf[HeaderSize+kl : HeaderSize+kl+vl],
	}, nil
}

// Named is the one rule by which a reader trusts a slot: slot s of page is
// the version an index entry named iff it holds key at seq, and it answers
// with a value only if that version is live. Slots are rewritten in place,
// so the key alone proves nothing. The value is a view into page.
func (f *File) Named(page []byte, s uint16, key []byte, seq uint64) ([]byte, bool) {
	r, err := f.Decode(page, s)
	if err != nil || r.Tomb || r.Seq != seq || !bytes.Equal(r.Key, key) {
		return nil, false
	}
	return r.Value, true
}

// Files is a store's slot files, one per entry of Classes.
type Files []*File

// Open opens the class files named prefix followed by the class size on
// dev, creating the ones that do not exist. An existing file keeps its
// pages: its tail is where it ends, and its holes are its free pages.
func Open(dev *device.Device, prefix string) (Files, error) {
	ps := dev.PageSize()
	fs := make(Files, len(Classes))
	for i, size := range Classes {
		name := fmt.Sprintf("%s%d", prefix, size)
		df, err := dev.Open(name)
		if err != nil {
			if df, err = dev.Create(name); err != nil {
				return nil, err
			}
		}
		f := &File{
			f: df, slotSize: size, pageSize: ps, slotsPerPage: max(ps/size, 1),
			nextPage: uint32(df.Size() / int64(ps)),
			scratch:  make([]byte, size),
		}
		alloc := df.AllocatedPageIDs()
		for p := uint32(0); p < f.nextPage; p++ {
			if _, ok := slices.BinarySearch(alloc, int64(p)); !ok {
				f.freePages = append(f.freePages, p)
			}
		}
		fs[i] = f
	}
	return fs, nil
}

// Pages is the pages of one store a reader has fetched, by class and page,
// so that it reads each at most once. A nil Pages keeps none.
type Pages map[Addr][]byte

// Held returns the page holding slot a, if ps has it.
func (ps Pages) Held(a Addr) ([]byte, bool) {
	page, ok := ps[Addr{Class: a.Class, Page: a.Page}]
	return page, ok
}

// Fetch reads the page holding slot a, one page read, and keeps it in ps.
// A nil Pages keeps nothing, so it reads the slot alone (File.ReadSlot). s
// is the slot's index in what it returns.
func (ps Pages) Fetch(fs Files, a Addr, op device.Op) (buf []byte, s uint16, err error) {
	f := fs[a.Class]
	if ps == nil {
		buf, err = f.ReadSlot(a.Page, a.Slot, op)
		return buf, 0, err
	}
	if f.pageSize == len(pooledPage{}) {
		buf = pagePool.Get().(*pooledPage)[:]
	} else {
		buf = make([]byte, f.pageSize)
	}
	if buf, err = f.readPage(buf, a.Page, op); err == nil {
		ps[Addr{Class: a.Class, Page: a.Page}] = buf
	}
	return buf, a.Slot, err
}

// pooledPage is the page size of every device profile. Fetch reads into
// arrays of it that Release gave back, held by pointer so that giving one
// back allocates nothing; pages of other sizes are not pooled.
type pooledPage [4096]byte

var pagePool = sync.Pool{New: func() any { return new(pooledPage) }}

// Release gives ps's pages back for later Fetches to read into, and empties
// ps. Nothing may use a page or a view into one after.
func (ps Pages) Release() {
	for a, page := range ps {
		if len(page) == len(pooledPage{}) {
			pagePool.Put((*pooledPage)(page))
		}
		delete(ps, a)
	}
}

// ReadBatch reads the slots at(0) … at(n-1) name, fetching each distinct
// page once as a background read however many of the slots sit on it, and
// hands fn each decoded record — key and value are views into the page — or
// the slot's decode error, in order. It stops at the first device error or
// error fn returns. pages is the number of pages fetched.
func (fs Files) ReadBatch(n int, at func(i int) Addr, fn func(i int, r Record, err error) error) (pages int, err error) {
	fetched := make(Pages)
	for i := 0; i < n; i++ {
		a := at(i)
		page, ok := fetched.Held(a)
		if !ok {
			if page, _, err = fetched.Fetch(fs, a, device.Bg); err != nil {
				return len(fetched), err
			}
		}
		r, derr := fs[a.Class].Decode(page, a.Slot)
		if err := fn(i, r, derr); err != nil {
			return len(fetched), err
		}
	}
	return len(fetched), nil
}

// Scan is the recovery scan: it visits every checksummed record that names
// a key, on every allocated page, in (class, page, slot) order, reading each
// page once as a background sequential read. The record is valid only during
// the call. It returns the largest sequence it visited.
func (fs Files) Scan(fn func(a Addr, r Record)) (maxSeq uint64, err error) {
	for c, f := range fs {
		page := make([]byte, f.pageSize)
		for _, p := range f.f.AllocatedPageIDs() {
			n, err := f.f.ReadAt(page, p*int64(f.pageSize), device.BgSeq)
			if err != nil {
				return 0, err
			}
			clear(page[n:])
			for s := 0; s < f.slotsPerPage; s++ {
				r, err := f.Decode(page, uint16(s))
				if err != nil || len(r.Key) == 0 {
					continue // freed, torn, never written or erased
				}
				maxSeq = max(maxSeq, r.Seq)
				fn(Addr{Class: int8(c), Page: uint32(p), Slot: uint16(s)}, r)
			}
		}
	}
	return maxSeq, nil
}
