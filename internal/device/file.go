package device

import (
	"fmt"
	"sync"
)

// File is a named byte extent on a Device. All I/O is charged at page
// granularity against the owning device — reading one byte costs a page,
// exactly the amplification effect the paper's migration analysis hinges on.
//
// Two write paths exist:
//
//   - Append + Sync: log-structured writers (WAL, SSTable builders) buffer
//     appends and pay for the dirty pages once at Sync, sequentially. This
//     models group commit and streaming table writes.
//   - WriteAt: in-place writers (zone slots) pay immediately, randomly.
type File struct {
	dev  *Device
	name string

	mu       sync.RWMutex
	buf      pageTable
	dirtyLo  int64 // first dirty byte not yet synced; -1 when clean
	dirtyHi  int64 // one past last dirty byte
	released bool
}

// AllocatedPageIDs returns the indices of all non-punched pages, in order.
// Recovery scans use it to enumerate the pages that hold live slots.
func (f *File) AllocatedPageIDs() []int64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]int64, 0, len(f.buf.pages))
	for i, c := range f.buf.pages {
		if c.held {
			out = append(out, int64(i))
		}
	}
	return out
}

// PunchHole releases the page at index pageIdx back to the device ledger
// (TRIM), and the memory its contents took with it. Like a deterministic-TRIM
// SSD, the page reads back as zeros afterwards — recovery scans must never
// see a recycled page's previous occupancy. Idempotent.
func (f *File) PunchHole(pageIdx int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.released && pageIdx >= 0 && pageIdx < int64(len(f.buf.pages)) && f.buf.pages[pageIdx].held {
		f.buf.stored -= int64(len(f.buf.pages[pageIdx].data))
		f.buf.pages[pageIdx] = chunk{}
		f.dev.freePages(1)
	}
}

// Reallocate claims back a previously punched page, failing with ErrNoSpace
// when the device is full. No-op for pages that were never punched.
func (f *File) Reallocate(pageIdx int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.released {
		return ErrClosed
	}
	if pageIdx < 0 || pageIdx >= int64(len(f.buf.pages)) || f.buf.pages[pageIdx].held {
		return nil
	}
	return f.claimLocked(pageIdx*int64(f.buf.ps), 1)
}

// Name returns the file's name on its device.
func (f *File) Name() string { return f.name }

// PageSize returns the owning device's page size, the unit ReadAt charges in.
func (f *File) PageSize() int { return f.dev.PageSize() }

// Size returns the logical length in bytes.
func (f *File) Size() int64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.buf.size
}

// AllocatedBytes returns the page-rounded on-device footprint, excluding
// punched holes.
func (f *File) AllocatedBytes() int64 {
	return int64(len(f.AllocatedPageIDs())) * int64(f.buf.ps)
}

func (f *File) pageSpan(off, n int64) (firstPage, pages int64) {
	ps := int64(f.dev.PageSize())
	firstPage = off / ps
	lastPage := (off + n - 1) / ps
	return firstPage, lastPage - firstPage + 1
}

// claimLocked zero-extends the file to off+n bytes and reallocates every
// punched page [off, off+n) touches, so a write into a TRIMmed region is
// ledger-accounted again. It books every page it adds on the ledger at once
// and changes nothing when the device is full. Caller holds mu.
func (f *File) claimLocked(off, n int64) error {
	if err := f.dev.allocPages(f.buf.missing(off, n)); err != nil {
		return err
	}
	f.buf.claim(off, n)
	return nil
}

// Append adds data to the end of the file without charging I/O; call Sync to
// persist (and pay for) the dirty tail. Returns the offset the data begins at.
func (f *File) Append(data []byte) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.released {
		return 0, ErrClosed
	}
	off := f.buf.size
	if err := f.claimLocked(off, int64(len(data))); err != nil {
		return 0, err
	}
	f.buf.writeAt(data, off)
	if len(data) > 0 {
		if f.dirtyLo < 0 {
			f.dirtyLo = off
		}
		if end := off + int64(len(data)); end > f.dirtyHi {
			f.dirtyHi = end
		}
	}
	return off, nil
}

// Sync charges a sequential write for every dirty page and marks the file
// clean. Multiple Appends coalesce into one Sync — group commit.
func (f *File) Sync(op Op) error {
	f.mu.Lock()
	if f.released {
		f.mu.Unlock()
		return ErrClosed
	}
	if f.dirtyLo < 0 || f.dirtyHi <= f.dirtyLo {
		f.dirtyLo, f.dirtyHi = -1, 0
		f.mu.Unlock()
		return nil
	}
	lo, hi := f.dirtyLo, f.dirtyHi
	if fire, torn, frac := f.dev.writeFault(); fire {
		if !torn {
			// Nothing persisted; the dirty range is untouched.
			f.mu.Unlock()
			return ErrInjected
		}
		// Torn sync: a strict page-aligned prefix of the dirty range
		// becomes durable (and is paid for); the rest stays dirty and a
		// PowerCut discards it.
		firstPage, pages := f.pageSpan(lo, hi-lo)
		keep := int64(frac * float64(pages))
		if keep >= pages {
			keep = pages - 1
		}
		if keep <= 0 {
			f.mu.Unlock()
			return ErrInjected
		}
		ps := int64(f.dev.PageSize())
		newLo := (firstPage + keep) * ps
		if newLo > hi {
			newLo = hi
		}
		f.dirtyLo = newLo
		f.mu.Unlock()
		op.Sequential = true
		f.dev.chargeWrite(sectorRound(f.dev, newLo-lo), keep, op)
		return ErrInjected
	}
	f.dirtyLo, f.dirtyHi = -1, 0
	f.mu.Unlock()

	_, pages := f.pageSpan(lo, hi-lo)
	op.Sequential = true
	f.dev.chargeWrite(sectorRound(f.dev, hi-lo), pages, op)
	return nil
}

// WriteCharge returns the write volume the device books for a write of n
// bytes: n rounded up to whole sectors.
func (d *Device) WriteCharge(n int64) int64 { return sectorRound(d, n) }

// sectorRound rounds n up to the device's write (sector) granularity.
func sectorRound(d *Device, n int64) int64 {
	s := int64(d.profile.SectorSize)
	if s <= 0 {
		s = 512
	}
	return (n + s - 1) / s * s
}

// WriteAt overwrites len(p) bytes at off, extending the file if needed, and
// charges the touched pages immediately (random write path).
func (f *File) WriteAt(p []byte, off int64, op Op) error {
	if off < 0 {
		return fmt.Errorf("device: negative offset %d", off)
	}
	f.mu.Lock()
	if f.released {
		f.mu.Unlock()
		return ErrClosed
	}
	if len(p) > 0 {
		if fire, torn, frac := f.dev.writeFault(); fire {
			keep := 0
			if torn {
				// Torn in-place write: a strict byte prefix lands.
				keep = int(frac * float64(len(p)))
				if keep >= len(p) {
					keep = len(p) - 1
				}
			}
			if keep <= 0 {
				f.mu.Unlock()
				return ErrInjected
			}
			p = p[:keep]
			if err := f.writeAtLocked(p, off, op); err != nil {
				return err
			}
			return ErrInjected
		}
	}
	return f.writeAtLocked(p, off, op)
}

// writeAtLocked applies and charges an in-place write; caller holds f.mu,
// which is released before charging.
func (f *File) writeAtLocked(p []byte, off int64, op Op) error {
	if err := f.claimLocked(off, int64(len(p))); err != nil {
		f.mu.Unlock()
		return err
	}
	f.buf.writeAt(p, off)
	f.mu.Unlock()

	if len(p) > 0 {
		// One command; write volume counts sectors, not whole pages.
		f.dev.chargeWrite(sectorRound(f.dev, int64(len(p))), 1, op)
	}
	return nil
}

// EnsureAllocated grows the file's allocation (and zero extent) to cover
// size bytes without charging any I/O — allocating fresh slot pages is a
// metadata operation, not device traffic.
func (f *File) EnsureAllocated(size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.released {
		return ErrClosed
	}
	return f.claimLocked(size, 0)
}

// ReadAt fills p from offset off and charges every page the span touches.
// Short reads at EOF return the bytes available and io.EOF semantics are
// replaced by an explicit count: n < len(p) means EOF was hit.
func (f *File) ReadAt(p []byte, off int64, op Op) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("device: negative offset %d", off)
	}
	f.mu.RLock()
	if f.released {
		f.mu.RUnlock()
		return 0, ErrClosed
	}
	if off >= f.buf.size {
		f.mu.RUnlock()
		return 0, nil
	}
	if len(p) > 0 && f.dev.readFault() {
		f.mu.RUnlock()
		return 0, ErrInjected
	}
	n := f.buf.readAt(p, off)
	f.mu.RUnlock()

	if n > 0 {
		_, pages := f.pageSpan(off, int64(n))
		f.dev.chargeRead(pages*int64(f.dev.PageSize()), pages, op)
	}
	return n, nil
}

// Truncate shrinks the file to size bytes, returning now-unused pages.
func (f *File) Truncate(size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.released {
		return ErrClosed
	}
	if size < 0 || size > f.buf.size {
		return fmt.Errorf("device: truncate size %d out of range [0,%d]", size, f.buf.size)
	}
	f.truncateLocked(size)
	return nil
}

// powerCut discards the file's dirty appended tail. Appends only ever dirty
// the tail (and Truncate clamps the window), so [dirtyLo, len(buf)) is
// exactly the unsynced region; truncating to dirtyLo restores the durable
// image.
func (f *File) powerCut() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.released || f.dirtyLo < 0 {
		return
	}
	f.truncateLocked(f.dirtyLo)
}

// truncateLocked shrinks buf to size and returns the pages it held past
// size to the ledger (punched ones are there already); caller holds f.mu and
// has validated size.
func (f *File) truncateLocked(size int64) {
	f.dev.freePages(f.buf.truncate(size))
	if f.dirtyHi > size {
		f.dirtyHi = size
	}
	if f.dirtyLo >= size {
		f.dirtyLo, f.dirtyHi = -1, 0
	}
}

// release frees all pages; called by Device.Remove.
func (f *File) release() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.released {
		return
	}
	f.released = true
	f.dev.freePages(f.buf.truncate(0))
}
