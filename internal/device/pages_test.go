package device

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// nonZeroGranules counts the 32-byte granules of a flat file image that
// hold a non-zero byte: the granules a 4 KiB page table must store.
func nonZeroGranules(model []byte) (n int64) {
	for i := 0; i < len(model); i += 32 {
		if !bytes.Equal(model[i:min(i+32, len(model))], make([]byte, min(32, len(model)-i))) {
			n++
		}
	}
	return n
}

// Fuzz op stream: records of 6 bytes, [op, a1, a0, b1, b0, fill], where a
// and b are big-endian 16-bit arguments and fill picks the content a write
// or an append carries.
const (
	ptWrite = iota
	ptAppend
	ptPunch
	ptRealloc
	ptTruncate
	ptRead
	ptOps
)

// fuzzFill returns n bytes for file offset off: all zeros, sparse single
// bytes, dense random bytes, or whole 32-byte granules set or left zero by
// the file granule's index, so a write can start and end inside a granule
// of any of these kinds.
func fuzzFill(fill byte, off, n int) []byte {
	p := make([]byte, n)
	seed := int(fill >> 2)
	switch fill & 3 {
	case 1:
		for i := range p {
			if ((off+i)*2654435761+seed)%53 == 0 {
				p[i] = byte(1 + (off+i)%255)
			}
		}
	case 2:
		rand.New(rand.NewSource(int64(fill)<<32 | int64(off))).Read(p)
		for i := range p {
			p[i] |= 1
		}
	case 3:
		for i := range p {
			if g := (off + i) / 32; (g^seed)&3 == 0 {
				p[i] = byte(g | 1)
			}
		}
	}
	return p
}

func ptRecord(op byte, a, b uint16, fill byte) []byte {
	return []byte{op, byte(a >> 8), byte(a), byte(b >> 8), byte(b), fill}
}

// FuzzPageTable runs a fuzzer-chosen stream of writes, appends, punches,
// reallocations, truncations and reads through a File and checks, after
// every op, its contents against a flat byte slice, Used and
// AllocatedPageIDs against the model's punched pages, and Held against the
// model's non-zero granules: a page stores exactly those.
func FuzzPageTable(f *testing.F) {
	var seed []byte
	// A granule written whole, then zeroed in part (the merge keeps it) and
	// then in full (dropped).
	seed = append(seed, ptRecord(ptWrite, 100, 200, 2)...)
	seed = append(seed, ptRecord(ptWrite, 130, 10, 0)...)
	seed = append(seed, ptRecord(ptWrite, 96, 64, 0)...)
	// Slots filled out of order in one page, then one erased and rewritten.
	for _, s := range []uint16{3, 0, 7, 1, 15, 8} {
		seed = append(seed, ptRecord(ptWrite, s*256, 155, byte(s)<<2|2)...)
	}
	seed = append(seed, ptRecord(ptWrite, 256, 256, 0)...)
	seed = append(seed, ptRecord(ptWrite, 250, 300, 3)...)
	seed = append(seed, ptRecord(ptRead, 0, 4096, 0)...)
	// Appends of every kind across pages, a punch, a reallocation, a write
	// into a punched page and truncations inside granules.
	for fill := byte(0); fill < 8; fill++ {
		seed = append(seed, ptRecord(ptAppend, 0, 1000+uint16(fill)*333, fill)...)
	}
	seed = append(seed, ptRecord(ptPunch, 0, 2, 0)...)
	seed = append(seed, ptRecord(ptRealloc, 0, 2, 0)...)
	seed = append(seed, ptRecord(ptPunch, 0, 3, 0)...)
	seed = append(seed, ptRecord(ptWrite, 3*4096+17, 40, 2)...)
	seed = append(seed, ptRecord(ptTruncate, 5*4096+45, 0, 0)...)
	seed = append(seed, ptRecord(ptTruncate, 4096+7, 0, 0)...)
	seed = append(seed, ptRecord(ptAppend, 0, 9000, 3)...)
	f.Add(seed)
	// Onto empty pages: a whole dense page, then a quarter of a page whose
	// granules are one in four non-zero: as much as the page reserves.
	f.Add(append(ptRecord(ptAppend, 0, 4096, 2), ptRecord(ptAppend, 0, 1024, 3)...))
	f.Add(append(ptRecord(ptWrite, 4090, 12, 2), ptRecord(ptWrite, 4093, 1, 0)...))
	f.Add(append(ptRecord(ptAppend, 0, 100, 1), ptRecord(ptTruncate, 60, 0, 0)...))

	f.Fuzz(func(t *testing.T, in []byte) {
		d := unthrottled(0)
		file, _ := d.Create("a")
		var model []byte
		punched := map[int]bool{}
		unpunch := func(off, n int) {
			for p := off / 4096; n > 0 && p <= (off+n-1)/4096; p++ {
				delete(punched, p)
			}
		}
		for step := 0; len(in) >= 6; step, in = step+1, in[6:] {
			op := in[0] % ptOps
			a, b := int(binary.BigEndian.Uint16(in[1:])), int(binary.BigEndian.Uint16(in[3:]))
			fill, pages := in[5], (len(model)+4095)/4096
			switch op {
			case ptWrite:
				off, n := a%(len(model)+4097), b%(3*4096+64)
				p := fuzzFill(fill, off, n)
				if err := file.WriteAt(p, int64(off), Fg); err != nil {
					t.Fatal(err)
				}
				unpunch(off, n)
				if off+n > len(model) {
					model = append(model, make([]byte, off+n-len(model))...)
				}
				copy(model[off:], p)
			case ptAppend:
				p := fuzzFill(fill, len(model), b%(3*4096+64))
				if _, err := file.Append(p); err != nil {
					t.Fatal(err)
				}
				unpunch(len(model), len(p))
				model = append(model, p...)
			case ptPunch:
				if pages > 0 {
					p := b % pages
					file.PunchHole(int64(p))
					clear(model[p*4096 : min(len(model), (p+1)*4096)])
					punched[p] = true
				}
			case ptRealloc:
				if pages > 0 {
					p := b % pages
					if err := file.Reallocate(int64(p)); err != nil {
						t.Fatal(err)
					}
					delete(punched, p)
				}
			case ptTruncate:
				n := a % (len(model) + 1)
				if err := file.Truncate(int64(n)); err != nil {
					t.Fatal(err)
				}
				model = model[:n:n]
				for p := range punched {
					if p >= (n+4095)/4096 {
						delete(punched, p)
					}
				}
			case ptRead:
				off := a % (len(model) + 1)
				got := make([]byte, b%(2*4096))
				n, err := file.ReadAt(got, int64(off), Fg)
				want := model[off:min(off+len(got), len(model))]
				if err != nil || n != len(want) || !bytes.Equal(got[:n], want) {
					t.Fatalf("step %d: read [%d,+%d) returned %d bytes (%v), model has %d", step, off, len(got), n, err, len(want))
				}
			}
			checkPageTable(t, step, d, file, model, punched)
		}
	})
}

// checkPageTable compares a file with its flat model: contents, size,
// ledger, allocated pages and the memory its pages store.
func checkPageTable(t *testing.T, step int, d *Device, f *File, model []byte, punched map[int]bool) {
	t.Helper()
	all := make([]byte, len(model)+1)
	if n, err := f.ReadAt(all, 0, Fg); err != nil || n != len(model) || !bytes.Equal(all[:n], model) || f.Size() != int64(len(model)) {
		t.Fatalf("step %d: file of %d bytes reads %d (%v) and differs from the %d-byte model", step, f.Size(), n, err, len(model))
	}
	pages := (len(model) + 4095) / 4096
	if want := int64(pages-len(punched)) * 4096; d.Used() != want {
		t.Fatalf("step %d: ledger holds %d bytes, want %d for %d pages less %d holes", step, d.Used(), want, pages, len(punched))
	}
	var want []int64
	for p := 0; p < pages; p++ {
		if !punched[p] {
			want = append(want, int64(p))
		}
	}
	if got := f.AllocatedPageIDs(); !slices.Equal(got, want) {
		t.Fatalf("step %d: allocated pages %v, want %v", step, got, want)
	}
	if held, want := d.Held(), nonZeroGranules(model)*32; held != want {
		t.Fatalf("step %d: device holds %d bytes, want %d for the model's non-zero granules", step, held, want)
	}
}
