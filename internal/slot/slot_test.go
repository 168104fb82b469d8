package slot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"runtime"
	"testing"

	"hyperdb/internal/device"
)

func newDev() *device.Device { return device.New(device.UnthrottledProfile("nvme", 0)) }

// TestSlotCRCMatchesStreamingHash pins the slot checksum to the formula every
// slot already on a device was written with (a streaming IEEE hash fed the
// 15 header bytes, then the payload), at every payload size a slot can hold:
// a slot persisted by either NVMe store, before the checksum stopped
// allocating a hash.Hash32, must still decode.
func TestSlotCRCMatchesStreamingHash(t *testing.T) {
	buf := make([]byte, 4096)
	rand.New(rand.NewSource(20)).Read(buf)
	for n := 0; n <= len(buf)-HeaderSize; n++ {
		kl := n % 9
		h := crc32.NewIEEE()
		h.Write(buf[:15])
		h.Write(buf[HeaderSize : HeaderSize+n])
		if got, want := checksum(buf, kl, n-kl), h.Sum32(); got != want {
			t.Fatalf("payload %d: checksum %08x, streaming hash %08x", n, got, want)
		}
	}
}

// TestOpenKeepsTailAndFreePages: a reopened store allocates where the old
// one left off, reusing the pages it freed before fresh ones.
func TestOpenKeepsTailAndFreePages(t *testing.T) {
	dev := newDev()
	fs, err := Open(dev, "s")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := fs[1].AllocPage(); err != nil {
			t.Fatal(err)
		}
	}
	fs[1].FreePage(1)
	fs[1].FreePage(2)
	re, err := Open(dev, "s")
	if err != nil {
		t.Fatal(err)
	}
	if re[1].Pages() != 4 || re[0].Pages() != 0 {
		t.Fatalf("reopened with %d and %d pages, want 4 and 0", re[1].Pages(), re[0].Pages())
	}
	var got []uint32
	for i := 0; i < 3; i++ {
		p, err := re[1].AllocPage()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, p)
	}
	if got[0]+got[1] != 3 || got[2] != 4 {
		t.Fatalf("reopened store allocated pages %v, want 1 and 2, then 4", got)
	}
}

// TestReadBatchFetchesEachPageOnce: a batch over slots of two pages costs
// two device reads, and every slot answers with its record in batch order.
func TestReadBatchFetchesEachPageOnce(t *testing.T) {
	dev := newDev()
	fs, err := Open(dev, "s")
	if err != nil {
		t.Fatal(err)
	}
	var addrs []Addr
	for p := uint32(0); p < 2; p++ {
		if _, err := fs[0].AllocPage(); err != nil {
			t.Fatal(err)
		}
		for s := uint16(0); s < 64; s += 3 {
			if err := fs[0].Write(p, s, uint64(s), false, []byte{byte(p), byte(s)}, nil, device.Fg); err != nil {
				t.Fatal(err)
			}
			addrs = append(addrs, Addr{Page: p, Slot: s})
		}
	}
	reads := dev.Counters().ReadOps.Load()
	var keys [][]byte
	pages, err := fs.ReadBatch(len(addrs), func(i int) Addr { return addrs[i] }, func(i int, r Record, err error) error {
		keys = append(keys, r.Key)
		return err
	})
	if err != nil || pages != 2 || dev.Counters().ReadOps.Load()-reads != 2 {
		t.Fatalf("batch of %d slots: %d pages, %d device reads (%v), want 2", len(addrs), pages, dev.Counters().ReadOps.Load()-reads, err)
	}
	for i, a := range addrs {
		if !bytes.Equal(keys[i], []byte{byte(a.Page), byte(a.Slot)}) {
			t.Fatalf("slot %+v answered key %x", a, keys[i])
		}
	}
}

// TestReleasedPagesAreReused: a memo's pages go back on Release, so a scan
// that fetches a page and releases its memo allocates no page — counted over
// many rounds and divided in floating point — and a page fetched into a
// recycled buffer reads as the device has it, whatever the buffer held.
func TestReleasedPagesAreReused(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	dev := newDev()
	fs, err := Open(dev, "s")
	if err != nil {
		t.Fatal(err)
	}
	for p := uint32(0); p < 2; p++ {
		if _, err := fs[0].AllocPage(); err != nil {
			t.Fatal(err)
		}
		if err := fs[0].Write(p, 0, 1, false, []byte{byte(p)}, nil, device.Fg); err != nil {
			t.Fatal(err)
		}
	}
	want := make([][]byte, 2)
	for p := range want {
		if want[p], err = fs[0].ReadPage(uint32(p), device.Fg); err != nil {
			t.Fatal(err)
		}
	}
	memo := make(Pages)
	fetch := func(i int) {
		buf, _, err := memo.Fetch(fs, Addr{Page: uint32(i % 2)}, device.Fg)
		if err != nil || !bytes.Equal(buf, want[i%2]) {
			t.Fatalf("round %d: page %d reads %d bytes unlike the device's, %v", i, i%2, len(buf), err)
		}
		memo.Release()
	}
	fetch(0) // the map's first insert
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const rounds = 1000
	for i := 0; i < rounds; i++ {
		fetch(i)
	}
	runtime.ReadMemStats(&after)
	if a := float64(after.Mallocs-before.Mallocs) / rounds; a >= 0.05 {
		t.Fatalf("Fetch then Release: %.3f allocations per page, want 0", a)
	}
	if len(memo) != 0 {
		t.Fatalf("Release left %d pages in the memo", len(memo))
	}
}

// FuzzScan lays arbitrary bytes over the pages of one slot file and runs
// the recovery scan, the batch reader and the named check over them. None
// may panic. The scan must yield exactly the slots that decode to a record
// naming a key, in (page, slot) order; every record it yields must
// re-encode to the bytes it was decoded from; the batch reader must decode
// each slot as the scan's page reader does; and the named check must answer
// with a record's value exactly when the record decodes, at its key and
// sequence, and is not a tombstone.
func FuzzScan(f *testing.F) {
	page := make([]byte, 4096)
	for s := 0; s < 4096/256; s++ {
		k := binary.BigEndian.AppendUint64(nil, uint64(s))
		switch s % 4 {
		case 0:
			Encode(page[s*256:], uint64(s), false, k, bytes.Repeat([]byte{byte(s)}, s*10))
		case 1:
			Encode(page[s*256:], uint64(s), true, k, nil)
		case 2:
			Encode(page[s*256:], 0, false, nil, nil) // erased
		}
	}
	f.Add(byte(2), page)
	torn := bytes.Clone(page)
	torn[256+HeaderSize] ^= 1
	f.Add(byte(2), torn)
	f.Add(byte(0), page[:1000])
	f.Add(byte(6), []byte{})
	f.Fuzz(fuzzBody)
}

func fuzzBody(t *testing.T, class byte, img []byte) {
	c := int(class) % len(Classes)
	if len(img) > 3*4096 {
		img = img[:3*4096]
	}
	dev := newDev()
	fs, err := Open(dev, "s")
	if err != nil {
		t.Fatal(err)
	}
	sf := fs[c]
	for int(sf.Pages())*sf.pageSize < len(img) {
		if _, err := sf.AllocPage(); err != nil {
			t.Fatal(err)
		}
	}
	if err := sf.f.WriteAt(img, 0, device.Fg); err != nil {
		t.Fatal(err)
	}
	if fs, err = Open(dev, "s"); err != nil {
		t.Fatal(err)
	}
	sf = fs[c]
	pageOf := func(p uint32) []byte {
		b := make([]byte, sf.pageSize)
		copy(b, img[min(int(p)*sf.pageSize, len(img)):])
		return b
	}

	type visit struct {
		a     Addr
		image []byte // the record's bytes as the scan read them
	}
	var got []visit
	if _, err := fs.Scan(func(a Addr, r Record) {
		b := make([]byte, r.Size())
		Encode(b, r.Seq, r.Tomb, r.Key, r.Value)
		got = append(got, visit{a, b})
	}); err != nil {
		t.Fatal(err)
	}

	var want []visit
	var addrs []Addr
	var decoded []Record
	var errs []error
	for p := uint32(0); p < sf.Pages(); p++ {
		page := pageOf(p)
		for s := uint16(0); int(s) < sf.slotsPerPage; s++ {
			a := Addr{Class: int8(c), Page: p, Slot: s}
			raw := page[int(s)*sf.slotSize : (int(s)+1)*sf.slotSize]
			r, err := sf.Decode(page, s)
			addrs, decoded, errs = append(addrs, a), append(decoded, r), append(errs, err)
			if err == nil && len(r.Key) > 0 {
				want = append(want, visit{a, raw[:r.Size()]})
			}

			// The named check, at the record's own key and sequence, at
			// another sequence, and at whatever the header claims when
			// the slot does not decode.
			key, seq := r.Key, r.Seq
			if err != nil {
				seq = binary.LittleEndian.Uint64(raw)
				kl := min(int(binary.LittleEndian.Uint16(raw[9:])), len(raw)-HeaderSize)
				key = raw[HeaderSize : HeaderSize+kl]
			}
			v, ok := sf.Named(page, s, key, seq)
			if wantOK := err == nil && !r.Tomb; ok != wantOK || (ok && !bytes.Equal(v, r.Value)) {
				t.Fatalf("slot %+v: named check (%x, %v), decode (%+v, %v)", a, v, ok, r, err)
			}
			if _, ok := sf.Named(page, s, key, seq+1); ok {
				t.Fatalf("slot %+v: named check accepted sequence %d for a record at %d", a, seq+1, seq)
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("scan visited %d slots, %d decode to a keyed record", len(got), len(want))
	}
	for i := range got {
		if got[i].a != want[i].a || !bytes.Equal(got[i].image, want[i].image) {
			t.Fatalf("visit %d: scan %+v re-encodes to %x, decode %+v read %x", i, got[i].a, got[i].image, want[i].a, want[i].image)
		}
	}

	if _, err := fs.ReadBatch(len(addrs), func(i int) Addr { return addrs[i] }, func(i int, r Record, err error) error {
		if (err == nil) != (errs[i] == nil) || r.Seq != decoded[i].Seq || r.Tomb != decoded[i].Tomb ||
			!bytes.Equal(r.Key, decoded[i].Key) || !bytes.Equal(r.Value, decoded[i].Value) {
			t.Fatalf("slot %+v: batch read (%+v, %v), page read (%+v, %v)", addrs[i], r, err, decoded[i], errs[i])
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
