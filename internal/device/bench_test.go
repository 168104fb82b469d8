package device

import (
	"math/rand"
	"testing"
)

// The micro-benchmarks drive a file the way the engines do, on an
// unthrottled 1 GiB device: a slot store writes 155-byte records (19-byte
// header, 8-byte key, 128-byte value) into 256-byte slots, 16 to a 4 KiB
// page, and a table writer appends whole pages.
const (
	benchPage   = 4096
	benchSlot   = 256
	benchRecord = 155
	benchPages  = 4096
)

var benchSink byte

func benchFile(b *testing.B) *File {
	b.Helper()
	f, err := New(UnthrottledProfile("bench", 1<<30)).Create("f")
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// benchRecords returns n slots of benchSlot bytes, each a random record of
// benchRecord bytes and zeros after it, as a slot store writes them.
func benchRecords(rng *rand.Rand, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, benchSlot)
		rng.Read(out[i][:benchRecord])
	}
	return out
}

// fillSlots writes a record into every slot of pages [0, pages).
func fillSlots(b *testing.B, f *File, rng *rand.Rand, pages int) {
	b.Helper()
	recs := benchRecords(rng, 64)
	for s := 0; s < pages*benchPage/benchSlot; s++ {
		if err := f.WriteAt(recs[s%len(recs)], int64(s*benchSlot), Fg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSlotInsert fills fresh pages slot by slot: each page is punched
// and reallocated before its first slot is written, as a slot store does
// with a page it frees and takes back.
func BenchmarkSlotInsert(b *testing.B) {
	f := benchFile(b)
	if err := f.EnsureAllocated(benchPages * benchPage); err != nil {
		b.Fatal(err)
	}
	recs := benchRecords(rand.New(rand.NewSource(1)), 64)
	perPage := benchPage / benchSlot
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		page, slot := int64(i/perPage%benchPages), i%perPage
		if slot == 0 {
			f.PunchHole(page)
			if err := f.Reallocate(page); err != nil {
				b.Fatal(err)
			}
		}
		if err := f.WriteAt(recs[i%len(recs)], page*benchPage+int64(slot*benchSlot), Fg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSlotUpdate rewrites a random slot of full pages with a record of
// the same size and reads the slot back.
func BenchmarkSlotUpdate(b *testing.B) {
	f := benchFile(b)
	rng := rand.New(rand.NewSource(2))
	fillSlots(b, f, rng, benchPages)
	recs := benchRecords(rng, 64)
	slots := make([]int64, 1<<16)
	for i := range slots {
		slots[i] = int64(rng.Intn(benchPages*benchPage/benchSlot)) * benchSlot
	}
	buf := make([]byte, benchSlot)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := slots[i%len(slots)]
		if err := f.WriteAt(recs[i%len(recs)], off, Fg); err != nil {
			b.Fatal(err)
		}
		if _, err := f.ReadAt(buf, off, Fg); err != nil {
			b.Fatal(err)
		}
		benchSink ^= buf[0]
	}
}

// BenchmarkAppend appends dense 4 KiB pages and syncs each, starting over
// at 64 MiB.
func BenchmarkAppend(b *testing.B) {
	f := benchFile(b)
	data := make([]byte, benchPage)
	rand.New(rand.NewSource(3)).Read(data)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f.Size() >= 64<<20 {
			if err := f.Truncate(0); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := f.Append(data); err != nil {
			b.Fatal(err)
		}
		if err := f.Sync(Fg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPageRead reads whole random pages: dense pages of random bytes,
// and sparse ones that hold a record in each slot.
func BenchmarkPageRead(b *testing.B) {
	for _, tc := range []struct {
		name string
		fill func(b *testing.B, f *File, rng *rand.Rand)
	}{
		{"dense", func(b *testing.B, f *File, rng *rand.Rand) {
			data := make([]byte, benchPages*benchPage)
			rng.Read(data)
			if err := f.WriteAt(data, 0, Fg); err != nil {
				b.Fatal(err)
			}
		}},
		{"sparse", func(b *testing.B, f *File, rng *rand.Rand) { fillSlots(b, f, rng, benchPages) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			f := benchFile(b)
			rng := rand.New(rand.NewSource(4))
			tc.fill(b, f, rng)
			pages := make([]int64, 1<<16)
			for i := range pages {
				pages[i] = int64(rng.Intn(benchPages)) * benchPage
			}
			buf := make([]byte, benchPage)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.ReadAt(buf, pages[i%len(pages)], Fg); err != nil {
					b.Fatal(err)
				}
				benchSink ^= buf[i%benchPage]
			}
		})
	}
}
