package semisst

import (
	"bytes"
	"fmt"
	"testing"

	"hyperdb/internal/device"
	"hyperdb/internal/keys"
)

func BenchmarkBuild(b *testing.B) {
	dev := newDev()
	entries := sortedEntries(10_000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, _ := dev.Create(fmt.Sprintf("b%d", i))
		if _, err := Build(f, Options{}, entries, device.Bg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGet(b *testing.B) {
	dev := newDev()
	f, _ := dev.Create("g")
	tbl, _ := Build(f, Options{}, sortedEntries(10_000, 1), device.Bg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := fmt.Sprintf("key-%05d", i%10_000)
		if _, _, found, err := tbl.Get([]byte(k), keys.MaxSeq, device.Fg); err != nil || !found {
			b.Fatal(err)
		}
	}
}

// benchEntries returns n entries of 8-byte keys and 128-byte values, the
// small objects tiered-write demotes; key i is lo + i*stride.
func benchEntries(lo, n, stride int, seq uint64) []Entry {
	val := string(bytes.Repeat([]byte("v"), 128))
	out := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, entry(fmt.Sprintf("%08d", lo+i*stride), seq+uint64(i), val))
	}
	return out
}

// BenchmarkAppendMerge times the write half of a merge: a 600 KB batch over
// the first third of a 2 MiB table, already merged with the victims it
// dirties, appended as fresh blocks with a new index and footer.
func BenchmarkAppendMerge(b *testing.B) {
	dev := newDev()
	base := benchEntries(0, 15_000, 2, 1)
	batch := benchEntries(1, 4_000, 2, 1<<20)
	b.ReportAllocs()
	var perBlock float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f, _ := dev.Create("m")
		tbl, err := Build(f, Options{}, base, device.Bg)
		if err != nil {
			b.Fatal(err)
		}
		dirty, victims := tbl.overlapping([]keys.Range{spanOf(batch)})
		existing, _, err := tbl.readRun(victims, device.Bg)
		if err != nil {
			b.Fatal(err)
		}
		merged := MergeSorted(existing, batch, false)
		b.StartTimer()
		if err := tbl.appendMerge(merged, dirty, device.Bg); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		perBlock = float64(tbl.idxBytes) / float64(tbl.NumLiveBlocks())
		dev.Remove("m")
	}
	b.ReportMetric(perBlock, "index-B/block")
}

// BenchmarkReadRun times the background run reader over a whole 2 MiB table:
// one extent, every block checksummed and decoded, keys copied to the arena.
func BenchmarkReadRun(b *testing.B) {
	f, _ := newDev().Create("r")
	tbl, err := Build(f, Options{}, benchEntries(0, 15_000, 2, 1), device.Bg)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(tbl.LiveBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if run, _, err := tbl.AllEntries(device.Bg); err != nil || len(run) != 15_000 {
			b.Fatal(len(run), err)
		}
	}
}
