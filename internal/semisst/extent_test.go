package semisst

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"hyperdb/internal/cache"
	"hyperdb/internal/compress"
	"hyperdb/internal/device"
	"hyperdb/internal/keys"
)

// bgReads returns the device's background read ops and bytes so far.
func bgReads(dev *device.Device) (ops, bytes uint64) {
	c := dev.Counters()
	return c.BgReadOps.Load(), c.BgReadBytes.Load()
}

// checkRun compares a run against the first n sortedEntries.
func checkRun(t *testing.T, got []Entry, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("run has %d entries, want %d", len(got), n)
	}
	for i, e := range got {
		k := fmt.Sprintf("key-%05d", i)
		if string(e.Key.User) != k || string(e.Value) != "val-"+k || e.Key.Seq != uint64(1+i) || e.Key.Kind != keys.KindSet {
			t.Fatalf("entry %d = %s/%q, want %s", i, e.Key, e.Value, k)
		}
	}
}

func TestExtentAdjacentBlocksCoalesce(t *testing.T) {
	dev := newDev()
	f, _ := dev.Create("s1")
	tbl, _ := Build(f, Options{}, sortedEntries(2000, 1), device.Bg)
	metas := tbl.LiveBlockMetas()
	if len(metas) < 8 {
		t.Fatalf("only %d blocks", len(metas))
	}
	ops0, bytes0 := bgReads(dev)
	got, charged, err := tbl.AllEntries(device.Bg)
	if err != nil {
		t.Fatal(err)
	}
	checkRun(t, got, 2000)
	ops1, bytes1 := bgReads(dev)
	if ops1-ops0 != 1 {
		t.Fatalf("%d adjacent blocks cost %d reads, want one extent", len(metas), ops1-ops0)
	}
	last := metas[len(metas)-1].Handle
	wantPages := (last.Offset+last.Size-1)/4096 + 1
	if uint64(charged) != bytes1-bytes0 || uint64(charged) != wantPages*4096 {
		t.Fatalf("charged %d, device counted %d, data spans %d pages", charged, bytes1-bytes0, wantPages)
	}
}

func TestExtentSplitsAtOnePageGap(t *testing.T) {
	dev := newDev()
	f, _ := dev.Create("s1")
	// ~1 KiB blocks, so a skipped block is a gap under one page.
	tbl, _ := Build(f, Options{BlockSize: 1024}, sortedEntries(2000, 1), device.Bg)
	metas := tbl.LiveBlockMetas()
	gap := func(a, b int) uint64 { return metas[b].Handle.Offset - (metas[a].Handle.Offset + metas[a].Handle.Size) }
	for _, tc := range []struct {
		name    string
		pick    []int
		extents uint64
	}{
		{"gap under a page joins", []int{0, 2}, 1},
		{"gap of a page or more splits", []int{0, 8}, 2},
		{"three runs", []int{0, 1, 10, 11, 12, 30}, 3},
	} {
		var run []BlockMeta
		entries := 0
		for _, i := range tc.pick {
			run = append(run, metas[i])
			entries += metas[i].Entries
		}
		if g := gap(tc.pick[0], tc.pick[1]); (g < 4096) != (tc.extents == 1) && len(tc.pick) == 2 {
			t.Fatalf("%s: test geometry is off, gap = %d", tc.name, g)
		}
		ops0, bytes0 := bgReads(dev)
		got, charged, err := tbl.readRun(run, device.Bg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ops1, bytes1 := bgReads(dev)
		if ops1-ops0 != tc.extents {
			t.Fatalf("%s: %d reads, want %d extents", tc.name, ops1-ops0, tc.extents)
		}
		if uint64(charged) != bytes1-bytes0 {
			t.Fatalf("%s: reported %d bytes, device charged %d", tc.name, charged, bytes1-bytes0)
		}
		if len(got) != entries || string(got[0].Key.User) != string(run[0].First) || string(got[len(got)-1].Key.User) != string(run[len(run)-1].Last) {
			t.Fatalf("%s: run of %d entries %q..%q", tc.name, len(got), got[0].Key.User, got[len(got)-1].Key.User)
		}
	}
}

// TestExtentMixedFormats reads raw and LZ-tagged blocks out of one extent.
func TestExtentMixedFormats(t *testing.T) {
	dev := newDev()
	f, _ := dev.Create("s1")
	opts := Options{BlockSize: 512}
	tbl, err := Build(f, opts, compressibleEntries(12, 1), device.Bg)
	if err != nil {
		t.Fatal(err)
	}
	// The codec turns on; a disjoint merge appends tagged blocks after the
	// raw ones, the small superseded index between them.
	tbl.opts.Codec = compress.LZ
	pad := strings.Repeat("tail-padding-tail-padding-", 8)
	var newer []Entry
	for i := 0; i < 12; i++ {
		k := fmt.Sprintf("zkey-%05d", i)
		newer = append(newer, entry(k, 100+uint64(i), pad+k))
	}
	if _, err := tbl.Merge(newer, false, device.Bg); err != nil {
		t.Fatal(err)
	}
	var raw, tagged int
	for _, bm := range tbl.LiveBlockMetas() {
		if bm.Tagged {
			tagged++
		} else {
			raw++
		}
	}
	if raw < 2 || tagged < 2 {
		t.Fatalf("want several blocks of each format, got raw=%d tagged=%d", raw, tagged)
	}
	ops0, _ := bgReads(dev)
	got, _, err := tbl.AllEntries(device.Bg)
	if err != nil {
		t.Fatal(err)
	}
	if ops1, _ := bgReads(dev); ops1-ops0 != 1 {
		t.Fatalf("mixed-format table read as %d extents, want 1", ops1-ops0)
	}
	if len(got) != 24 {
		t.Fatalf("read %d entries, want 24", len(got))
	}
	for i, e := range got {
		k := fmt.Sprintf("key-%05d", i)
		if i >= 12 {
			k = fmt.Sprintf("zkey-%05d", i-12)
		}
		if string(e.Key.User) != k || !strings.HasSuffix(string(e.Value), k) {
			t.Fatalf("entry %d = %q/%q, want key %s", i, e.Key.User, e.Value, k)
		}
	}
}

// tableState is what a failed merge must leave untouched.
type tableState struct {
	file, stale int64
	entries     int
}

func stateOf(t *Table) tableState {
	return tableState{t.FileBytes(), t.StaleBytes(), t.NumEntries()}
}

// TestExtentCorruptBlockFailsClosed damages one block in the middle of an
// extent: the merge that reads it errors and the table is as it was. Every
// block is caught by its index checksum before it is decoded, wherever the
// damage sits — the middle of a raw block is value bytes, which nothing
// else covers.
func TestExtentCorruptBlockFailsClosed(t *testing.T) {
	for _, tc := range []struct {
		codec  compress.Codec
		middle bool // else 3 bytes in: the first key
	}{{compress.LZ, true}, {compress.None, false}, {compress.None, true}} {
		codec := tc.codec
		dev := newDev()
		f, _ := dev.Create("s1")
		pc := cache.NewLRU(1<<20, nil)
		tbl, err := Build(f, Options{Codec: codec, PageCache: pc}, compressibleEntries(400, 1), device.Bg)
		if err != nil {
			t.Fatal(err)
		}
		metas := tbl.LiveBlockMetas()
		bm := metas[len(metas)/2]
		off := int64(bm.Handle.Offset) + 3
		if tc.middle {
			off = int64(bm.Handle.Offset) + int64(bm.Handle.Size)/2
		}
		if err := f.WriteAt([]byte{0xde, 0xad, 0xbe, 0xef}, off, device.Fg); err != nil {
			t.Fatal(err)
		}
		before := stateOf(tbl)
		incoming := []Entry{entry("key-00000", 9000, "a"), entry("key-00399", 9001, "z")}
		if _, err := tbl.Merge(incoming, false, device.Bg); err == nil {
			t.Fatalf("%+v: merge over a corrupted block succeeded", tc)
		}
		if _, _, err := tbl.AllEntries(device.Bg); err == nil {
			t.Fatalf("%+v: full read over a corrupted block succeeded", tc)
		}
		moved := false
		if _, err := tbl.ExtractOverlapping([]keys.Range{bm.Range()}, device.Bg, func([]Entry) error { moved = true; return nil }); err == nil || moved {
			t.Fatalf("%+v: carve-out handed on a corrupted block (err=%v)", tc, err)
		}
		if after := stateOf(tbl); after != before {
			t.Fatalf("%+v: failed reads changed the table: %+v -> %+v", tc, before, after)
		}
		if err := tbl.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		// A foreground read of the damaged block is neither served nor cached.
		if v, _, found, err := tbl.Get(bm.Last, keys.MaxSeq, device.Fg); err == nil || found || v != nil || pc.Usage().Entries != 0 {
			t.Fatalf("%+v: get inside the damage: %q %v %v, %d blocks cached", tc, v, found, err, pc.Usage().Entries)
		}
		// Blocks outside the damage still serve.
		if v, _, found, err := tbl.Get([]byte("key-00000"), keys.MaxSeq, device.Fg); err != nil || !found || !strings.HasSuffix(string(v), "key-00000") {
			t.Fatalf("codec %v: get outside the damage: %q %v %v", codec, v, found, err)
		}
	}
}

func TestExtentReadFaultPropagatesAndRetrySucceeds(t *testing.T) {
	dev := newDev()
	f, _ := dev.Create("s1")
	tbl, _ := Build(f, Options{}, sortedEntries(1000, 1), device.Bg)
	before := stateOf(tbl)
	incoming := []Entry{entry("key-00100", 9000, "NEW")}

	dev.InjectFaults(device.FaultPlan{Seed: 1, FailReadAfter: 1})
	if _, err := tbl.Merge(incoming, false, device.Bg); !errors.Is(err, device.ErrInjected) {
		t.Fatalf("merge under a read fault: err = %v", err)
	}
	if after := stateOf(tbl); after != before {
		t.Fatalf("failed merge changed the table: %+v -> %+v", before, after)
	}
	// The plan is one-shot: the retry reads the same extent and lands.
	if _, err := tbl.Merge(incoming, false, device.Bg); err != nil {
		t.Fatalf("retry: %v", err)
	}
	dev.ClearFaults()
	if v, _, found, err := tbl.Get([]byte("key-00100"), keys.MaxSeq, device.Fg); err != nil || !found || string(v) != "NEW" {
		t.Fatalf("after retry: %q %v %v", v, found, err)
	}
	if tbl.NumEntries() != 1000 {
		t.Fatalf("entries = %d", tbl.NumEntries())
	}
}

// TestMergeChargesAboutOnePagePerBlock bounds the read cost of a merge that
// dirties a whole freshly built table: blocks are ~4.09 KB and unaligned, so
// fetched one at a time each would cost two pages.
func TestMergeChargesAboutOnePagePerBlock(t *testing.T) {
	dev := newDev()
	f, _ := dev.Create("s1")
	val := strings.Repeat("v", 128)
	var entries []Entry
	for i := 0; i < 8000; i++ {
		entries = append(entries, entry(fmt.Sprintf("key-%06d", i), uint64(1+i), val))
	}
	tbl, err := Build(f, Options{}, entries, device.Bg)
	if err != nil {
		t.Fatal(err)
	}
	blocks := tbl.NumLiveBlocks()
	if blocks < 256 {
		t.Fatalf("built %d blocks, want >= 256", blocks)
	}
	first, last := entries[0], entries[len(entries)-1]
	incoming := []Entry{
		{Key: keys.InternalKey{User: first.Key.User, Seq: 1 << 30, Kind: keys.KindSet}, Value: []byte("a")},
		{Key: keys.InternalKey{User: last.Key.User, Seq: 1<<30 + 1, Kind: keys.KindSet}, Value: []byte("z")},
	}
	_, bytes0 := bgReads(dev)
	st, err := tbl.Merge(incoming, false, device.Bg)
	if err != nil {
		t.Fatal(err)
	}
	_, bytes1 := bgReads(dev)
	if st.BlocksDirtied != blocks {
		t.Fatalf("dirtied %d of %d blocks", st.BlocksDirtied, blocks)
	}
	if uint64(st.BytesRead) != bytes1-bytes0 {
		t.Fatalf("MergeStats.BytesRead %d, device charged %d", st.BytesRead, bytes1-bytes0)
	}
	if pages := float64(st.BytesRead) / 4096; pages > 1.1*float64(blocks) {
		t.Fatalf("%.0f pages for %d blocks: %.2f per block, want <= 1.1", pages, blocks, pages/float64(blocks))
	}
}
