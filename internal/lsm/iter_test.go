package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"hyperdb/internal/device"
	"hyperdb/internal/keys"
	"hyperdb/internal/semisst"
)

// policies names both compaction policies for tests that run over each.
var policies = []struct {
	name string
	p    Policy
}{{"segmented", Segmented}, {"leveled", Leveled}}

// installTable builds entries as the table of (level, seg), bypassing the
// merge path so a test decides which level holds which version.
func installTable(t testing.TB, tr *Tree, level, seg int, entries []semisst.Entry) {
	t.Helper()
	tr.seg.mu.Lock()
	defer tr.seg.mu.Unlock()
	if err := tr.seg.replace(level, seg, nil, entries, device.Bg); err != nil {
		t.Fatal(err)
	}
}

// segEntries returns n entries with distinct random keys inside (level,
// seg), sorted, sequence numbers starting at seq. Keys sit on a grid shared
// by all levels, so levels collide on user keys often — unless the caller
// gives each level its own residue of the grid index modulo mod.
func segEntries(tr *Tree, rng *rand.Rand, level, seg, n int, seq uint64, tombstones bool, mod, rem uint64) []semisst.Entry {
	const grid = 46
	s := tr.seg
	base := tr.opts.KeyLo + uint64(seg)*s.segWidth(level)
	first, last := base>>grid, (base+s.segWidth(level)-1)>>grid
	picked := map[uint64]bool{}
	for len(picked) < n {
		if g := first + rng.Uint64()%(last-first+1); g%mod == rem {
			picked[g<<grid] = true
		}
	}
	out := make([]semisst.Entry, 0, n)
	for k := range picked {
		if s.segFor(level, k8(k)) != seg {
			continue
		}
		kind := keys.KindSet
		if tombstones && rng.Intn(4) == 0 {
			kind = keys.KindDelete
		}
		out = append(out, semisst.Entry{
			Key:   keys.InternalKey{User: k8(k), Seq: seq, Kind: kind},
			Value: []byte(fmt.Sprintf("L%d-%x-%0100d", level, k, seq)),
		})
		seq++
	}
	sort.Slice(out, func(a, b int) bool { return bytes.Compare(out[a].Key.User, out[b].Key.User) < 0 })
	return out
}

// fullMerge materialises what a scan from the start must return: every entry
// of every table, newest version per user key, tombstones gone.
func fullMerge(t testing.TB, tr *Tree) (want []semisst.Entry) {
	t.Helper()
	var all []semisst.Entry
	for _, level := range tr.levels {
		for _, tb := range level {
			entries, _, err := tb.sst.AllEntries(device.Bg)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, entries...)
		}
	}
	sort.Slice(all, func(a, b int) bool { return keys.Compare(all[a].Key, all[b].Key) < 0 })
	for i, e := range all {
		if i > 0 && bytes.Equal(all[i-1].Key.User, e.Key.User) {
			continue
		}
		if e.Key.Kind != keys.KindDelete {
			want = append(want, e)
		}
	}
	return want
}

// randomSegmented builds a tree of random segment tables — versions of a
// key spread over levels, tombstones, missing segments, emptied and
// single-block tables — and adds segment edges to the scan starts.
func randomSegmented(t *testing.T, rng *rand.Rand) (*Tree, [][]byte) {
	tr, _ := newTree(t, 1<<20, 3) // 2, 8 and 32 segments
	s := tr.seg
	var starts [][]byte
	for level := 1; level <= 3; level++ {
		for seg := 0; seg < s.segments(level); seg++ {
			// Shallower levels carry the newer sequence numbers, as in a
			// tree that merges and compacts its way down.
			seq := uint64(4-level)<<32 + uint64(seg)<<16
			switch rng.Intn(5) {
			case 0: // no table
			case 1: // a table whose every block was carved out
				installTable(t, tr, level, seg, segEntries(tr, rng, level, seg, 1+rng.Intn(60), seq, true, 1, 0))
				_, err := s.at(level, seg).sst.ExtractOverlapping([]keys.Range{{}}, device.Bg,
					func([]semisst.Entry) error { return nil })
				if err != nil {
					t.Fatal(err)
				}
			case 2: // a single block
				installTable(t, tr, level, seg, segEntries(tr, rng, level, seg, 1+rng.Intn(3), seq, true, 1, 0))
			default:
				installTable(t, tr, level, seg, segEntries(tr, rng, level, seg, 20+rng.Intn(150), seq, true, 1, 0))
			}
		}
		// The first key of a segment, and the one before it.
		seg := uint64(rng.Intn(s.segments(level)))
		starts = append(starts, k8(seg*s.segWidth(level)), k8(seg*s.segWidth(level)-1))
	}
	return tr, starts
}

// randomLeveled feeds a Leveled tree random ingests (long runs, single-block
// runs, tombstones, rewrites of earlier keys) and random compactions, which
// leave overlapping L0 tables over sorted deeper levels.
func randomLeveled(t *testing.T, rng *rand.Rand) (*Tree, [][]byte) {
	l, _ := newLSM(t, 8<<10)
	seq := uint64(1)
	for round := 0; round < 12; round++ {
		n := 1 + rng.Intn(3) // a single block
		if rng.Intn(3) > 0 {
			n = 50 + rng.Intn(400)
		}
		picked := map[uint64]bool{}
		for len(picked) < n {
			picked[uint64(rng.Intn(3000))<<40] = true
		}
		run := make([]Entry, 0, n)
		for k := range picked {
			kind := keys.KindSet
			if rng.Intn(4) == 0 {
				kind = keys.KindDelete
			}
			run = append(run, Entry{
				Key:   keys.InternalKey{User: k8(k), Seq: seq, Kind: kind},
				Value: []byte(fmt.Sprintf("%x-%060d", k, seq)),
			})
			seq++
		}
		sort.Slice(run, func(a, b int) bool { return bytes.Compare(run[a].Key.User, run[b].Key.User) < 0 })
		if err := l.Ingest(run, device.Bg); err != nil {
			t.Fatal(err)
		}
		for c := rng.Intn(4); c > 0; c-- {
			if _, err := l.Compact(device.Bg); err != nil {
				t.Fatal(err)
			}
		}
	}
	return l, nil
}

// TestScanIterMatchesFullMerge is the model check of the lazy iterator, over
// random trees of each policy scanned from start keys before, between,
// inside and after the tables.
func TestScanIterMatchesFullMerge(t *testing.T) {
	build := map[Policy]func(*testing.T, *rand.Rand) (*Tree, [][]byte){Segmented: randomSegmented, Leveled: randomLeveled}
	for _, pol := range policies {
		t.Run(pol.name, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				tr, starts := build[pol.p](t, rng)
				all := fullMerge(t, tr)
				starts = append(starts, nil, []byte{}, k8(0), k8(^uint64(0)), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
				for _, level := range tr.levels { // a table's first and last key, and the gap after it
					for _, tb := range level {
						if first, last, ok := tb.bounds(); ok {
							starts = append(starts, first, last, keys.Successor(last))
						}
					}
				}
				for i := 0; i < 8 && len(all) > 0; i++ { // a stored key, and its successor
					u := all[rng.Intn(len(all))].Key.User
					starts = append(starts, u, keys.Successor(u), k8(rng.Uint64()))
				}
				for _, lo := range starts {
					want := all[sort.Search(len(all), func(i int) bool { return bytes.Compare(all[i].Key.User, lo) >= 0 }):]
					it := tr.NewScanIter(lo, device.Fg)
					n := 0
					for ; it.Valid(); it.Next() {
						if n >= len(want) || !bytes.Equal(it.Key(), want[n].Key.User) || !bytes.Equal(it.Value(), want[n].Value) {
							t.Fatalf("seed %d from %x: entry %d is %x, full merge has %d entries", seed, lo, n, it.Key(), len(want))
						}
						n++
					}
					if err := it.Err(); err != nil || n != len(want) {
						t.Fatalf("seed %d from %x: %d of %d entries, err %v", seed, lo, n, len(want), err)
					}
					it.Close()
				}
			}
		})
	}
}

// scanFixture is a three-level tree of 8, 32 and 128 tables over disjoint
// keys, with no page cache, so device ReadOps count the blocks an iterator
// loads.
func scanFixture(t testing.TB) (tr *Tree, dev *device.Device, perBlock int) {
	dev = device.New(device.UnthrottledProfile("sata", 0))
	tr = openTree(t, Options{Dev: dev, Ratio: 4, L1Segments: 8, FileSize: 1 << 20, MaxLevels: 3}, Segmented)
	rng := rand.New(rand.NewSource(7))
	for level := 1; level <= 3; level++ {
		for seg := 0; seg < tr.seg.segments(level); seg++ {
			n := 12800 / tr.seg.segments(level) // every level spreads as many keys over the key space
			seq := uint64(4-level)<<32 + uint64(seg)<<16
			installTable(t, tr, level, seg, segEntries(tr, rng, level, seg, n, seq, false, 3, uint64(level-1)))
		}
	}
	return tr, dev, tr.levels[3][0].sst.LiveBlockMetas()[0].Entries
}

// scan50 reads 50 entries from lo and reports the tables the iterator
// positioned and the blocks the device served.
func scan50(t testing.TB, tr *Tree, dev *device.Device, lo []byte) (tables, blocks int) {
	before := dev.Counters().ReadOps.Load()
	it := tr.NewScanIter(lo, device.Fg)
	defer it.Close()
	for n := 0; n < 50; n++ {
		if !it.Valid() {
			t.Fatalf("scan from %x ended after %d entries: %v", lo, n, it.Err())
		}
		it.Next()
	}
	return it.opened, int(dev.Counters().ReadOps.Load() - before)
}

// TestScan50CostIsIndependentOfTableCount pins what a short scan pays for on
// a tree of 168 tables. Positioning costs one table and one block per level;
// after that a level loads a block when the scan exhausts one and opens a
// table when it crosses a segment edge, which 50 entries can do once per
// level at most. Before, it was a block of every table at or above the
// start key: 84 on average here.
func TestScan50CostIsIndependentOfTableCount(t *testing.T) {
	tr, dev, perBlock := scanFixture(t)
	levels := tr.opts.MaxLevels
	for level := 1; level <= levels; level++ {
		if tr.TableCount(level) < 8 {
			t.Fatalf("fixture has %d tables at L%d, want at least 8", tr.TableCount(level), level)
		}
	}
	fill := (50 + perBlock - 1) / perBlock
	// Away from segment edges: one table per level, plus one.
	lo := k8(tr.seg.segWidth(3) / 3)
	if tables, blocks := scan50(t, tr, dev, lo); tables > levels+1 || blocks > levels+1+fill {
		t.Fatalf("Scan(50) from %x positioned %d tables and loaded %d blocks, want at most %d and %d",
			lo, tables, blocks, levels+1, levels+1+fill)
	}
	// Anywhere, an edge of L1 being an edge of every level below it.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		lo := k8(rng.Uint64() >> 1) // the lower half: at least 50 entries follow
		tables, blocks := scan50(t, tr, dev, lo)
		if tables > 2*levels || blocks > tables+levels+fill {
			t.Fatalf("Scan(50) from %x positioned %d tables and loaded %d blocks, want at most %d and %d",
				lo, tables, blocks, 2*levels, tables+levels+fill)
		}
	}
}

// BenchmarkScan50 reports what a 50-entry scan from a random key costs on a
// 168-table tree.
func BenchmarkScan50(b *testing.B) {
	tr, dev, _ := scanFixture(b)
	rng := rand.New(rand.NewSource(1))
	var tables, blocks int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nt, nb := scan50(b, tr, dev, k8(rng.Uint64()>>1))
		tables += nt
		blocks += nb
	}
	b.ReportMetric(float64(tables)/float64(b.N), "tables-opened/op")
	b.ReportMetric(float64(blocks)/float64(b.N), "blocks-decoded/op")
}
