package lsm

import (
	"encoding/binary"
	"fmt"
	"testing"

	"hyperdb/internal/device"
	"hyperdb/internal/keys"
	"hyperdb/internal/semisst"
)

// openTree opens a tree of policy p over opts.Dev, failing the test on an
// error.
func openTree(t testing.TB, opts Options, p Policy) *Tree {
	t.Helper()
	tr, _, err := Open(opts, p)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func newTree(t testing.TB, fileSize int64, maxLevels int) (*Tree, *device.Device) {
	t.Helper()
	dev := device.New(device.UnthrottledProfile("sata", 0))
	tr := openTree(t, Options{
		Dev:        dev,
		Prefix:     "p0",
		Ratio:      4,
		L1Segments: 2,
		FileSize:   fileSize,
		MaxLevels:  maxLevels,
		Depth:      2,
	}, Segmented)
	return tr, dev
}

func k8(i uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, i)
	return b
}

func run(lo, n int, seq uint64, tag string) []semisst.Entry {
	out := make([]semisst.Entry, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, semisst.Entry{
			Key: keys.InternalKey{
				User: k8(uint64(lo+i) << 44),
				Seq:  seq + uint64(i),
				Kind: keys.KindSet,
			},
			Value: []byte(fmt.Sprintf("%s-%d", tag, lo+i)),
		})
	}
	return out
}

func TestMergeBatchSplitsBySegment(t *testing.T) {
	tr, _ := newTree(t, 1<<20, 3)
	// Keys spread across the whole space land in both L1 segments.
	var entries []semisst.Entry
	for i := 0; i < 64; i++ {
		entries = append(entries, semisst.Entry{
			Key:   keys.InternalKey{User: k8(uint64(i) << 58), Seq: uint64(i + 1), Kind: keys.KindSet},
			Value: []byte("v"),
		})
	}
	if err := tr.Ingest(entries, device.Bg); err != nil {
		t.Fatal(err)
	}
	if got := tr.TableCount(1); got != 2 {
		t.Fatalf("L1 tables = %d, want 2 (L1Segments)", got)
	}
}

func TestSegmentAlignment(t *testing.T) {
	tr, _ := newTree(t, 1<<20, 3)
	// Each L2 segment must cover exactly 1/Ratio of its parent L1 segment.
	w1 := tr.seg.segWidth(1)
	w2 := tr.seg.segWidth(2)
	if diff := int64(w1) - int64(w2)*int64(tr.opts.Ratio); diff < -int64(tr.opts.Ratio) || diff > int64(tr.opts.Ratio) {
		t.Fatalf("segment widths not aligned: L1=%d L2=%d ratio=%d", w1, w2, tr.opts.Ratio)
	}
	// A key maps into the L2 segment nested inside its L1 segment.
	user := k8(3 << 60)
	s1, s2 := tr.seg.segFor(1, user), tr.seg.segFor(2, user)
	if s2/tr.opts.Ratio != s1 {
		t.Fatalf("L2 seg %d not nested in L1 seg %d", s2, s1)
	}
}

func TestCompactionPushesOverflowDown(t *testing.T) {
	tr, _ := newTree(t, 32<<10, 3)
	seq := uint64(0)
	for round := 0; round < 30; round++ {
		entries := run(round*200, 400, seq, fmt.Sprintf("r%d", round))
		seq += 400
		if err := tr.Ingest(entries, device.Bg); err != nil {
			t.Fatal(err)
		}
		for {
			did, err := tr.Compact(device.Bg)
			if err != nil {
				t.Fatal(err)
			}
			if !did {
				break
			}
		}
	}
	// L1 within budget, deeper levels populated.
	live1, _ := tr.LevelBytes(1)
	if live1 > tr.seg.capacity(1)*2 {
		t.Fatalf("L1 live %d far over capacity %d", live1, tr.seg.capacity(1))
	}
	live2, _ := tr.LevelBytes(2)
	live3, _ := tr.LevelBytes(3)
	if live2+live3 == 0 {
		t.Fatal("nothing pushed below L1")
	}
	// Deep-level traffic recorded (the Fig. 3b series).
	if tr.Traffic(2).WriteBytes.Load() == 0 {
		t.Fatal("no compaction traffic recorded at L2")
	}
}

// TestFullCompactionReclaimsSpace overwrites the same keys over and over.
// The dirt is reclaimed at merge time: a merge that would push a table past
// TClean rewrites it as the next generation instead, so no table is ever
// past TClean, the device holds one file per segment, and the standalone
// full-compaction pass finds nothing left to do.
func TestFullCompactionReclaimsSpace(t *testing.T) {
	tr, dev := newTree(t, 64<<10, 2)
	seq := uint64(0)
	for round := 0; round < 12; round++ {
		entries := run(0, 100, seq, fmt.Sprintf("r%d", round))
		seq += 100
		if err := tr.Ingest(entries, device.Bg); err != nil {
			t.Fatal(err)
		}
		if err := tr.checkAllInvariants(); err != nil { // includes DirtyRatio <= TClean
			t.Fatalf("round %d: %v", round, err)
		}
		if amp, bound := tr.spaceAmpLocked(), 1/(1-tr.opts.TClean); amp > bound {
			t.Fatalf("round %d: space amp %.2f past the TClean bound %.2f", round, amp, bound)
		}
	}
	files := dev.List()
	if len(files) != tr.TableCount(1)+tr.TableCount(2) {
		t.Fatalf("superseded generations left on the device: %v", files)
	}
	if tr.gen.Load() <= uint64(len(files)) {
		t.Fatalf("12 full overwrites swapped no generation: %d built, %v on the device", tr.gen.Load(), files)
	}
	if did, err := tr.Compact(device.Bg); err != nil || did {
		t.Fatalf("standalone pass after merge-time compaction: did=%v err=%v", did, err)
	}
	for l := 1; l <= tr.opts.MaxLevels; l++ {
		if n := tr.Traffic(l).FullRewrites.Load(); n != 0 {
			t.Fatalf("L%d counted %d standalone full rewrites", l, n)
		}
	}
	v, _, _, found, err := tr.Get(k8(0), keys.MaxSeq, device.Fg)
	if err != nil || !found || string(v) != "r11-0" {
		t.Fatalf("get after 12 overwrites: %q %v %v", v, found, err)
	}
}

func TestVictimSelectionUsesOverlapScore(t *testing.T) {
	tr, _ := newTree(t, 16<<10, 3)
	// Build L2 content overlapping segment 0's low range only.
	if err := tr.seg.pushEntries(2, run(0, 300, 1, "deep"), 0, device.Bg); err != nil {
		t.Fatal(err)
	}
	// Two L1 tables: one overlapping L2 heavily, one not at all.
	if err := tr.seg.pushEntries(1, run(0, 100, 1000, "hot-overlap"), 0, device.Bg); err != nil {
		t.Fatal(err)
	}
	hi := []semisst.Entry{}
	for i := 0; i < 100; i++ {
		hi = append(hi, semisst.Entry{
			Key:   keys.InternalKey{User: k8(uint64(1<<63) | uint64(i)<<40), Seq: uint64(2000 + i), Kind: keys.KindSet},
			Value: []byte("no-overlap"),
		})
	}
	if err := tr.seg.pushEntries(1, hi, 0, device.Bg); err != nil {
		t.Fatal(err)
	}
	victim := tr.seg.pickVictim(1, device.Bg)
	if victim == nil {
		t.Fatal("no victim")
	}
	r := victim.sst.Range()
	if !r.Contains(k8(1 << 44)) {
		t.Fatalf("picked the non-overlapping table %v; overlap score should prefer the overlapping one", r)
	}
}

func TestGetAcrossLevelsNewestWins(t *testing.T) {
	tr, _ := newTree(t, 1<<20, 3)
	if err := tr.seg.pushEntries(2, run(0, 50, 1, "old"), 0, device.Bg); err != nil {
		t.Fatal(err)
	}
	if err := tr.seg.pushEntries(1, run(0, 50, 1000, "new"), 0, device.Bg); err != nil {
		t.Fatal(err)
	}
	v, _, _, found, err := tr.Get(k8(0), keys.MaxSeq, device.Fg)
	if err != nil || !found || string(v) != "new-0" {
		t.Fatalf("get: %q %v %v", v, found, err)
	}
}

func TestIndexMirrorChargesNVMe(t *testing.T) {
	sata := device.New(device.UnthrottledProfile("sata", 0))
	nvme := device.New(device.UnthrottledProfile("nvme", 0))
	tr := openTree(t, Options{
		Dev:        sata,
		Ratio:      4,
		L1Segments: 2,
		FileSize:   16 << 10,
		MaxLevels:  3,
		Depth:      2,
		MetaBackup: nvme,
	}, Segmented)
	seq := uint64(0)
	for round := 0; round < 20; round++ {
		if err := tr.Ingest(run(round*200, 400, seq, "v"), device.Bg); err != nil {
			t.Fatal(err)
		}
		seq += 400
		for {
			did, err := tr.Compact(device.Bg)
			if err != nil {
				t.Fatal(err)
			}
			if !did {
				break
			}
		}
	}
	if nvme.Counters().WriteBytes.Load() == 0 {
		t.Fatal("index mirrors wrote nothing to NVMe")
	}
	if nvme.Counters().ReadBytes.Load() == 0 {
		t.Fatal("compaction planning read no index mirrors from NVMe")
	}
}
