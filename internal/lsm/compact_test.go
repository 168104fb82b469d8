package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"hyperdb/internal/device"
	"hyperdb/internal/keys"
	"hyperdb/internal/semisst"
)

// spread returns a sorted batch of up to n entries whose keys are spread over
// the whole 64-bit key space (ids lo, lo+stride, ... mod 4096), so every
// segment of every level receives some; run's keys all fall in segment 0.
func spread(lo, n, stride int, seq uint64, tag string) []semisst.Entry {
	ids := map[int]bool{}
	for i := 0; i < n; i++ {
		ids[(lo+i*stride)%4096] = true
	}
	sorted := make([]int, 0, len(ids))
	for id := range ids {
		sorted = append(sorted, id)
	}
	sort.Ints(sorted)
	out := make([]semisst.Entry, 0, len(sorted))
	for i, id := range sorted {
		out = append(out, semisst.Entry{
			Key:   keys.InternalKey{User: k8(uint64(id) << 52), Seq: seq + uint64(i), Kind: keys.KindSet},
			Value: []byte(fmt.Sprintf("%s-%d-padding-padding-padding-padding-padding-padding", tag, id)),
		})
	}
	return out
}

func drain(t testing.TB, tr *Tree) {
	t.Helper()
	for {
		did, err := tr.Compact(device.Bg)
		if err != nil {
			t.Fatal(err)
		}
		if !did {
			return
		}
	}
}

// overfullTree builds, the same way every call, a three-level tree whose
// deeper levels are populated and whose L1 is over capacity, so the next
// Compact drains an L1 victim into existing L2 tables and carves
// colliding L2 blocks out into L3. ref is every key merged and its newest
// value.
func overfullTree(t testing.TB) (tr *Tree, dev *device.Device, ref map[string]string) {
	t.Helper()
	tr, dev = newTree(t, 16<<10, 3)
	ref = map[string]string{}
	seq := uint64(0)
	merge := func(lo, n int, tag string) {
		entries := spread(lo, n, 7, seq, tag)
		seq += uint64(n)
		for _, e := range entries {
			ref[string(e.Key.User)] = string(e.Value)
		}
		if err := tr.Ingest(entries, device.Bg); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 30; round++ {
		merge(round*131, 300, fmt.Sprintf("r%d", round))
		drain(t, tr)
	}
	for round := 0; ; round++ {
		if live, _ := tr.LevelBytes(1); live > tr.seg.capacity(1) {
			break
		}
		merge(round*517, 300, fmt.Sprintf("top%d", round))
	}
	if tr.TableCount(2) == 0 || tr.TableCount(3) == 0 {
		t.Fatalf("deeper levels empty: L2=%d L3=%d tables", tr.TableCount(2), tr.TableCount(3))
	}
	return tr, dev, ref
}

func checkModel(t testing.TB, tr *Tree, ref map[string]string, when string) {
	t.Helper()
	for k, want := range ref {
		v, kind, _, found, err := tr.Get([]byte(k), keys.MaxSeq, device.Fg)
		if err != nil || !found || kind != keys.KindSet || string(v) != want {
			t.Fatalf("%s: get %x = %q (found=%v kind=%v err=%v), want %q", when, k, v, found, kind, err, want)
		}
	}
}

// TestCompactionFaultAtEveryWriteKeepsEveryKey fails each write op of one
// level compaction in turn. The victim table may only go once everything
// pushed out of it is durable below, so whichever write fails, every merged
// key is readable from the live tree, and again after a power cut and
// a reopen, and the reopened tree compacts on.
func TestCompactionFaultAtEveryWriteKeepsEveryKey(t *testing.T) {
	tr, dev, ref := overfullTree(t)
	before := dev.Counters().WriteOps.Load()
	compactions := tr.Traffic(1).Compactions.Load()
	if did, err := tr.Compact(device.Bg); err != nil || !did {
		t.Fatalf("clean compaction: did=%v err=%v", did, err)
	}
	writes := int64(dev.Counters().WriteOps.Load() - before)
	if tr.Traffic(1).Compactions.Load() != compactions+1 || writes < 3 {
		t.Fatalf("the step was not a multi-write L1 compaction: %d writes", writes)
	}
	checkModel(t, tr, ref, "clean")
	t.Logf("the compaction makes %d write ops", writes)

	for i := int64(1); i <= writes; i++ {
		tr, dev, ref := overfullTree(t)
		dev.InjectFaults(device.FaultPlan{Seed: i, FailWriteAfter: i, TornWrites: i%2 == 0})
		if _, err := tr.Compact(device.Bg); !errors.Is(err, device.ErrInjected) {
			t.Fatalf("write %d/%d: compaction under a write fault returned %v", i, writes, err)
		}
		when := fmt.Sprintf("write %d/%d failed", i, writes)
		checkModel(t, tr, ref, when)

		dev.PowerCut()
		dev.ClearFaults()
		re, _, err := Open(tr.opts, Segmented)
		if err != nil {
			t.Fatalf("%s: reopen: %v", when, err)
		}
		checkModel(t, re, ref, when+", recovered")
		drain(t, re)
		if err := re.checkAllInvariants(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		checkModel(t, re, ref, when+", recovered and compacted")
	}
}

// TestNoReadMissWhileCompacting reads merged keys from a second goroutine
// while merges and compactions move them down the tree. Entries move
// shallow to deep with the destination written before the source goes, and
// a lookup walks shallow to deep, so it can never fall between the two.
func TestNoReadMissWhileCompacting(t *testing.T) {
	tr, _ := newTree(t, 8<<10, 3)
	var mu sync.Mutex
	var acked [][]byte
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			mu.Lock()
			n := len(acked)
			var k []byte
			if n > 0 {
				k = acked[(i*7919)%n]
			}
			mu.Unlock()
			if k == nil {
				continue
			}
			if _, kind, _, found, err := tr.Get(k, keys.MaxSeq, device.Fg); err != nil || !found || kind != keys.KindSet {
				done <- fmt.Errorf("read %d: merged key %x: found=%v kind=%v err=%v", i, k, found, kind, err)
				return
			}
		}
	}()
	seq := uint64(0)
	for round := 0; round < 150; round++ {
		entries := spread(round*173, 300, 5, seq, fmt.Sprintf("r%d", round))
		seq += 300
		if err := tr.Ingest(entries, device.Bg); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		for _, e := range entries {
			acked = append(acked, e.Key.User)
		}
		mu.Unlock()
		drain(t, tr)
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if tr.Traffic(1).Compactions.Load() == 0 || tr.Traffic(2).Compactions.Load() == 0 {
		t.Fatal("the run compacted too little to mean anything")
	}
}

// TestVictimSequenceIsDeterministic feeds two trees the same batches and
// compares them after every compaction step: with more tables than PowerK
// at L1 the victim is a seeded sample, and it must not depend on map order.
func TestVictimSequenceIsDeterministic(t *testing.T) {
	type state struct {
		files   []string
		traffic [][4]uint64
	}
	var trees [2]*Tree
	var devs [2]*device.Device
	for i := range trees {
		devs[i] = device.New(device.UnthrottledProfile("sata", 0))
		trees[i] = openTree(t, Options{
			Dev: devs[i], Ratio: 2, L1Segments: 16, FileSize: 4 << 10,
			MaxLevels: 3, Depth: 2, PowerK: 4, Seed: 42,
		}, Segmented)
	}
	stateOf := func(i int) state {
		s := state{files: devs[i].List()}
		for l := 1; l <= 3; l++ {
			tr := trees[i].Traffic(l)
			s.traffic = append(s.traffic, [4]uint64{tr.ReadBytes.Load(), tr.WriteBytes.Load(), tr.Compactions.Load(), tr.FullRewrites.Load()})
		}
		return s
	}
	seq, steps := uint64(0), 0
	for round := 0; round < 60; round++ {
		entries := spread(round*11, 200, 37, seq, fmt.Sprintf("r%d", round))
		seq += 200
		for i := range trees {
			if err := trees[i].Ingest(entries, device.Bg); err != nil {
				t.Fatal(err)
			}
		}
		for {
			did0, err0 := trees[0].Compact(device.Bg)
			did1, err1 := trees[1].Compact(device.Bg)
			if err0 != nil || err1 != nil || did0 != did1 {
				t.Fatalf("round %d: steps diverged: %v/%v %v/%v", round, did0, err0, did1, err1)
			}
			if !did0 {
				break
			}
			steps++
			if a, b := stateOf(0), stateOf(1); !reflect.DeepEqual(a, b) {
				t.Fatalf("round %d step %d: trees diverged:\n%v\n%v", round, steps, a, b)
			}
		}
	}
	if trees[0].Traffic(1).Compactions.Load() < 8 {
		t.Fatalf("only %d L1 compactions", trees[0].Traffic(1).Compactions.Load())
	}
}

// TestLevelReadBytesMatchDevice checks the per-level read counters against
// what the device charged. With every index mirrored (two levels, both
// within mirrorDepth) all capacity-tier background reads are data extents,
// so the levels' ReadBytes must sum to the device's BgReadBytes exactly.
func TestLevelReadBytesMatchDevice(t *testing.T) {
	sata := device.New(device.UnthrottledProfile("sata", 0))
	nvme := device.New(device.UnthrottledProfile("nvme", 0))
	tr := openTree(t, Options{
		Dev: sata, Ratio: 4, L1Segments: 2, FileSize: 16 << 10,
		MaxLevels: 2, Depth: 2, MetaBackup: nvme,
	}, Segmented)
	seq := uint64(0)
	for round := 0; round < 40; round++ {
		if err := tr.Ingest(run((round*131)%1500, 400, seq, "v"), device.Bg); err != nil {
			t.Fatal(err)
		}
		seq += 400
		drain(t, tr)
	}
	var levels uint64
	for l := 1; l <= 2; l++ {
		levels += tr.Traffic(l).ReadBytes.Load()
	}
	if tr.Traffic(1).Compactions.Load() == 0 || levels == 0 {
		t.Fatal("nothing compacted")
	}
	if dev := sata.Counters().BgReadBytes.Load(); levels != dev {
		t.Fatalf("levels report %d bytes read, the device charged %d", levels, dev)
	}
	if fg := sata.Counters().ReadBytes.Load() - sata.Counters().BgReadBytes.Load(); fg != 0 {
		t.Fatalf("%d bytes of compaction reads were charged as foreground", fg)
	}
}

// TestLevelWriteBytesMatchDevice is the write half of the same ledger, for
// both policies: the capacity tier takes nothing but table writes, so the
// levels' WriteBytes must sum to the device's BgWriteBytes. One-byte sectors
// make every Sync charge exactly what was appended; a real device adds a
// sector remainder per Sync on top.
func TestLevelWriteBytesMatchDevice(t *testing.T) {
	for _, pol := range policies {
		t.Run(pol.name, func(t *testing.T) {
			p := device.UnthrottledProfile("sata", 0)
			p.SectorSize = 1
			sata := device.New(p)
			opts := Options{Dev: sata, Ratio: 4, L1Segments: 2, FileSize: 16 << 10, MaxLevels: 3, Depth: 2}
			if pol.p == Segmented {
				opts.MetaBackup = device.New(device.UnthrottledProfile("nvme", 0))
			} else {
				opts.MaxLevels, opts.L1Target = 4, 32<<10
			}
			tr := openTree(t, opts, pol.p)
			seq := uint64(0)
			for round := 0; round < 60; round++ {
				if err := tr.Ingest(spread(round*131, 300, 7, seq, "v"), device.Bg); err != nil {
					t.Fatal(err)
				}
				seq += 300
				if err := tr.Drain(); err != nil {
					t.Fatal(err)
				}
			}
			top, bottom := tr.Levels()
			var levels uint64
			for l := top; l <= bottom; l++ {
				levels += tr.Traffic(l).WriteBytes.Load()
			}
			if tr.Traffic(top+1).Compactions.Load()+tr.Traffic(top).Compactions.Load() == 0 || tr.Traffic(bottom).WriteBytes.Load() == 0 {
				t.Fatal("nothing compacted into the bottom level")
			}
			c := sata.Counters()
			if dev := c.BgWriteBytes.Load(); levels != dev {
				t.Fatalf("levels report %d bytes written, the device charged %d", levels, dev)
			}
			if fg := c.WriteBytes.Load() - c.BgWriteBytes.Load(); fg != 0 {
				t.Fatalf("%d bytes of compaction writes were charged as foreground", fg)
			}
		})
	}
}

// TestRecoverKeepsNewestOfTwoGenerations leaves two tables at one
// coordinate, as a crash between the two halves of a table swap does, and
// checks each policy's same-coordinate rule on reopen.
func TestRecoverKeepsNewestOfTwoGenerations(t *testing.T) {
	// The new generation of a segment is durable and installed, the old one
	// not yet deleted (a scan still holds it): the reopen keeps the newer,
	// deletes the older, and serves what the newer holds.
	t.Run("segmented", func(t *testing.T) {
		tr, dev := newTree(t, 64<<10, 2)
		if err := tr.Ingest(run(0, 200, 1, "old"), device.Bg); err != nil {
			t.Fatal(err)
		}
		scan := tr.NewScanIter(nil, device.Fg) // pins generation 1
		if err := tr.Ingest(run(0, 200, 1000, "new"), device.Bg); err != nil {
			t.Fatal(err)
		}
		if files := dev.List(); len(files) != 2 {
			t.Fatalf("want the pinned and the new generation on the device, got %v", files)
		}
		dev.PowerCut() // the process dies here; scan is never closed
		_ = scan
		re := openTree(t, tr.opts, Segmented)
		if files := dev.List(); len(files) != 1 || files[0] != "p0-L1-S0-G2.sst" {
			t.Fatalf("recovery kept %v, want only generation 2", files)
		}
		v, _, _, found, err := re.Get(k8(7<<44), keys.MaxSeq, device.Fg)
		if err != nil || !found || string(v) != "new-7" {
			t.Fatalf("get after recovery: %q %v %v", v, found, err)
		}
	})
	// A compaction's outputs are durable next to inputs it had not yet
	// removed, so two L1 tables overlap — and the older generation holds the
	// newer versions of the shared keys. The reopen merges them by sequence.
	t.Run("leveled", func(t *testing.T) {
		l, dev := newLSM(t, 64<<10)
		ll := l.pol.(*leveled)
		if _, err := ll.buildRun(1, sortedRun(0, 100, 1000, "new"), device.Bg); err != nil {
			t.Fatal(err)
		}
		if _, err := ll.buildRun(1, sortedRun(50, 100, 1, "old"), device.Bg); err != nil {
			t.Fatal(err)
		}
		dev.PowerCut()
		re := openTree(t, l.opts, Leveled)
		if n := re.TableCount(1); n != len(dev.List()) || n == 0 {
			t.Fatalf("L1 holds %d tables, the device %v", n, dev.List())
		}
		var prev []byte
		for _, tb := range re.levels[1] {
			first, last, _ := tb.bounds()
			if prev != nil && bytes.Compare(first, prev) <= 0 {
				t.Fatalf("L1 tables still overlap at %x", first)
			}
			prev = last
		}
		for i := 0; i < 150; i++ {
			want := fmt.Sprintf("new-%d", i)
			if i >= 100 {
				want = fmt.Sprintf("old-%d", i)
			}
			if v, _, _, found, err := re.Get(k8(uint64(i)<<32), keys.MaxSeq, device.Fg); err != nil || !found || string(v) != want {
				t.Fatalf("key %d after recovery: %q %v %v, want %q", i, v, found, err, want)
			}
		}
	})
}

// TestReopenWithAnotherGeometryFails reopens a Segmented tree with twice the
// L1 segments. Get and Ingest route keys by the tree's geometry, so tables
// recovered at the segments their names give under the old one would hide
// three of every four keys; the reopen must fail instead, naming the
// geometry, and a reopen with the original geometry must serve every key.
func TestReopenWithAnotherGeometryFails(t *testing.T) {
	tr, _ := newTree(t, 1<<20, 3)
	var entries []Entry
	for i := 0; i < 64; i++ {
		entries = append(entries, Entry{
			Key:   keys.InternalKey{User: k8(uint64(i) << 58), Seq: uint64(i + 1), Kind: keys.KindSet},
			Value: []byte(fmt.Sprintf("v%d", i)),
		})
	}
	if err := tr.Ingest(entries, device.Bg); err != nil {
		t.Fatal(err)
	}
	opts := tr.opts
	opts.L1Segments = 4
	if _, _, err := Open(opts, Segmented); err == nil || !strings.Contains(err.Error(), "geometry") {
		t.Fatalf("reopen with 4 L1 segments over a 2-segment tree: err %v, want a geometry error", err)
	}
	re := openTree(t, tr.opts, Segmented)
	for _, e := range entries {
		if v, _, _, found, err := re.Get(e.Key.User, keys.MaxSeq, device.Fg); err != nil || !found || !bytes.Equal(v, e.Value) {
			t.Fatalf("get %x after the failed reopen: %q %v %v, want %q", e.Key.User, v, found, err, e.Value)
		}
	}
}

// TestFailedCompactionLeavesNoTable cuts each write of a Leveled L0→L1
// compaction in turn. A compaction that fails part-way must remove the
// tables it already wrote — else every retry after an ErrNoSpace leaves more
// files behind — so after each failure the device holds exactly the
// installed tables and every key reads its value, and a retry succeeds.
func TestFailedCompactionLeavesNoTable(t *testing.T) {
	setup := func() (*Tree, *device.Device) {
		l, dev := newLSM(t, 16<<10)
		for r := 0; r < 2; r++ {
			if err := l.Ingest(sortedRun(r*300, 600, uint64(r*1000+1), fmt.Sprintf("r%d", r)), device.Bg); err != nil {
				t.Fatal(err)
			}
		}
		if n := l.TableCount(0); n < l0Compact {
			t.Fatalf("L0 holds %d tables, fewer than the trigger", n)
		}
		return l, dev
	}
	check := func(l *Tree, dev *device.Device, when string) {
		t.Helper()
		installed := 0
		for level := range l.levels {
			installed += l.TableCount(level)
		}
		if files := dev.List(); len(files) != installed {
			t.Fatalf("%s: %d files on the device for %d installed tables: %v", when, len(files), installed, files)
		}
		for i := 0; i < 900; i++ {
			want := fmt.Sprintf("r1-%d", i)
			if i < 300 {
				want = fmt.Sprintf("r0-%d", i)
			}
			if v, _, _, found, err := l.Get(k8(uint64(i)<<32), keys.MaxSeq, device.Fg); err != nil || !found || string(v) != want {
				t.Fatalf("%s: key %d = %q %v %v, want %q", when, i, v, found, err, want)
			}
		}
	}
	l, dev := setup()
	before := dev.Counters().WriteOps.Load()
	if did, err := l.Compact(device.Bg); !did || err != nil {
		t.Fatalf("clean compaction: did=%v err=%v", did, err)
	}
	writes := int64(dev.Counters().WriteOps.Load() - before)
	if l.TableCount(0) != 0 || l.TableCount(1) < 2 {
		t.Fatalf("the step was not an L0→L1 compaction into several tables: L0=%d L1=%d", l.TableCount(0), l.TableCount(1))
	}
	check(l, dev, "clean")
	for i := int64(1); i <= writes; i++ {
		l, dev := setup()
		dev.InjectFaults(device.FaultPlan{FailWriteAfter: i})
		if _, err := l.Compact(device.Bg); !errors.Is(err, device.ErrInjected) {
			t.Fatalf("write %d/%d: compaction under a write fault returned %v", i, writes, err)
		}
		dev.ClearFaults()
		when := fmt.Sprintf("write %d/%d failed", i, writes)
		check(l, dev, when)
		if did, err := l.Compact(device.Bg); !did || err != nil {
			t.Fatalf("%s: retry: did=%v err=%v", when, did, err)
		}
		check(l, dev, when+", retried")
	}
}
