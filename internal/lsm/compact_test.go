package lsm

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
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
		did, err := tr.MaybeCompact(device.Bg)
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
// MaybeCompact drains an L1 victim into existing L2 tables and carves
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
		if err := tr.MergeBatch(entries, device.Bg); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 30; round++ {
		merge(round*131, 300, fmt.Sprintf("r%d", round))
		drain(t, tr)
	}
	for round := 0; ; round++ {
		if live, _ := tr.LevelBytes(1); live > tr.capacity(1) {
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
		v, kind, found, err := tr.Get([]byte(k), keys.MaxSeq, device.Fg)
		if err != nil || !found || kind != keys.KindSet || string(v) != want {
			t.Fatalf("%s: get %x = %q (found=%v kind=%v err=%v), want %q", when, k, v, found, kind, err, want)
		}
	}
}

// TestCompactionFaultAtEveryWriteKeepsEveryKey fails each write op of one
// level compaction in turn. The victim table may only go once everything
// pushed out of it is durable below, so whichever write fails, every merged
// key is readable from the live tree, and again after a power cut and
// Recover, and the recovered tree compacts on.
func TestCompactionFaultAtEveryWriteKeepsEveryKey(t *testing.T) {
	tr, dev, ref := overfullTree(t)
	before := dev.Counters().WriteOps.Load()
	compactions := tr.Traffic(1).Compactions.Load()
	if did, err := tr.MaybeCompact(device.Bg); err != nil || !did {
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
		if _, err := tr.MaybeCompact(device.Bg); !errors.Is(err, device.ErrInjected) {
			t.Fatalf("write %d/%d: compaction under a write fault returned %v", i, writes, err)
		}
		when := fmt.Sprintf("write %d/%d failed", i, writes)
		checkModel(t, tr, ref, when)

		dev.PowerCut()
		dev.ClearFaults()
		re, _, err := Recover(tr.opts)
		if err != nil {
			t.Fatalf("%s: recover: %v", when, err)
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
			if _, kind, found, err := tr.Get(k, keys.MaxSeq, device.Fg); err != nil || !found || kind != keys.KindSet {
				done <- fmt.Errorf("read %d: merged key %x: found=%v kind=%v err=%v", i, k, found, kind, err)
				return
			}
		}
	}()
	seq := uint64(0)
	for round := 0; round < 150; round++ {
		entries := spread(round*173, 300, 5, seq, fmt.Sprintf("r%d", round))
		seq += 300
		if err := tr.MergeBatch(entries, device.Bg); err != nil {
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
		trees[i] = New(Options{
			Dev: devs[i], Ratio: 2, L1Segments: 16, FileSize: 4 << 10,
			MaxLevels: 3, Depth: 2, PowerK: 4, Seed: 42,
		})
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
			if err := trees[i].MergeBatch(entries, device.Bg); err != nil {
				t.Fatal(err)
			}
		}
		for {
			did0, err0 := trees[0].MaybeCompact(device.Bg)
			did1, err1 := trees[1].MaybeCompact(device.Bg)
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
	tr := New(Options{
		Dev: sata, Ratio: 4, L1Segments: 2, FileSize: 16 << 10,
		MaxLevels: 2, Depth: 2, MetaBackup: nvme,
	})
	seq := uint64(0)
	for round := 0; round < 40; round++ {
		if err := tr.MergeBatch(run((round*131)%1500, 400, seq, "v"), device.Bg); err != nil {
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

// TestLevelWriteBytesMatchDevice is the write half of the same ledger: the
// capacity tier takes nothing but table appends, so the levels' WriteBytes
// must sum to the device's BgWriteBytes. One-byte sectors make every Sync
// charge exactly what was appended; a real device adds a sector remainder
// per Sync on top.
func TestLevelWriteBytesMatchDevice(t *testing.T) {
	p := device.UnthrottledProfile("sata", 0)
	p.SectorSize = 1
	sata := device.New(p)
	nvme := device.New(device.UnthrottledProfile("nvme", 0))
	tr := New(Options{
		Dev: sata, Ratio: 4, L1Segments: 2, FileSize: 16 << 10,
		MaxLevels: 3, Depth: 2, MetaBackup: nvme,
	})
	seq := uint64(0)
	for round := 0; round < 60; round++ {
		if err := tr.MergeBatch(spread(round*131, 300, 7, seq, "v"), device.Bg); err != nil {
			t.Fatal(err)
		}
		seq += 300
		drain(t, tr)
	}
	var levels uint64
	for l := 1; l <= 3; l++ {
		levels += tr.Traffic(l).WriteBytes.Load()
	}
	if tr.Traffic(1).Compactions.Load() == 0 || tr.Traffic(3).WriteBytes.Load() == 0 {
		t.Fatal("nothing compacted into the bottom level")
	}
	c := sata.Counters()
	if dev := c.BgWriteBytes.Load(); levels != dev {
		t.Fatalf("levels report %d bytes written, the device charged %d", levels, dev)
	}
	if fg := c.WriteBytes.Load() - c.BgWriteBytes.Load(); fg != 0 {
		t.Fatalf("%d bytes of compaction writes were charged as foreground", fg)
	}
}

// TestRecoverKeepsNewestOfTwoGenerations crashes between the two halves of a
// generation swap: the new generation is durable and installed, the old one
// not yet deleted (a scan still holds it). Recover must keep the newer,
// delete the older, and serve what the newer holds.
func TestRecoverKeepsNewestOfTwoGenerations(t *testing.T) {
	tr, dev := newTree(t, 64<<10, 2)
	if err := tr.MergeBatch(run(0, 200, 1, "old"), device.Bg); err != nil {
		t.Fatal(err)
	}
	scan := tr.NewScanIter(nil, device.Fg) // pins generation 1
	if err := tr.MergeBatch(run(0, 200, 1000, "new"), device.Bg); err != nil {
		t.Fatal(err)
	}
	if files := dev.List(); len(files) != 2 {
		t.Fatalf("want the pinned and the new generation on the device, got %v", files)
	}
	dev.PowerCut() // the process dies here; scan is never closed
	_ = scan
	re, _, err := Recover(tr.opts)
	if err != nil {
		t.Fatal(err)
	}
	if files := dev.List(); len(files) != 1 || files[0] != "p0-L1-S0-G2.sst" {
		t.Fatalf("recovery kept %v, want only generation 2", files)
	}
	v, _, found, err := re.Get(k8(7<<44), keys.MaxSeq, device.Fg)
	if err != nil || !found || string(v) != "new-7" {
		t.Fatalf("get after recovery: %q %v %v", v, found, err)
	}
}
