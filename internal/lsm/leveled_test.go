package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"hyperdb/internal/device"
	"hyperdb/internal/engine"
	"hyperdb/internal/keys"
)

func newLSM(t testing.TB, fileSize int64) (*Tree, *device.Device) {
	t.Helper()
	dev := device.New(device.UnthrottledProfile("d", 0))
	l := openTree(t, Options{
		Prefix:    "t",
		Dev:       dev,
		FileSize:  fileSize,
		L1Target:  2 * fileSize,
		Ratio:     4,
		MaxLevels: 4,
	}, Leveled)
	return l, dev
}

func sortedRun(lo, n int, seqBase uint64, tag string) []Entry {
	out := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Entry{
			Key:   keys.InternalKey{User: k8(uint64(lo+i) << 32), Seq: seqBase + uint64(i), Kind: keys.KindSet},
			Value: []byte(fmt.Sprintf("%s-%d", tag, lo+i)),
		})
	}
	return out
}

func TestIngestAndGet(t *testing.T) {
	l, _ := newLSM(t, 64<<10)
	if err := l.Ingest(sortedRun(0, 1000, 1, "v"), device.Bg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		v, kind, _, found, err := l.Get(k8(uint64(i)<<32), keys.MaxSeq, device.Fg)
		if err != nil || !found || kind != keys.KindSet {
			t.Fatalf("get %d: %v %v %v", i, kind, found, err)
		}
		if want := fmt.Sprintf("v-%d", i); string(v) != want {
			t.Fatalf("get %d = %q", i, v)
		}
	}
}

func TestL0NewestWins(t *testing.T) {
	l, _ := newLSM(t, 64<<10)
	l.Ingest(sortedRun(0, 100, 1, "old"), device.Bg)
	l.Ingest(sortedRun(0, 100, 1000, "new"), device.Bg)
	v, _, _, found, _ := l.Get(k8(0), keys.MaxSeq, device.Fg)
	if !found || string(v) != "new-0" {
		t.Fatalf("got %q", v)
	}
}

func TestCompactionDrainsL0(t *testing.T) {
	l, _ := newLSM(t, 16<<10)
	for r := 0; r < 4; r++ {
		l.Ingest(sortedRun(r*50, 200, uint64(r*1000+1), fmt.Sprintf("r%d", r)), device.Bg)
	}
	if l.TableCount(0) < 2 {
		t.Fatalf("L0 = %d", l.TableCount(0))
	}
	for {
		did, err := l.Compact(device.Bg)
		if err != nil {
			t.Fatal(err)
		}
		if !did {
			break
		}
	}
	if l.TableCount(0) != 0 {
		t.Fatalf("L0 not drained: %d", l.TableCount(0))
	}
	// Newest versions survive.
	v, _, _, found, _ := l.Get(k8(uint64(150)<<32), keys.MaxSeq, device.Fg)
	if !found || string(v) != "r3-150" {
		t.Fatalf("after compaction: %q %v", v, found)
	}
	// Traffic recorded.
	if l.Traffic(1).Compactions.Load() == 0 || l.Traffic(1).WriteBytes.Load() == 0 {
		t.Fatal("compaction traffic not recorded")
	}
}

func TestTombstonesDropAtBottomOnly(t *testing.T) {
	l, _ := newLSM(t, 8<<10)
	l.Ingest(sortedRun(0, 100, 1, "v"), device.Bg)
	del := []Entry{{Key: keys.InternalKey{User: k8(5 << 32), Seq: 999, Kind: keys.KindDelete}}}
	l.Ingest(del, device.Bg)
	for r := 2; r < l0Compact; r++ { // L0 reaches the compaction trigger
		l.Ingest(sortedRun(r*1000, 10, uint64(r*1000), "v"), device.Bg)
	}
	for {
		did, err := l.Compact(device.Bg)
		if err != nil {
			t.Fatal(err)
		}
		if !did {
			break
		}
	}
	_, kind, _, found, _ := l.Get(k8(5<<32), keys.MaxSeq, device.Fg)
	if found && kind != keys.KindDelete {
		t.Fatal("deleted key resurrected")
	}
}

func TestScanIterMergesLevels(t *testing.T) {
	l, _ := newLSM(t, 16<<10)
	l.Ingest(sortedRun(0, 300, 1, "old"), device.Bg)
	l.Ingest(sortedRun(0, 300, 5000, "new"), device.Bg)
	l.Compact(device.Bg)
	l.Ingest(sortedRun(100, 50, 9000, "newest"), device.Bg)

	it := l.NewScanIter(nil, device.Fg)
	defer it.Close()
	n := 0
	var prev []byte
	for ; it.Valid(); it.Next() {
		if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
			t.Fatal("scan out of order")
		}
		prev = append(prev[:0], it.Key()...)
		// Spot check precedence.
		idx := binary.BigEndian.Uint64(it.Key()) >> 32
		want := "new-"
		if idx >= 100 && idx < 150 {
			want = "newest-"
		}
		if !bytes.HasPrefix(it.Value(), []byte(want)) {
			t.Fatalf("key %d: %q, want prefix %q", idx, it.Value(), want)
		}
		n++
	}
	if n != 300 {
		t.Fatalf("scanned %d", n)
	}
}

func TestStallSignals(t *testing.T) {
	dev := device.New(device.UnthrottledProfile("d", 0))
	l := openTree(t, Options{Prefix: "t", Dev: dev, FileSize: 8 << 10}, Leveled)
	for r := 0; r < l0Stall; r++ {
		if l.Stalled() != nil {
			t.Fatalf("stalled at %d L0 files", r)
		}
		l.Ingest(sortedRun(r*10, 50, uint64(r*100+1), "v"), device.Bg)
	}
	ch := l.Stalled()
	if ch == nil {
		t.Fatalf("should be stalled at %d L0 files", l0Stall)
	}
	done := make(chan struct{})
	go func() {
		<-ch
		close(done)
	}()
	for l.Stalled() != nil {
		if _, err := l.Compact(device.Bg); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("un-stall not broadcast")
	}
}

func TestPlacementRespected(t *testing.T) {
	nvme := device.New(device.UnthrottledProfile("nvme", 0))
	sata := device.New(device.UnthrottledProfile("sata", 0))
	l := openTree(t, Options{
		Prefix: "t",
		Dev:    sata,
		Place: func(level int, _ int64) *device.Device {
			if level <= 1 {
				return nvme
			}
			return sata
		},
		FileSize:  8 << 10,
		L1Target:  16 << 10,
		Ratio:     2,
		MaxLevels: 4,
	}, Leveled)
	for r := 0; r < 12; r++ {
		l.Ingest(sortedRun(r*100, 300, uint64(r*1000+1), "v"), device.Bg)
		for {
			did, _ := l.Compact(device.Bg)
			if !did {
				break
			}
		}
	}
	if nvme.Counters().WriteBytes.Load() == 0 {
		t.Fatal("nothing written to NVMe tier")
	}
	if sata.Counters().WriteBytes.Load() == 0 {
		t.Fatal("nothing written to SATA tier (deep levels)")
	}
}

func TestConcurrentCompactionThreads(t *testing.T) {
	l, _ := newLSM(t, 8<<10)
	ref := map[string]string{}
	rng := rand.New(rand.NewSource(13))
	seq := uint64(0)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := l.Compact(device.Bg); err != nil {
					t.Errorf("compact: %v", err)
					return
				}
			}
		}()
	}
	for round := 0; round < 40; round++ {
		ids := rng.Perm(2000)[:100]
		sort.Ints(ids)
		var entries []Entry
		for _, id := range ids {
			seq++
			v := fmt.Sprintf("r%d-%d", round, id)
			entries = append(entries, Entry{
				Key:   keys.InternalKey{User: k8(uint64(id) << 32), Seq: seq, Kind: keys.KindSet},
				Value: []byte(v),
			})
			ref[string(k8(uint64(id)<<32))] = v
		}
		if err := l.Ingest(entries, device.Bg); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	for {
		did, err := l.Compact(device.Bg)
		if err != nil {
			t.Fatal(err)
		}
		if !did {
			break
		}
	}
	for k, want := range ref {
		v, _, _, found, err := l.Get([]byte(k), keys.MaxSeq, device.Fg)
		if err != nil || !found || string(v) != want {
			t.Fatalf("get %x: %q %v %v want %q", k, v, found, err, want)
		}
	}
}

func TestLevelBytesAndNeedsCompaction(t *testing.T) {
	l, _ := newLSM(t, 8<<10)
	if !l.pol.idle() {
		t.Fatal("empty LSM needs no compaction")
	}
	l.Ingest(sortedRun(0, 500, 1, "v"), device.Bg)
	if _, file := l.LevelBytes(0); file == 0 {
		t.Fatal("level bytes not tracked")
	}
}

// TestCompactorErrorReachesDrain runs the engines' compaction thread — the
// shared worker loop over Compact — over a device whose next write fails
// once: the compaction it kills is retried and succeeds, Drain finds nothing
// left, and the error is not lost — the ledger a DrainBackground ends with
// returns it, once.
func TestCompactorErrorReachesDrain(t *testing.T) {
	l, dev := newLSM(t, 16<<10)
	for r := 0; r < l0Compact; r++ {
		if err := l.Ingest(sortedRun(r*50, 200, uint64(r*1000+1), "v"), device.Bg); err != nil {
			t.Fatal(err)
		}
	}
	dev.InjectFaults(device.FaultPlan{FailWriteAfter: 1})

	var errs engine.Errors
	stop, wake, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		engine.Work(stop, wake, &errs, func() (bool, error) { return l.Compact(device.Bg) })
	}()
	for i := 0; l.TableCount(0) > 0; i++ {
		if i == 100 {
			t.Fatal("the failed compaction was never retried")
		}
		wake <- struct{}{}
	}
	close(stop)
	<-done

	if err := l.Drain(); err != nil {
		t.Fatalf("drain after the retried compaction = %v, want nil", err)
	}
	if err := errs.Take(); !errors.Is(err, device.ErrInjected) {
		t.Fatalf("errors after a failed background compaction = %v, want the injected fault", err)
	}
	if err := errs.Take(); err != nil {
		t.Fatalf("second take = %v, want nil", err)
	}
	if v, _, _, found, err := l.Get(k8(150<<32), keys.MaxSeq, device.Fg); err != nil || !found || string(v) != "v-150" {
		t.Fatalf("after the retried compaction: %q %v %v", v, found, err)
	}
}

// TestIngestKeepsNewestVersionOnly: a memtable flush can carry several
// versions of one key, and a table holds one, so Ingest writes the newest.
func TestIngestKeepsNewestVersionOnly(t *testing.T) {
	l, _ := newLSM(t, 64<<10)
	k := k8(7 << 32)
	// Internal-key order, as a memtable yields them: newest version first.
	if err := l.Ingest([]Entry{
		{Key: keys.InternalKey{User: k, Seq: 9, Kind: keys.KindSet}, Value: []byte("new")},
		{Key: keys.InternalKey{User: k, Seq: 4, Kind: keys.KindSet}, Value: []byte("old")},
	}, device.Bg); err != nil {
		t.Fatal(err)
	}
	if n := l.levels[0][0].sst.NumEntries(); n != 1 {
		t.Fatalf("the table counts %d entries, want 1", n)
	}
	if v, _, seq, found, err := l.Get(k, keys.MaxSeq, device.Fg); err != nil || !found || string(v) != "new" || seq != 9 {
		t.Fatalf("Get = %q at %d, %v %v; want the newer version at 9", v, seq, found, err)
	}
}

// TestDamagedBlockFailsClosed flips one byte of a value inside a raw data
// block on the device (LZ payloads carry a CRC of their own). A point read, a
// scan and a compaction that reach the block must each return an error, and
// never the damaged value.
func TestDamagedBlockFailsClosed(t *testing.T) {
	l, dev := newLSM(t, 64<<10)
	if err := l.Ingest(sortedRun(0, 300, 1, "damage-me"), device.Bg); err != nil {
		t.Fatal(err)
	}
	for r := 1; r < l0Compact; r++ { // L0 reaches the compaction trigger
		if err := l.Ingest(sortedRun(r*1000, 300, uint64(r*1000), "w"), device.Bg); err != nil {
			t.Fatal(err)
		}
	}
	target, want := k8(100<<32), []byte("damage-me-100")
	damaged := 0
	for _, name := range dev.List() {
		f, err := dev.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		img := make([]byte, f.Size())
		if _, err := f.ReadAt(img, 0, device.Bg); err != nil {
			t.Fatal(err)
		}
		if i := bytes.Index(img, want); i >= 0 {
			at := int64(i + len(want) - 1) // "…-100" now reads "…-101"
			if err := f.WriteAt([]byte{img[at] ^ 1}, at, device.Bg); err != nil {
				t.Fatal(err)
			}
			damaged++
		}
	}
	if damaged != 1 {
		t.Fatalf("found the value in %d files, want 1", damaged)
	}

	if v, _, _, found, err := l.Get(target, keys.MaxSeq, device.Fg); err == nil {
		t.Fatalf("Get of a key in the damaged block = %q, found %v, no error", v, found)
	}
	if v, _, _, found, err := l.Get(k8(299<<32), keys.MaxSeq, device.Fg); err != nil || !found || string(v) != "damage-me-299" {
		t.Fatalf("Get of a key in an undamaged block = %q %v %v", v, found, err)
	}
	it := l.NewScanIter(nil, device.Fg)
	for ; it.Valid(); it.Next() {
		if bytes.Equal(it.Key(), target) && !bytes.Equal(it.Value(), want) {
			t.Fatalf("the scan served %q for %x", it.Value(), target)
		}
	}
	if it.Err() == nil {
		t.Fatal("a scan over the damaged block ended without an error")
	}
	it.Close()
	if did, err := l.Compact(device.Bg); !did || err == nil {
		t.Fatalf("a compaction reading the damaged block: started %v, err %v; want an error", did, err)
	}
	if v, _, _, found, err := l.Get(target, keys.MaxSeq, device.Fg); err == nil {
		t.Fatalf("after the failed compaction, Get = %q, found %v, no error", v, found)
	}
}
