package prismish

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"hyperdb/internal/device"
	"hyperdb/internal/engine"
	"hyperdb/internal/slot"
)

func open(t testing.TB, nvmeCap int64) (*DB, *device.Device, *device.Device) {
	t.Helper()
	nvme := device.New(device.UnthrottledProfile("nvme", nvmeCap))
	sata := device.New(device.UnthrottledProfile("sata", 1<<30))
	db, err := Open(Options{
		NVMe: nvme, SATA: sata,
		CacheBytes:        1 << 20,
		BatchObjects:      256,
		FileSize:          64 << 10,
		L1Target:          128 << 10,
		Ratio:             4,
		MaxLevels:         4,
		DisableBackground: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db, nvme, sata
}

func k8(i uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, i)
	return b
}

func TestBasicOps(t *testing.T) {
	db, _, _ := open(t, 32<<20)
	for i := uint64(0); i < 1000; i++ {
		if err := db.Put(k8(i<<32), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 1000; i++ {
		v, err := db.Get(k8(i << 32))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("get %d: %q %v", i, v, err)
		}
	}
	db.Delete(k8(3 << 32))
	if _, err := db.Get(k8(3 << 32)); !errors.Is(err, engine.ErrNotFound) {
		t.Fatalf("deleted: %v", err)
	}
}

func TestMigrationDemotesColdAndKeepsHot(t *testing.T) {
	db, _, _ := open(t, 32<<20)
	for i := uint64(0); i < 1000; i++ {
		db.Put(k8(i<<32), make([]byte, 100))
	}
	// Touch a hot subset so their clock bits are set.
	for i := uint64(0); i < 50; i++ {
		db.Get(k8(i << 32))
	}
	// First pass clears clock bits (second chance); the next demotes.
	if _, err := db.MigrateOnce(); err != nil {
		t.Fatal(err)
	}
	n, err := db.MigrateOnce()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("nothing migrated")
	}
	st := db.Stats()
	if st.Migrations < 1 || st.MigrationPageReads == 0 {
		t.Fatalf("stats: %+v", st)
	}
	// Everything remains readable (from either tier).
	for i := uint64(0); i < 1000; i++ {
		if _, err := db.Get(k8(i << 32)); err != nil {
			t.Fatalf("get %d after migration: %v", i, err)
		}
	}
}

func TestSecondChanceProtectsHotObjects(t *testing.T) {
	db, _, _ := open(t, 32<<20)
	for i := uint64(0); i < 600; i++ {
		db.Put(k8(i<<32), make([]byte, 100))
	}
	// Puts set the ref bit; first pass only clears bits (second chance),
	// demoting nothing but making a second pass demote the untouched ones.
	n1, _ := db.MigrateOnce()
	// Keep object 0 hot by re-reading between passes.
	db.Get(k8(0))
	n2, _ := db.MigrateOnce()
	if n1+n2 == 0 {
		t.Fatal("no demotions across two passes")
	}
	// Hot object should still be in the slab.
	db.mu.RLock()
	_, inSlab := db.index.Get(k8(0))
	db.mu.RUnlock()
	if !inSlab {
		t.Fatal("recently read object was demoted despite second chance")
	}
}

func TestScatterCausesHighPageReadsPerObject(t *testing.T) {
	// The architectural contrast with HyperDB: after update churn, slots
	// for adjacent keys scatter across pages, so migrating K small objects
	// needs ~K page reads.
	db, _, _ := open(t, 64<<20)
	rng := rand.New(rand.NewSource(4))
	// Interleaved inserts and deletes to shuffle the free lists.
	for round := 0; round < 20; round++ {
		for i := 0; i < 500; i++ {
			db.Put(k8(rng.Uint64()), make([]byte, 100))
		}
		// Delete-then-reinsert shuffles slots through the global free list.
		for i := 0; i < 200; i++ {
			db.Delete(k8(rng.Uint64()))
		}
	}
	// Clear clock bits, then demote a batch and inspect its page locality.
	db.MigrateOnce()
	st0 := db.Stats()
	db.MigrateOnce()
	st1 := db.Stats()
	objs := st1.MigratedObjects - st0.MigratedObjects
	reads := st1.MigrationPageReads - st0.MigrationPageReads
	if objs == 0 {
		t.Skip("no demotions this round")
	}
	perObj := float64(reads) / float64(objs)
	// 100B objects, 40 slots/page: perfect locality would be 0.025
	// reads/object. Scatter should push this far higher.
	if perObj < 0.2 {
		t.Fatalf("%.3f page reads/object — too much locality for a slab layout", perObj)
	}
}

func TestAdmissionOnSATARead(t *testing.T) {
	db, _, _ := open(t, 32<<20)
	for i := uint64(0); i < 500; i++ {
		db.Put(k8(i<<32), []byte(fmt.Sprintf("v%d", i)))
	}
	// Demote everything: a zero round only means the clock bits got their
	// second chance, so stop after two consecutive empty rounds.
	empty := 0
	for empty < 2 {
		n, err := db.MigrateOnce()
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			empty++
		} else {
			empty = 0
		}
	}
	if db.Stats().SlabObjects != 0 {
		t.Fatalf("slab still holds %d objects", db.Stats().SlabObjects)
	}
	// A read from SATA admits the object back into the slab.
	v, err := db.Get(k8(7 << 32))
	if err != nil || string(v) != "v7" {
		t.Fatalf("get from SATA: %q %v", v, err)
	}
	db.mu.RLock()
	_, admitted := db.index.Get(k8(7 << 32))
	db.mu.RUnlock()
	if !admitted {
		t.Fatal("SATA read was not admitted into the slab")
	}
}

func TestScanAcrossTiers(t *testing.T) {
	db, _, _ := open(t, 32<<20)
	for i := uint64(0); i < 400; i++ {
		db.Put(k8(i<<32), []byte(fmt.Sprintf("v%d", i)))
	}
	// Demote half the key space, keep the rest in the slab.
	db.MigrateOnce()
	db.MigrateOnce()
	kvs, err := db.Scan(k8(0), 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 100 {
		t.Fatalf("scan returned %d", len(kvs))
	}
	for i := 1; i < len(kvs); i++ {
		if bytes.Compare(kvs[i-1].Key, kvs[i].Key) >= 0 {
			t.Fatal("scan out of order")
		}
	}
}

// TestScanDoesNotResurrectDeletedKeys migrates 200 keys to the tree, then
// deletes them all: the slab holds 200 tombstones shadowing the tree's
// values. However many tombstones a scan reads past before it fills, no
// deleted key may come back from the tree.
func TestScanDoesNotResurrectDeletedKeys(t *testing.T) {
	db, _, _ := open(t, 32<<20)
	for i := uint64(0); i < 200; i++ {
		if err := db.Put(k8(i<<32), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; db.Stats().SlabObjects > 0; i++ {
		if i == 10 {
			t.Fatal("the slab never emptied")
		}
		if _, err := db.MigrateOnce(); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 200; i++ {
		if err := db.Delete(k8(i << 32)); err != nil {
			t.Fatal(err)
		}
	}
	for _, limit := range []int{1, 10, 100, 1000} {
		kvs, err := db.Scan(k8(0), limit)
		if err != nil || len(kvs) != 0 {
			t.Fatalf("Scan(k0, %d) = %d pairs, %v; want none (first: %v)", limit, len(kvs), err, kvs[:min(1, len(kvs))])
		}
	}
	// A live key past the tombstones is still found.
	if err := db.Put(k8(500<<32), []byte("live")); err != nil {
		t.Fatal(err)
	}
	if kvs, err := db.Scan(k8(0), 10); err != nil || len(kvs) != 1 || string(kvs[0].Value) != "live" {
		t.Fatalf("Scan(k0, 10) = %v, %v; want the one live key", kvs, err)
	}
}

// TestScanSurfacesDeviceError: a faulted NVMe read must fail the scan, as it
// fails Get, instead of silently dropping the live key whose page it was.
func TestScanSurfacesDeviceError(t *testing.T) {
	// No DRAM cache to speak of, so the scan has to read the device.
	nvme := device.New(device.UnthrottledProfile("nvme", 32<<20))
	db, err := Open(Options{
		NVMe: nvme, SATA: device.New(device.UnthrottledProfile("sata", 1<<30)),
		CacheBytes: 1, DisableBackground: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := uint64(0); i < 400; i++ {
		if err := db.Put(k8(i<<32), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	nvme.InjectFaults(device.FaultPlan{FailReadAfter: 1})
	kvs, err := db.Scan(k8(0), 100)
	if !errors.Is(err, device.ErrInjected) {
		t.Fatalf("scan over a faulted read: %d results, err = %v", len(kvs), err)
	}
	nvme.ClearFaults()
	if kvs, err = db.Scan(k8(0), 100); err != nil || len(kvs) != 100 {
		t.Fatalf("scan after the fault cleared: %d results, err = %v", len(kvs), err)
	}
}

func TestInPlaceUpdateKeepsSlot(t *testing.T) {
	db, nvme, _ := open(t, 32<<20)
	db.Put(k8(1), make([]byte, 100))
	used := nvme.Used()
	db.Put(k8(1), make([]byte, 90)) // same class
	if nvme.Used() != used {
		t.Fatal("in-place update allocated new space")
	}
}

func TestUsedFractionAccountsFreeSlots(t *testing.T) {
	db, _, _ := open(t, 1<<20)
	for i := uint64(0); i < 20000; i++ {
		if err := db.Put(k8(i<<32), make([]byte, 100)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	// Capacity exceeded repeatedly; eviction path must have kept puts alive
	// and usedFraction must stay at or below ~1.
	if f := db.usedFraction(); f > 1.01 {
		t.Fatalf("usedFraction = %f", f)
	}
	if db.Stats().Migrations == 0 {
		t.Fatal("no migrations despite slab pressure")
	}
}

// TestReadersNeverLoseALiveKey: one writer inserts keys into a slab about
// 2 000 objects deep, so migration runs all the time — the workers' and,
// when the slab is full, the writer's own — and four readers look up keys
// that are acked, with Get, MultiGet and Scan. Migration frees a victim's
// slot once the key is in the tree and a Put takes it; a reader holding the
// old location then finds another key in the slot. Every acked key must
// still be found, with its own value. The readers ask for the newest keys,
// the ones migration is moving.
func TestReadersNeverLoseALiveKey(t *testing.T) {
	nvme := device.New(device.UnthrottledProfile("nvme", 256<<10))
	db, err := Open(Options{
		NVMe: nvme, SATA: device.New(device.UnthrottledProfile("sata", 1<<30)),
		CacheBytes: 64 << 10, BatchObjects: 64,
		FileSize: 64 << 10, L1Target: 128 << 10, Ratio: 4, MaxLevels: 4,
		BackgroundThreads: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	key := func(i uint64) []byte { return k8(i << 20) }
	value := func(i uint64) []byte { return bytes.Repeat(k8(i), 12) }

	var acked atomic.Uint64
	var stop atomic.Bool
	var reads, misses atomic.Uint64
	var wg sync.WaitGroup
	check := func(i uint64, v []byte, err error) {
		reads.Add(1)
		if err != nil || !bytes.Equal(v, value(i)) {
			if misses.Add(1) == 1 {
				t.Errorf("acked key %d: value %x, err %v", i, v, err)
			}
		}
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for n := 0; !stop.Load(); n++ {
				top := acked.Load()
				if top == 0 {
					continue
				}
				// The newest 2 000 keys: about what the slab holds, and what
				// migration is moving out.
				recent := func() uint64 { return top - 1 - uint64(rng.Int63n(int64(min(top, 2000)))) }
				i := recent()
				switch n % 3 {
				case 0:
					v, err := db.Get(key(i))
					check(i, v, err)
				case 1: // a batch is read key by key after one index pass
					ids := make([]uint64, 16)
					ks := make([][]byte, len(ids))
					for x := range ids {
						ids[x] = recent()
						ks[x] = key(ids[x])
					}
					vs, err := db.MultiGet(ks)
					for x, id := range ids {
						if err != nil {
							check(id, nil, err)
						} else {
							check(id, vs[x], nil)
						}
					}
				case 2: // so is a scan, after it has opened the tree's iterator
					kvs, err := db.Scan(key(i), 64)
					for x := uint64(0); x < min(64, top-i); x++ {
						switch {
						case err != nil:
							check(i+x, nil, err)
						case x >= uint64(len(kvs)) || !bytes.Equal(kvs[x].Key, key(i+x)):
							check(i+x, nil, fmt.Errorf("scan from key %d: pair %d is not the key", i, x))
						default:
							check(i+x, kvs[x].Value, nil)
						}
					}
				}
			}
		}(r)
	}
	for i := uint64(0); i < 30000; i++ {
		if err := db.Put(key(i), value(i)); err != nil {
			t.Errorf("put %d: %v", i, err)
			break
		}
		acked.Store(i + 1)
	}
	stop.Store(true)
	wg.Wait()
	t.Logf("%d reads, %d of them lost an acked key; %d migrations", reads.Load(), misses.Load(), db.Stats().Migrations)
}

// TestResizeWithoutSpaceKeepsFreeListsExact: a put that moves an object to
// another size class and finds no space must leave the object's old slot in
// use. A slot freed before the new one existed stayed named by the index and
// was freed again on every retry, so two later writes could be handed one
// slot. After the failing resize no slot is on a free list twice, and the
// index names no free slot.
func TestResizeWithoutSpaceKeepsFreeListsExact(t *testing.T) {
	db, _, _ := open(t, 16<<10) // four pages, all of them 64-byte slots
	small := bytes.Repeat([]byte{1}, 20)
	for i := uint64(0); i < 4*4096/64; i++ {
		if err := db.Put(k8(i<<32), small); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	if err := db.Put(k8(0), bytes.Repeat([]byte{2}, 100)); !errors.Is(err, device.ErrNoSpace) {
		t.Fatalf("resize on a full tier: %v, want ErrNoSpace", err)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	free := map[slot.Addr]bool{}
	for c, sf := range db.slabs {
		for _, a := range sf.freeSlots {
			if free[a] {
				t.Fatalf("class %d slot %+v is on the free list twice", slot.Classes[c], a)
			}
			free[a] = true
		}
	}
	db.index.Ascend(nil, nil, func(k []byte, l loc) bool {
		if free[l.Addr] {
			t.Errorf("key %x names free slot %+v of class %d", k, l, slot.Classes[l.Class])
		}
		return true
	})
}

// TestWritesApplyInSequenceOrder has goroutines Put one key at once, round
// after round, with values of alternating sizes, so writes alternate between
// overwriting a slot in place and moving to another slab class. After every
// round the index must name the highest sequence the engine drew, and the
// store reopened from the devices — which keeps the key's highest-sequence
// slot — must read what the live store reads.
func TestWritesApplyInSequenceOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	const writers, rounds = 8, 200
	db, _, _ := open(t, 32<<20)
	key := k8(7)
	for r := 0; r < rounds; r++ {
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				v := bytes.Repeat([]byte{byte('a' + g)}, 16+200*((g+r)%2))
				if err := db.Put(key, v); err != nil {
					t.Error(err)
				}
			}(g)
		}
		close(start)
		wg.Wait()
		db.mu.RLock()
		l, _ := db.index.Get(key)
		db.mu.RUnlock()
		if last := db.seq.Load(); l.seq != last {
			t.Fatalf("round %d: the index names sequence %d, the last drawn is %d", r, l.seq, last)
		}
	}
	live, err := db.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	re, err := Open(db.opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got, err := re.Get(key); err != nil || !bytes.Equal(got, live) {
		t.Fatalf("reopened: %.8q (%v), live store read %.8q", got, err, live)
	}
}

// TestMigrationFailsClosedOnDamagedSlot: a migration that reads a slot
// failing its checksum must fail and leave the key indexed. It used to skip
// the slot and still take the key out of the index and free its slot, so an
// acked key was in neither store and Get said it did not exist.
func TestMigrationFailsClosedOnDamagedSlot(t *testing.T) {
	db, nvme, _ := open(t, 32<<20)
	value := func(i uint64) []byte { return bytes.Repeat([]byte{byte(i)}, 100) }
	for i := uint64(0); i < 10; i++ {
		if err := db.Put(k8(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Damage two value bytes of key 5's slot on the device.
	f, err := nvme.Open("prismish-slab128")
	if err != nil {
		t.Fatal(err)
	}
	img := make([]byte, f.Size())
	if _, err := f.ReadAt(img, 0, device.Bg); err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(img, append(k8(5), value(5)...))
	if at < 0 {
		t.Fatal("key 5's record is not in the 128-byte slab")
	}
	if err := f.WriteAt([]byte{0xff, 0xff}, int64(at+8+50), device.Fg); err != nil {
		t.Fatal(err)
	}
	failed := 0
	for i := 0; i < 3; i++ { // the first pass clears the clock bits
		if _, err := db.MigrateOnce(); err != nil {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("every migration over the damaged slot succeeded")
	}
	if _, err := db.Get(k8(5)); err == nil || errors.Is(err, engine.ErrNotFound) {
		t.Fatalf("key 5 after the failed migrations: %v, want its damage reported", err)
	}
	for i := uint64(0); i < 10; i++ {
		if got, err := db.Get(k8(i)); i != 5 && (err != nil || !bytes.Equal(got, value(i))) {
			t.Fatalf("key %d: %.8q (%v)", i, got, err)
		}
	}
}
