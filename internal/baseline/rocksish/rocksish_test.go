package rocksish

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"hyperdb/internal/device"
	"hyperdb/internal/engine"
)

func open(t testing.TB, sc bool) (*DB, *device.Device, *device.Device) {
	t.Helper()
	nvme := device.New(device.UnthrottledProfile("nvme", 16<<20))
	sata := device.New(device.UnthrottledProfile("sata", 1<<30))
	db, err := Open(Options{
		NVMe: nvme, SATA: sata,
		SecondaryCache:    sc,
		MemtableBytes:     64 << 10,
		CacheBytes:        1 << 20,
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

func TestPutGetDeleteFlow(t *testing.T) {
	db, _, _ := open(t, false)
	for i := uint64(0); i < 2000; i++ {
		if err := db.Put(k8(i<<32), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.DrainBackground(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 2000; i++ {
		v, err := db.Get(k8(i << 32))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("get %d: %q %v", i, v, err)
		}
	}
	if err := db.Delete(k8(5 << 32)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get(k8(5 << 32)); !errors.Is(err, engine.ErrNotFound) {
		t.Fatalf("deleted: %v", err)
	}
	if err := db.DrainBackground(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get(k8(5 << 32)); !errors.Is(err, engine.ErrNotFound) {
		t.Fatalf("deleted after drain: %v", err)
	}
}

func TestMemtableRotationAndWALCleanup(t *testing.T) {
	db, nvme, _ := open(t, false)
	// Write enough to rotate several memtables.
	for i := uint64(0); i < 3000; i++ {
		if err := db.Put(k8(i<<32), make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
		if db.mem.ApproxBytes() >= db.opts.MemtableBytes {
			// Rotation is triggered inside Put; with background disabled,
			// drive the flush ourselves.
			if err := db.FlushOnce(); err != nil {
				t.Fatal(err)
			}
		}
	}
	db.DrainBackground()
	// Old WALs must have been removed: only the live one remains.
	walCount := 0
	for _, name := range nvme.List() {
		if len(name) > 12 && name[:12] == "rocksish-wal" {
			walCount++
		}
	}
	if walCount != 1 {
		t.Fatalf("%d WAL files on device, want 1 (stale WALs leak)", walCount)
	}
}

func TestEmbeddingPlacesTopLevelsOnNVMe(t *testing.T) {
	// A small NVMe budget forces the deep levels onto SATA (db_path).
	nvmeDev := device.New(device.UnthrottledProfile("nvme", 1<<20))
	sataDev := device.New(device.UnthrottledProfile("sata", 1<<30))
	db, err := Open(Options{
		NVMe: nvmeDev, SATA: sataDev,
		MemtableBytes:     64 << 10,
		FileSize:          64 << 10,
		L1Target:          128 << 10,
		Ratio:             4,
		MaxLevels:         4,
		DisableBackground: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	nvme, sata := nvmeDev, sataDev
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 30000; i++ {
		if err := db.Put(k8(rng.Uint64()), make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
		if i%500 == 0 {
			db.DrainBackground()
		}
	}
	db.DrainBackground()
	if nvme.Counters().WriteBytes.Load() == 0 {
		t.Fatal("embedding mode wrote nothing to NVMe")
	}
	if sata.Counters().WriteBytes.Load() == 0 {
		t.Fatal("deep levels wrote nothing to SATA")
	}
	// db_path: NVMe usage stays under its budget.
	if f := nvme.UsedFraction(); f > 0.95 {
		t.Fatalf("NVMe overfilled: %.2f", f)
	}
}

func TestSecondaryCacheMode(t *testing.T) {
	db, nvme, sata := open(t, true)
	rng := rand.New(rand.NewSource(3))
	keys := make([][]byte, 5000)
	for i := range keys {
		keys[i] = k8(rng.Uint64())
		if err := db.Put(keys[i], make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	db.DrainBackground()
	// All tables on SATA in SC mode.
	for _, name := range sata.List() {
		_ = name
	}
	if n := len(sata.List()); n == 0 {
		t.Fatal("no tables on SATA in SC mode")
	}
	// Read twice: second pass should hit the flash cache, adding NVMe reads.
	for _, k := range keys[:1000] {
		if _, err := db.Get(k); err != nil {
			t.Fatalf("get: %v", err)
		}
	}
	nvmeWrites := nvme.Counters().WriteBytes.Load()
	if nvmeWrites == 0 {
		t.Fatal("secondary cache absorbed no fills")
	}
}

func TestScanMergesMemtableAndLSM(t *testing.T) {
	db, _, _ := open(t, false)
	for i := uint64(0); i < 500; i++ {
		db.Put(k8(i<<32), []byte(fmt.Sprintf("lsm-%d", i)))
	}
	db.DrainBackground()
	// Fresh writes stay in the memtable.
	for i := uint64(0); i < 500; i += 10 {
		db.Put(k8(i<<32), []byte(fmt.Sprintf("mem-%d", i)))
	}
	kvs, err := db.Scan(k8(0), 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 50 {
		t.Fatalf("scan returned %d", len(kvs))
	}
	for i := 1; i < len(kvs); i++ {
		if bytes.Compare(kvs[i-1].Key, kvs[i].Key) >= 0 {
			t.Fatal("scan out of order")
		}
	}
	// Key 0 was rewritten in the memtable: newest must win.
	if string(kvs[0].Value) != "mem-0" {
		t.Fatalf("kvs[0] = %q, want memtable version", kvs[0].Value)
	}
	if string(kvs[1].Value) != "lsm-1" {
		t.Fatalf("kvs[1] = %q, want lsm version", kvs[1].Value)
	}
}

func TestConcurrentWriters(t *testing.T) {
	nvme := device.New(device.UnthrottledProfile("nvme", 64<<20))
	sata := device.New(device.UnthrottledProfile("sata", 1<<30))
	db, err := Open(Options{
		NVMe: nvme, SATA: sata,
		MemtableBytes: 256 << 10,
		FileSize:      128 << 10,
		Ratio:         4,
		MaxLevels:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for i := uint64(0); i < 2000; i++ {
				k := k8(id<<56 | i<<16)
				if err := db.Put(k, []byte(fmt.Sprintf("w%d-%d", id, i))); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(uint64(w))
	}
	wg.Wait()
	if err := db.DrainBackground(); err != nil {
		t.Fatal(err)
	}
	for w := uint64(0); w < 8; w++ {
		for i := uint64(0); i < 2000; i += 101 {
			k := k8(w<<56 | i<<16)
			v, err := db.Get(k)
			if err != nil || string(v) != fmt.Sprintf("w%d-%d", w, i) {
				t.Fatalf("get w%d-%d: %q %v", w, i, v, err)
			}
		}
	}
}

// TestFlushWorkerErrorReachesDrain runs with the workers on over a SATA
// device whose next write fails once. Only the flush thread writes there
// (every level is placed on SATA, the WAL is on NVMe), so the fault kills a
// background flush; the retry succeeds, and the next DrainBackground still
// reports the failure.
func TestFlushWorkerErrorReachesDrain(t *testing.T) {
	nvme := device.New(device.UnthrottledProfile("nvme", 2<<20))
	sata := device.New(device.UnthrottledProfile("sata", 1<<30))
	db, err := Open(Options{
		NVMe: nvme, SATA: sata,
		MemtableBytes:     512 << 10, // two memtables outgrow the NVMe level budget
		FileSize:          64 << 10,
		BackgroundThreads: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sata.InjectFaults(device.FaultPlan{FailWriteAfter: 1})
	// Write until a rotation has left an immutable memtable. The flush
	// thread also runs on its tick, so imm is read under the lock.
	for i := uint64(0); ; i++ {
		if _, imm := db.memtables(); imm != nil {
			break
		}
		if err := db.Put(k8(i), make([]byte, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	// The rotation left one wake-up in flushC. The second send below returns
	// once the thread has come back for the first, i.e. after the flush the
	// rotation asked for has run and failed (on that wake-up, or on a tick
	// before it).
	db.flushC <- struct{}{}
	db.flushC <- struct{}{}
	if err := db.DrainBackground(); !errors.Is(err, device.ErrInjected) {
		t.Fatalf("drain after a failed background flush = %v, want the injected fault", err)
	}
	if err := db.DrainBackground(); err != nil {
		t.Fatalf("second drain = %v, want nil", err)
	}
	if len(nvme.List()) != 1 { // the live WAL; no table was placed here
		t.Fatalf("NVMe holds %v, want only the live WAL", nvme.List())
	}
	if _, err := db.Get(k8(0)); err != nil {
		t.Fatalf("get after the retried flush: %v", err)
	}
}
