package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"hyperdb/internal/device"
	"hyperdb/internal/hotness"
	"hyperdb/internal/keys"
	"hyperdb/internal/zone"
)

func openCore(t testing.TB, nvmeCap int64, background bool) *DB {
	t.Helper()
	db, err := Open(Options{
		NVMeDevice:        device.New(device.UnthrottledProfile("nvme", nvmeCap)),
		SATADevice:        device.New(device.UnthrottledProfile("sata", 1<<30)),
		Partitions:        4,
		CacheBytes:        2 << 20,
		MigrationBatch:    128 << 10,
		DisableBackground: !background,
		Tracker:           hotness.Config{WindowCapacity: 512},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// zoneHas reports whether the partition's zone tier indexes key (a value or
// a tombstone).
func zoneHas(p *partition, key []byte) (has bool) {
	p.zones.Scan(key, keys.Successor(key), func([]byte, zone.Location) bool {
		has = true
		return false
	})
	return has
}

func k8(i uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, i)
	return b
}

func TestPartitionRouting(t *testing.T) {
	db := openCore(t, 64<<20, false)
	// Keys at partition boundaries route consistently.
	for _, k := range [][]byte{k8(0), k8(1 << 62), k8(1 << 63), k8(3 << 62), k8(^uint64(0))} {
		p := db.partFor(k)
		if p == nil {
			t.Fatalf("no partition for %x", k)
		}
		if err := db.Put(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if v, err := db.Get(k); err != nil || string(v) != "v" {
			t.Fatalf("get %x: %q %v", k, v, err)
		}
	}
	// Each partition owns a disjoint range.
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		k := k8(uint64(i) << 62)
		seen[db.partFor(k).id] = true
	}
	if len(seen) != 4 {
		t.Fatalf("keys spread over %d partitions, want 4", len(seen))
	}
}

func TestPromotionPath(t *testing.T) {
	db := openCore(t, 64<<20, false)
	key := k8(42 << 40)
	db.Put(key, []byte("value"))
	p := db.partFor(key)

	// Push the object down to the capacity tier.
	z := p.zones.PickDemotionVictim()
	if z == nil {
		t.Fatal("no victim")
	}
	if err := db.demoteZone(p, z); err != nil {
		t.Fatal(err)
	}
	if zoneHas(p, key) {
		t.Fatal("key still in NVMe after demotion")
	}

	// Heat the key: enough reads to fill tracker windows with it present.
	for w := 0; w < 4; w++ {
		db.Get(key)
		for i := 0; p.tracker.CascadeDepth() < w+1 && i < 1<<18; i++ {
			p.tracker.Record([]byte(fmt.Sprintf("filler-%d-%d", w, i)))
		}
	}
	// This read should classify hot and enqueue a promotion.
	if _, err := db.Get(key); err != nil {
		t.Fatal(err)
	}
	if err := db.MigrationStep(p.id); err != nil {
		t.Fatal(err)
	}
	if !zoneHas(p, key) {
		t.Fatal("hot object was not promoted back to NVMe")
	}
	v, err := db.Get(key)
	if err != nil || string(v) != "value" {
		t.Fatalf("promoted get: %q %v", v, err)
	}
}

func TestWriteStallFreesSpace(t *testing.T) {
	// NVMe far too small for the workload: puts must stall-demote rather
	// than fail.
	db := openCore(t, 2<<20, false)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 30000; i++ {
		if err := db.Put(k8(rng.Uint64()), make([]byte, 100)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	st := db.Stats()
	if st.Zone.Migrations == 0 {
		t.Fatal("no migrations under pressure")
	}
	if st.NVMeUsed > st.NVMeCapacity {
		t.Fatal("NVMe overcommitted")
	}
}

func TestStatsShape(t *testing.T) {
	db := openCore(t, 3<<20, false)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20000; i++ {
		db.Put(k8(rng.Uint64()), make([]byte, 128))
	}
	db.DrainBackground()
	st := db.Stats()
	if st.Zone.Objects == 0 {
		t.Fatal("no objects tracked")
	}
	if st.NVMe.WriteBytes == 0 || st.SATA.WriteBytes == 0 {
		t.Fatalf("traffic missing: %+v", st)
	}
	var live int64
	for _, l := range st.Levels {
		live += l.LiveBytes
	}
	if live == 0 {
		t.Fatal("no LSM data after drain")
	}
	if st.SpaceAmp < 1.0 {
		t.Fatalf("space amp %f < 1", st.SpaceAmp)
	}
	if s := st.String(); len(s) < 50 {
		t.Fatalf("stats string too short: %q", s)
	}
}

func TestConcurrentMixedWorkload(t *testing.T) {
	db := openCore(t, 8<<20, true) // background workers on
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 5000; i++ {
				k := k8(uint64(rng.Intn(20000)) << 40)
				switch rng.Intn(10) {
				case 0:
					if err := db.Delete(k); err != nil {
						errCh <- err
						return
					}
				case 1, 2, 3:
					if _, err := db.Get(k); err != nil && !errors.Is(err, ErrNotFound) {
						errCh <- err
						return
					}
				case 4:
					if _, err := db.Scan(k, 20); err != nil {
						errCh <- err
						return
					}
				default:
					if err := db.Put(k, make([]byte, 64+rng.Intn(64))); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

func TestScanSeesBothTiers(t *testing.T) {
	db := openCore(t, 8<<20, false)
	// Write a sorted range, demote everything, then overwrite a few in NVMe.
	for i := uint64(0); i < 2000; i++ {
		db.Put(k8(i<<44), []byte(fmt.Sprintf("sata-%d", i)))
	}
	for _, p := range db.parts {
		for {
			z := p.zones.PickDemotionVictim()
			if z == nil {
				break
			}
			if err := db.demoteZone(p, z); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := uint64(0); i < 2000; i += 100 {
		db.Put(k8(i<<44), []byte(fmt.Sprintf("nvme-%d", i)))
	}
	kvs, err := db.Scan(k8(0), 250)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 250 {
		t.Fatalf("scan returned %d", len(kvs))
	}
	for i, kv := range kvs {
		idx := binary.BigEndian.Uint64(kv.Key) >> 44
		want := fmt.Sprintf("sata-%d", idx)
		if idx%100 == 0 {
			want = fmt.Sprintf("nvme-%d", idx)
		}
		if string(kv.Value) != want {
			t.Fatalf("scan[%d] key %d = %q, want %q", i, idx, kv.Value, want)
		}
	}
	// Order.
	for i := 1; i < len(kvs); i++ {
		if bytes.Compare(kvs[i-1].Key, kvs[i].Key) >= 0 {
			t.Fatal("scan out of order")
		}
	}
}

func TestDeleteCrossTier(t *testing.T) {
	db := openCore(t, 8<<20, false)
	key := k8(11 << 40)
	db.Put(key, []byte("v"))
	p := db.partFor(key)
	// Demote to SATA.
	for {
		z := p.zones.PickDemotionVictim()
		if z == nil {
			break
		}
		if err := db.demoteZone(p, z); err != nil {
			t.Fatal(err)
		}
	}
	// Delete writes an NVMe tombstone shadowing the SATA value.
	if err := db.Delete(key); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get after delete: %v", err)
	}
	// Migrate the tombstone down; key must stay dead.
	if err := db.DrainBackground(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get after tombstone migration: %v", err)
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	db := openCore(t, 8<<20, false)
	if err := db.Put(nil, []byte("v")); err == nil {
		t.Fatal("empty key accepted")
	}
}

func TestClosedDB(t *testing.T) {
	db := openCore(t, 8<<20, false)
	db.Close()
	if err := db.Put(k8(1), []byte("v")); !errors.Is(err, ErrClosed) {
		t.Fatalf("put after close: %v", err)
	}
	if _, err := db.Get(k8(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("get after close: %v", err)
	}
	// Idempotent close.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestScanChunkRefill exercises the zone-cursor refill path: more zone-tier
// entries than one chunk (limit*4) between scan start and the result window.
func TestScanChunkRefill(t *testing.T) {
	db := openCore(t, 64<<20, false) // roomy NVMe: everything stays in zones
	const n = 3000
	for i := uint64(0); i < n; i++ {
		if err := db.Put(k8(i<<44), []byte(fmt.Sprintf("z%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Delete 4 of every 5 keys: the scan must walk ~2500 zone entries (past
	// the 2000-entry chunk) to produce 500 results, forcing a cursor refill.
	for i := uint64(0); i < n; i++ {
		if i%5 != 0 {
			if err := db.Delete(k8(i << 44)); err != nil {
				t.Fatal(err)
			}
		}
	}
	kvs, err := db.Scan(k8(0), 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 500 {
		t.Fatalf("scan returned %d", len(kvs))
	}
	for i, kv := range kvs {
		if want := fmt.Sprintf("z%d", i*5); string(kv.Value) != want {
			t.Fatalf("scan[%d] = %q want %q", i, kv.Value, want)
		}
	}
}
