package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"hyperdb/internal/device"
	"hyperdb/internal/keys"
)

func TestScanStartPastLastKey(t *testing.T) {
	db := openCore(t, 64<<20, false)
	for i := uint64(0); i < 100; i++ {
		if err := db.Put(k8(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Start strictly above every written key, in the last partition.
	kvs, err := db.Scan(k8(^uint64(0)), 10)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(kvs) != 0 {
		t.Fatalf("scan past last key returned %d pairs", len(kvs))
	}
	// Start in the gap after the data but inside the first partition.
	kvs, err = db.Scan(k8(100), 10)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(kvs) != 0 {
		t.Fatalf("scan from gap returned %d pairs: first=%x", len(kvs), kvs[0].Key)
	}
}

func TestScanLimitExceedsDataset(t *testing.T) {
	db := openCore(t, 64<<20, false)
	const n = 64
	// Spread keys across all four partitions.
	for i := uint64(0); i < n; i++ {
		if err := db.Put(k8(i<<56), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	kvs, err := db.Scan(nil, 100000)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(kvs) != n {
		t.Fatalf("scan returned %d pairs, want %d", len(kvs), n)
	}
	for i := 1; i < len(kvs); i++ {
		if bytes.Compare(kvs[i-1].Key, kvs[i].Key) >= 0 {
			t.Fatalf("scan out of order at %d: %x >= %x", i, kvs[i-1].Key, kvs[i].Key)
		}
	}
}

// TestScanTombstoneShadowsLSMAtPartitionBoundary pins the trickiest merge
// case: a key demoted to the capacity tier, then deleted — so the zone
// tier holds an authoritative tombstone while the LSM still has the value —
// sitting exactly on the first key of a partition. A scan that crosses the
// boundary must suppress the key and keep everything around it.
func TestScanTombstoneShadowsLSMAtPartitionBoundary(t *testing.T) {
	db := openCore(t, 64<<20, false)
	boundary := uint64(1) << 62 // first key of partition 1 (4 partitions)
	if got := db.partFor(k8(boundary)).id; got != 1 {
		t.Fatalf("boundary key routed to partition %d, want 1", got)
	}
	if got := db.partFor(k8(boundary - 1)).id; got != 0 {
		t.Fatalf("boundary-1 key routed to partition %d, want 0", got)
	}

	put := func(i uint64, v string) {
		t.Helper()
		if err := db.Put(k8(i), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	put(boundary-1, "left")    // partition 0, stays in the zone tier
	put(boundary, "doomed")    // partition 1, will demote then die
	put(boundary+1, "stale")   // partition 1, will demote then be overwritten
	put(boundary+2, "lsmOnly") // partition 1, will demote and stay

	// Demote every key-range zone of partition 1 into its LSM.
	p := db.parts[1]
	for {
		z := p.zones.PickDemotionVictim()
		if z == nil {
			break
		}
		if err := db.demoteZone(p, z); err != nil {
			t.Fatalf("demote: %v", err)
		}
	}
	if _, _, _, found, err := p.tree.Get(k8(boundary), keys.MaxSeq, device.Fg); err != nil || !found {
		t.Fatalf("boundary key not in LSM after demotion (found=%v err=%v)", found, err)
	}
	if zoneHas(p, k8(boundary)) {
		t.Fatal("boundary key still in the zone tier after demotion")
	}

	// Zone-tier tombstone now shadows the LSM value at the boundary, and a
	// fresh zone-tier write shadows the stale LSM value one key later.
	if err := db.Delete(k8(boundary)); err != nil {
		t.Fatalf("delete: %v", err)
	}
	put(boundary+1, "fresh")

	if _, err := db.Get(k8(boundary)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get tombstoned key: %v, want ErrNotFound", err)
	}

	kvs, err := db.Scan(k8(boundary-1), 10)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	want := []struct {
		k uint64
		v string
	}{
		{boundary - 1, "left"},
		{boundary + 1, "fresh"},
		{boundary + 2, "lsmOnly"},
	}
	if len(kvs) != len(want) {
		var got []string
		for _, kv := range kvs {
			got = append(got, fmt.Sprintf("%x=%q", kv.Key, kv.Value))
		}
		t.Fatalf("scan across boundary returned %d pairs %v, want %d", len(kvs), got, len(want))
	}
	for i, w := range want {
		if !bytes.Equal(kvs[i].Key, k8(w.k)) || string(kvs[i].Value) != w.v {
			t.Fatalf("scan[%d] = %x=%q, want %x=%q", i, kvs[i].Key, kvs[i].Value, k8(w.k), w.v)
		}
	}
}

// TestScanDuringDemotionReturnsEveryKey pages through the whole keyspace, the
// way a replica bootstrap does, while another goroutine keeps overwriting
// keys and stepping migration and compaction on a tier a tenth the size of
// the data. No key is ever deleted, so every pass must return every key: a
// demotion moving an object between the scan's look at the zone index and
// its look at the tree, or freeing a slot between the index snapshot and the
// slot read, must not make an acked key invisible.
func TestScanDuringDemotionReturnsEveryKey(t *testing.T) {
	db := openCore(t, 2<<20, false)
	const n = 20000
	key := func(i int) []byte { return k8(uint64(i) << 49) }
	val := func(i, ver int) []byte { return []byte(fmt.Sprintf("%05d-%08d-%080d", i, ver, 0)) }
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), val(i, 0)); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		rng := rand.New(rand.NewSource(1))
		for ver := 1; ; {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			for j := 0; j < 64; j, ver = j+1, ver+1 {
				i := rng.Intn(n)
				if err := db.Put(key(i), val(i, ver)); err != nil {
					done <- err
					return
				}
			}
			for p := 0; p < db.Partitions(); p++ {
				if err := db.MigrationStep(p); err != nil {
					done <- err
					return
				}
				for {
					did, err := db.CompactionStep(p)
					if err != nil {
						done <- err
						return
					}
					if !did {
						break
					}
				}
			}
		}
	}()
	stopped := false
	stopWriter := func() error {
		stopped = true
		close(stop)
		return <-done
	}
	defer func() {
		if !stopped { // a failed pass: the writer must not outlive the test
			stopWriter()
		}
	}()

	for pass := 0; pass < 20; pass++ {
		next := 0
		for start := []byte(nil); ; {
			kvs, err := db.Scan(start, 1000)
			if err != nil {
				t.Fatalf("pass %d: %v", pass, err)
			}
			for _, kv := range kvs {
				if !bytes.Equal(kv.Key, key(next)) {
					t.Fatalf("pass %d: got key %x where key %d (%x) belongs", pass, kv.Key, next, key(next))
				}
				if !bytes.HasPrefix(kv.Value, []byte(fmt.Sprintf("%05d-", next))) {
					t.Fatalf("pass %d: key %d carries value %q", pass, next, kv.Value)
				}
				next++
			}
			if len(kvs) < 1000 {
				break
			}
			start = keys.Successor(kvs[len(kvs)-1].Key)
		}
		if next != n {
			t.Fatalf("pass %d returned %d of %d keys", pass, next, n)
		}
	}
	if err := stopWriter(); err != nil {
		t.Fatal(err)
	}
	if db.Stats().Zone.Migrations == 0 {
		t.Fatal("nothing was demoted while the scans ran")
	}
}

// TestScanReadsEachSlotPageOnce: a scan over zone-tier objects that share
// one slot page pays one NVMe read for them all, and caches the objects, so
// the scan repeated pays none. The keys it returns are the caller's: changing
// one does not change the index.
func TestScanReadsEachSlotPageOnce(t *testing.T) {
	db := openCore(t, 64<<20, false)
	const n = 16
	for i := uint64(0); i < n; i++ {
		if err := db.Put(k8(i), []byte(fmt.Sprintf("value-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	scan := func() (reads uint64) {
		before := db.NVMe().Counters().ReadOps.Load()
		kvs, err := db.Scan(nil, n)
		if err != nil || len(kvs) != n {
			t.Fatalf("scan: %d pairs, %v", len(kvs), err)
		}
		for i, kv := range kvs {
			if !bytes.Equal(kv.Key, k8(uint64(i))) || string(kv.Value) != fmt.Sprintf("value-%02d", i) {
				t.Fatalf("scan[%d] = %x=%q", i, kv.Key, kv.Value)
			}
			kv.Key[7] ^= 0xff
		}
		return db.NVMe().Counters().ReadOps.Load() - before
	}
	if r := scan(); r != 1 {
		t.Fatalf("the first scan took %d NVMe reads; want 1", r)
	}
	if r := scan(); r != 0 {
		t.Fatalf("the repeated scan took %d NVMe reads; want 0", r)
	}
}

// TestScanValuesOutlivePageReuse: a scan reads slot pages into buffers that
// go back to a pool when it ends, and the next scan reads other pages into
// them. The values the first scan returned are copies and stay as they were.
func TestScanValuesOutlivePageReuse(t *testing.T) {
	db := openCore(t, 64<<20, false)
	const n = 1024 // several slot pages
	value := func(i int) string { return fmt.Sprintf("value-%04d", i) }
	for i := 0; i < n; i++ {
		if err := db.Put(k8(uint64(i)), []byte(value(i))); err != nil {
			t.Fatal(err)
		}
	}
	kept, err := db.Scan(nil, n/4)
	if err != nil || len(kept) != n/4 {
		t.Fatalf("first scan: %d pairs, %v", len(kept), err)
	}
	reads := db.NVMe().Counters().ReadOps.Load()
	for from := n / 4; from < n; from += n / 4 {
		if _, err := db.Scan(k8(uint64(from)), n/4); err != nil {
			t.Fatal(err)
		}
	}
	if db.NVMe().Counters().ReadOps.Load() == reads {
		t.Fatal("the later scans read no slot page")
	}
	for i, kv := range kept {
		if string(kv.Value) != value(i) {
			t.Fatalf("scan[%d] changed from %q to %q", i, value(i), kv.Value)
		}
	}
}
