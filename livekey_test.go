package hyperdb_test

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyperdb"
)

// TestMultiGetNeverMissesALiveKey races readers against a writer that keeps
// rewriting keys which exist from the first preload to the end: no Get may
// answer ErrNotFound and no MultiGet nil for one of them. A cache far smaller
// than the data keeps the reads on the slot pages, where a GET racing a PUT
// to the same key used to lose it (MultiGet is the path every served GET
// takes).
func TestMultiGetNeverMissesALiveKey(t *testing.T) {
	db, err := hyperdb.Open(hyperdb.Options{
		Unthrottled: true, NVMeCapacity: 64 << 20, SATACapacity: 1 << 30,
		Partitions: 2, CacheBytes: 256 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const n, hot = 2000, 16
	small, large := bytes.Repeat([]byte{'s'}, 24), bytes.Repeat([]byte{'L'}, 300)
	for i := uint64(0); i < n; i++ {
		if err := db.Put(key(i<<32), small); err != nil {
			t.Fatal(err)
		}
	}
	hotKeys := make([][]byte, hot)
	for i := range hotKeys {
		hotKeys[i] = key(uint64(i*(n/hot)) << 32)
	}

	var stop atomic.Bool
	var reads atomic.Uint64
	var wg sync.WaitGroup
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
		stop.Store(true)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			k := hotKeys[i%hot]
			if v, err := db.Get(k); err != nil || len(v) == 0 {
				fail("read %d: Get(%x) = %q, %v", reads.Load(), k, v, err)
			}
			reads.Add(1)
		}
	}()
	go func() {
		defer wg.Done()
		for !stop.Load() {
			vals, err := db.MultiGet(hotKeys)
			if err != nil {
				fail("MultiGet: %v", err)
			}
			for i, v := range vals {
				if len(v) == 0 {
					fail("read %d: MultiGet lost %x", reads.Load(), hotKeys[i])
				}
			}
			reads.Add(hot)
		}
	}()
	// The writer: every hot key in turn, in place and resized, with the cold
	// keys churned in between so the hot ones keep falling out of the caches.
	i := uint64(0)
	for end := time.Now().Add(time.Second); time.Now().Before(end) && !stop.Load(); i++ {
		v := small
		if i/hot%2 == 1 {
			v = large
		}
		if err := db.Put(hotKeys[i%hot], v); err != nil {
			fail("put: %v", err)
		}
		if err := db.Put(key((i*7919%n)<<32|1), small); err != nil {
			fail("churn: %v", err)
		}
	}
	stop.Store(true)
	wg.Wait()
	t.Logf("%d reads against %d rewrites", reads.Load(), i)
}

// TestOpenTwiceOnSameDevices: Open opens what the devices hold. A store that
// was written and closed comes back whole — every key, every tombstone and
// the commit sequence — from a second Open on the same devices.
func TestOpenTwiceOnSameDevices(t *testing.T) {
	opts := hyperdb.Options{Unthrottled: true, NVMeCapacity: 1 << 20, SATACapacity: 1 << 30, Partitions: 2, MigrationBatch: 128 << 10, DisableBackground: true}
	db, err := hyperdb.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.NVMeDevice, opts.SATADevice = db.NVMe(), db.SATA()
	const n = 12000
	for i := uint64(0); i < n; i++ {
		if err := db.Put(key(i), bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < n; i += 10 {
		if err := db.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	if db.Stats().Zone.Migrations == 0 {
		t.Fatal("test setup: nothing reached the capacity tier")
	}
	seq := db.CommitSeq()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := hyperdb.Open(opts)
	if err != nil {
		t.Fatalf("second Open on the same devices: %v", err)
	}
	defer re.Close()
	if re.CommitSeq() != seq {
		t.Fatalf("CommitSeq %d after reopening, %d before", re.CommitSeq(), seq)
	}
	for i := uint64(0); i < n; i++ {
		v, err := re.Get(key(i))
		if i%10 == 0 {
			if !errors.Is(err, hyperdb.ErrNotFound) {
				t.Fatalf("deleted key %d after reopening: %q, %v", i, v, err)
			}
		} else if err != nil || len(v) != 64 || v[0] != byte(i) {
			t.Fatalf("key %d after reopening: %q, %v", i, v, err)
		}
	}
}
