package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"hyperdb/internal/device"
	"hyperdb/internal/hotness"
)

func TestWriteBatchEmpty(t *testing.T) {
	db := openCore(t, 64<<20, false)
	if err := db.WriteBatch(nil); err != nil {
		t.Fatalf("nil batch: %v", err)
	}
	if err := db.WriteBatch([]BatchOp{}); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	vals, err := db.MultiGet(nil)
	if err != nil || len(vals) != 0 {
		t.Fatalf("empty MultiGet: %v %v", vals, err)
	}
}

func TestWriteBatchEmptyKeyRejected(t *testing.T) {
	db := openCore(t, 64<<20, false)
	err := db.WriteBatch([]BatchOp{
		{Key: k8(1), Value: []byte("a")},
		{Key: nil, Value: []byte("b")},
	})
	if err == nil {
		t.Fatal("empty key accepted")
	}
	// Validation is up-front: nothing from the batch may have applied.
	if _, err := db.Get(k8(1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("prefix applied despite validation error: %v", err)
	}
}

func TestWriteBatchDuplicateKeysLastWins(t *testing.T) {
	db := openCore(t, 64<<20, false)
	k := k8(7)
	if err := db.WriteBatch([]BatchOp{
		{Key: k, Value: []byte("first")},
		{Key: k, Value: []byte("second")},
		{Key: k, Delete: true},
		{Key: k, Value: []byte("final")},
	}); err != nil {
		t.Fatal(err)
	}
	if v, err := db.Get(k); err != nil || string(v) != "final" {
		t.Fatalf("got %q %v, want final", v, err)
	}
	// A batch ending in a delete leaves the key gone.
	if err := db.WriteBatch([]BatchOp{
		{Key: k, Value: []byte("alive")},
		{Key: k, Delete: true},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get(k); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound after trailing delete, got %v", err)
	}
}

func TestWriteBatchSpansAllPartitions(t *testing.T) {
	db := openCore(t, 64<<20, false) // 4 partitions
	var ops []BatchOp
	const perPart = 8
	for i := 0; i < 4; i++ {
		for j := 0; j < perPart; j++ {
			k := k8(uint64(i)<<62 | uint64(j))
			ops = append(ops, BatchOp{Key: k, Value: []byte(fmt.Sprintf("p%d-%d", i, j))})
		}
	}
	if err := db.WriteBatch(ops); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, op := range ops {
		seen[db.partFor(op.Key).id] = true
	}
	if len(seen) != 4 {
		t.Fatalf("batch spread over %d partitions, want 4", len(seen))
	}
	keyList := make([][]byte, len(ops))
	for i := range ops {
		keyList[i] = ops[i].Key
	}
	vals, err := db.MultiGet(keyList)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if !bytes.Equal(v, ops[i].Value) {
			t.Fatalf("key %x: got %q want %q", ops[i].Key, v, ops[i].Value)
		}
	}
}

func TestMultiGetMissesAndTombstones(t *testing.T) {
	db := openCore(t, 64<<20, false)
	if err := db.Put(k8(1), []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := db.Put(k8(2), []byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(k8(2)); err != nil {
		t.Fatal(err)
	}
	vals, err := db.MultiGet([][]byte{k8(1), k8(2), k8(3)})
	if err != nil {
		t.Fatal(err)
	}
	if string(vals[0]) != "one" {
		t.Fatalf("vals[0]=%q", vals[0])
	}
	if vals[1] != nil {
		t.Fatalf("deleted key returned %q", vals[1])
	}
	if vals[2] != nil {
		t.Fatalf("missing key returned %q", vals[2])
	}
}

func TestWriteBatchStallFreesSpace(t *testing.T) {
	// NVMe far too small for the workload: batches must hit ErrNoSpace
	// internally, stall-demote, and resume from the failed op with their
	// original sequences.
	db := openCore(t, 2<<20, false)
	rng := rand.New(rand.NewSource(9))
	const batch = 64
	for i := 0; i < 400; i++ {
		ops := make([]BatchOp, batch)
		for j := range ops {
			ops[j] = BatchOp{Key: k8(rng.Uint64()), Value: make([]byte, 100)}
		}
		if err := db.WriteBatch(ops); err != nil {
			t.Fatalf("batch %d: %v", i, err)
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

// TestHotPathStress hammers a single partition from 16 goroutines with
// mixed Put/Get/Delete/WriteBatch/MultiGet while the background migration
// and compaction workers run. Its value is under -race: it exercises the
// striped tracker, the atomic device ledger, the value cache, and the batch
// paths against concurrent demotion and promotion.
func TestHotPathStress(t *testing.T) {
	db, err := Open(Options{
		NVMeDevice:     device.New(device.UnthrottledProfile("nvme", 4<<20)),
		SATADevice:     device.New(device.UnthrottledProfile("sata", 1<<30)),
		Partitions:     1, // one partition: all goroutines contend on one tracker/zone manager
		CacheBytes:     1 << 20,
		MigrationBatch: 64 << 10,
		Tracker:        hotness.Config{WindowCapacity: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	iters := 300
	if testing.Short() {
		iters = 60
	}
	const workers = 16
	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			key := func() []byte { return k8(uint64(rng.Intn(4096))) }
			for i := 0; i < iters; i++ {
				switch rng.Intn(10) {
				case 0:
					if err := db.Delete(key()); err != nil {
						errCh <- err
						return
					}
				case 1, 2:
					if _, err := db.Get(key()); err != nil && !errors.Is(err, ErrNotFound) {
						errCh <- err
						return
					}
				case 3, 4:
					keyList := make([][]byte, 16)
					for j := range keyList {
						keyList[j] = key()
					}
					if _, err := db.MultiGet(keyList); err != nil {
						errCh <- err
						return
					}
				case 5, 6:
					ops := make([]BatchOp, 16)
					for j := range ops {
						ops[j] = BatchOp{Key: key(), Value: make([]byte, 64+rng.Intn(64))}
						if rng.Intn(8) == 0 {
							ops[j].Delete = true
						}
					}
					if err := db.WriteBatch(ops); err != nil {
						errCh <- err
						return
					}
				default:
					if err := db.Put(key(), make([]byte, 64+rng.Intn(64))); err != nil {
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

	// The DB must still be coherent: a final write-read round trip.
	k := k8(1)
	if err := db.Put(k, []byte("survivor")); err != nil {
		t.Fatal(err)
	}
	if v, err := db.Get(k); err != nil || string(v) != "survivor" {
		t.Fatalf("post-stress get: %q %v", v, err)
	}
}

// TestOneOpCallsAllocateNothing: Put, Delete and Get are the one-op forms of
// WriteBatch and MultiGet, and the benchmark workloads write through Put, so
// a one-op batch must cost nothing on the heap. Without a tee, an update in
// place, a delete and a prebuilt one-op WriteBatch allocate nothing; a Get
// allocates the copy it returns, and a one-key MultiGet that and its result
// slice.
func TestOneOpCallsAllocateNothing(t *testing.T) {
	db := openCore(t, 64<<20, false)
	key, value := k8(1<<60), []byte("value")
	if err := db.Put(key, value); err != nil {
		t.Fatal(err)
	}
	batch := []BatchOp{{Key: key, Value: value}}
	for _, c := range []struct {
		name string
		max  float64
		call func() error
	}{
		{"Put", 0, func() error { return db.Put(key, value) }},
		{"WriteBatch", 0, func() error { return db.WriteBatch(batch) }},
		{"Get", 1, func() error { _, err := db.Get(key); return err }},
		{"MultiGet", 2, func() error { _, err := db.MultiGet([][]byte{key}); return err }},
		{"Delete", 0, func() error { return db.Delete(key) }},
	} {
		var err error
		allocs := testing.AllocsPerRun(100, func() {
			if e := c.call(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if allocs > c.max {
			t.Errorf("%s: %.1f allocations per call, want at most %.0f", c.name, allocs, c.max)
		}
	}
}
