package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"hyperdb/internal/device"
	"hyperdb/internal/hotness"
)

func openCoreWith(t testing.TB, mutate func(*Options)) *DB {
	t.Helper()
	opts := Options{
		NVMeDevice:        device.New(device.UnthrottledProfile("nvme", 64<<20)),
		SATADevice:        device.New(device.UnthrottledProfile("sata", 1<<30)),
		Partitions:        4,
		CacheBytes:        2 << 20,
		MigrationBatch:    128 << 10,
		DisableBackground: true,
		Tracker:           hotness.Config{WindowCapacity: 512},
	}
	if mutate != nil {
		mutate(&opts)
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestFollowerRejectsForegroundWrites(t *testing.T) {
	db := openCoreWith(t, func(o *Options) { o.Follower = true })
	if !db.IsFollower() {
		t.Fatal("not in follower mode")
	}
	if err := db.Put(k8(1), []byte("v")); !errors.Is(err, ErrFollower) {
		t.Fatalf("Put: %v, want ErrFollower", err)
	}
	if err := db.Delete(k8(1)); !errors.Is(err, ErrFollower) {
		t.Fatalf("Delete: %v, want ErrFollower", err)
	}
	if err := db.WriteBatch([]BatchOp{{Key: k8(1), Value: []byte("v")}}); !errors.Is(err, ErrFollower) {
		t.Fatalf("WriteBatch: %v, want ErrFollower", err)
	}

	// The replicated path is the only write path, and reads serve from it.
	if err := db.ApplyReplicated([]BatchOp{{Key: k8(1), Value: []byte("r1")}}, 1); err != nil {
		t.Fatal(err)
	}
	if v, err := db.Get(k8(1)); err != nil || string(v) != "r1" {
		t.Fatalf("get after apply: %q %v", v, err)
	}
	vals, err := db.MultiGet([][]byte{k8(1), k8(2)})
	if err != nil || string(vals[0]) != "r1" || vals[1] != nil {
		t.Fatalf("multiget: %q %v", vals, err)
	}
}

func TestApplyReplicatedOrderingAndPromote(t *testing.T) {
	db := openCoreWith(t, func(o *Options) { o.Follower = true })
	if err := db.ApplyReplicated([]BatchOp{
		{Key: k8(1), Value: []byte("a1")},
		{Key: k8(2), Value: []byte("b1")},
	}, 1); err != nil {
		t.Fatal(err)
	}
	if err := db.ApplyReplicated([]BatchOp{
		{Key: k8(1), Value: []byte("a2")},
		{Key: k8(2), Delete: true},
	}, 3); err != nil {
		t.Fatal(err)
	}
	if got := db.CommitSeq(); got != 4 {
		t.Fatalf("CommitSeq = %d, want 4", got)
	}
	if v, err := db.Get(k8(1)); err != nil || string(v) != "a2" {
		t.Fatalf("k1: %q %v", v, err)
	}
	if _, err := db.Get(k8(2)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("k2 not deleted: %v", err)
	}

	// Promotion flips the node to primary: foreground writes work and mint
	// sequences above everything applied; the replicated path shuts off.
	db.Promote()
	if db.IsFollower() {
		t.Fatal("still follower after Promote")
	}
	if err := db.Put(k8(3), []byte("local")); err != nil {
		t.Fatal(err)
	}
	if got := db.CommitSeq(); got != 5 {
		t.Fatalf("post-promote CommitSeq = %d, want 5", got)
	}
	if err := db.ApplyReplicated([]BatchOp{{Key: k8(4), Value: []byte("x")}}, 6); err == nil {
		t.Fatal("ApplyReplicated accepted on a primary")
	}
	if err := db.ApplySnapshotChunk([]BatchOp{{Key: k8(4), Value: []byte("x")}}, 6); err == nil {
		t.Fatal("ApplySnapshotChunk accepted on a primary")
	}
}

func TestApplyReplicatedMalformed(t *testing.T) {
	db := openCoreWith(t, func(o *Options) { o.Follower = true })
	if err := db.ApplyReplicated(nil, 1); err == nil {
		t.Fatal("empty entry accepted")
	}
	if err := db.ApplyReplicated([]BatchOp{{Key: k8(1), Value: []byte("v")}}, 0); err == nil {
		t.Fatal("base 0 accepted")
	}
	if err := db.ApplyReplicated([]BatchOp{{Key: nil, Value: []byte("v")}}, 1); err == nil {
		t.Fatal("empty key accepted")
	}
	if err := db.ApplySnapshotChunk([]BatchOp{{Key: nil}}, 1); err == nil {
		t.Fatal("empty snapshot key accepted")
	}
}

func TestApplyReplicatedRejectsNonIncreasingBase(t *testing.T) {
	// A base taken straight off the wire must not be able to reach the
	// replication tee's ordering panic: a stale or duplicate base errors
	// the stream instead of crashing the follower process.
	db := openCoreWith(t, func(o *Options) {
		o.Follower = true
		o.Tee = &recordTee{}
	})
	if err := db.ApplyReplicated([]BatchOp{
		{Key: k8(1), Value: []byte("a")},
		{Key: k8(2), Value: []byte("b")},
	}, 5); err != nil { // covers 5..6
		t.Fatal(err)
	}
	for _, base := range []uint64{5, 6, 3} {
		if err := db.ApplyReplicated([]BatchOp{{Key: k8(3), Value: []byte("x")}}, base); err == nil {
			t.Fatalf("non-increasing base %d accepted", base)
		}
	}
	if err := db.ApplyReplicated([]BatchOp{{Key: k8(3), Value: []byte("x")}}, 7); err != nil {
		t.Fatalf("advancing base rejected: %v", err)
	}
	// A snapshot bootstrap resets the position: the tail may legitimately
	// restart below previously applied sequences after a forced re-bootstrap.
	if err := db.ApplySnapshotChunk([]BatchOp{{Key: k8(4), Value: []byte("s")}}, 4); err != nil {
		t.Fatal(err)
	}
	if err := db.ApplyReplicated([]BatchOp{{Key: k8(5), Value: []byte("y")}}, 5); err != nil {
		t.Fatalf("post-bootstrap base rejected: %v", err)
	}
}

func TestApplySnapshotChunkThenTail(t *testing.T) {
	db := openCoreWith(t, func(o *Options) { o.Follower = true })
	// Bootstrap: every snapshot pair lands at the pinned sequence.
	if err := db.ApplySnapshotChunk([]BatchOp{
		{Key: k8(1), Value: []byte("snap1")},
		{Key: k8(2), Value: []byte("snap2")},
	}, 5); err != nil {
		t.Fatal(err)
	}
	if got := db.CommitSeq(); got != 5 {
		t.Fatalf("CommitSeq = %d, want 5", got)
	}
	// Tail entries above the pin override snapshot values; untouched keys
	// keep theirs.
	if err := db.ApplyReplicated([]BatchOp{{Key: k8(1), Value: []byte("tail")}}, 6); err != nil {
		t.Fatal(err)
	}
	if v, err := db.Get(k8(1)); err != nil || string(v) != "tail" {
		t.Fatalf("k1: %q %v", v, err)
	}
	if v, err := db.Get(k8(2)); err != nil || string(v) != "snap2" {
		t.Fatalf("k2: %q %v", v, err)
	}
}

// recordTee captures Append calls for ordering assertions.
type recordTee struct {
	mu      sync.Mutex
	bases   []uint64
	counts  []int
	next    uint64
	commits map[uint64]bool
}

func (r *recordTee) Append(base uint64, ops []BatchOp) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bases = append(r.bases, base)
	r.counts = append(r.counts, len(ops))
	r.next++
	return r.next
}

func (r *recordTee) Commit(tok uint64, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.commits == nil {
		r.commits = make(map[uint64]bool)
	}
	r.commits[tok] = ok
}

// TestTeeOrderedUnderConcurrency drives concurrent writers and checks the
// tee invariant the replication log depends on: Append arrives in strictly
// increasing base order with no sequence gaps between entries.
func TestTeeOrderedUnderConcurrency(t *testing.T) {
	tee := &recordTee{}
	db := openCoreWith(t, func(o *Options) { o.Tee = tee })

	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				var err error
				switch i % 3 {
				case 0:
					err = db.Put(k8(uint64(w*1000+i)), []byte("v"))
				case 1:
					err = db.WriteBatch([]BatchOp{
						{Key: k8(uint64(w*1000 + i)), Value: []byte("b")},
						{Key: k8(uint64(w*1000 + i + 500)), Delete: true},
					})
				default:
					err = db.Delete(k8(uint64(w*1000 + i)))
				}
				if err != nil {
					t.Errorf("writer %d op %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	tee.mu.Lock()
	defer tee.mu.Unlock()
	if len(tee.bases) != writers*perWriter {
		t.Fatalf("tee saw %d entries, want %d", len(tee.bases), writers*perWriter)
	}
	want := uint64(1)
	for i, base := range tee.bases {
		if base != want {
			t.Fatalf("entry %d: base %d, want %d (log has a gap or reorder)", i, base, want)
		}
		want += uint64(tee.counts[i])
	}
	if want-1 != db.CommitSeq() {
		t.Fatalf("log covers through %d, CommitSeq %d", want-1, db.CommitSeq())
	}
	for tok := uint64(1); tok <= uint64(len(tee.bases)); tok++ {
		if ok, found := tee.commits[tok]; !found || !ok {
			t.Fatalf("token %d: committed=%v found=%v", tok, ok, found)
		}
	}
}

// TestTeeFailedBatchAborted checks that a batch rejected up-front never
// reaches the tee, so the replication log only carries real writes.
func TestTeeFailedBatchAborted(t *testing.T) {
	tee := &recordTee{}
	db := openCoreWith(t, func(o *Options) { o.Tee = tee })
	if err := db.WriteBatch([]BatchOp{{Key: nil, Value: []byte("v")}}); err == nil {
		t.Fatal("empty key accepted")
	}
	tee.mu.Lock()
	defer tee.mu.Unlock()
	if len(tee.bases) != 0 {
		t.Fatalf("invalid batch reached the tee: %v", tee.bases)
	}
}

func TestMultiGetDuplicateKeysInOneCall(t *testing.T) {
	db := openCore(t, 64<<20, false)
	if err := db.Put(k8(1), []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := db.Put(k8(2), []byte("two")); err != nil {
		t.Fatal(err)
	}
	// The same key repeated (including interleaved with others and with a
	// missing key) must fill every requested position independently.
	keys := [][]byte{k8(1), k8(2), k8(1), k8(9), k8(1), k8(2)}
	vals, err := db.MultiGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"one", "two", "one", "", "one", "two"}
	for i, w := range want {
		got := string(vals[i])
		if w == "" {
			if vals[i] != nil {
				t.Fatalf("pos %d: got %q, want nil", i, got)
			}
			continue
		}
		if got != w {
			t.Fatalf("pos %d: got %q, want %q", i, got, w)
		}
	}
}

func TestWriteBatchPutDeleteInterleaveLWW(t *testing.T) {
	// Run both with and without a tee: the tee routes singles through the
	// batch path, and last-write-wins must hold identically.
	for _, withTee := range []bool{false, true} {
		t.Run(fmt.Sprintf("tee=%v", withTee), func(t *testing.T) {
			db := openCoreWith(t, func(o *Options) {
				if withTee {
					o.Tee = &recordTee{}
				}
			})
			kA, kB := k8(100), k8(200)
			if err := db.WriteBatch([]BatchOp{
				{Key: kA, Value: []byte("a1")},
				{Key: kB, Value: []byte("b1")},
				{Key: kA, Delete: true},
				{Key: kB, Value: []byte("b2")},
				{Key: kA, Value: []byte("a2")},
				{Key: kB, Delete: true},
			}); err != nil {
				t.Fatal(err)
			}
			if v, err := db.Get(kA); err != nil || string(v) != "a2" {
				t.Fatalf("kA: %q %v, want a2", v, err)
			}
			if _, err := db.Get(kB); !errors.Is(err, ErrNotFound) {
				t.Fatalf("kB: %v, want ErrNotFound", err)
			}
			// A second batch re-deleting then reviving the same key.
			if err := db.WriteBatch([]BatchOp{
				{Key: kA, Delete: true},
				{Key: kA, Value: []byte("a3")},
			}); err != nil {
				t.Fatal(err)
			}
			if v, err := db.Get(kA); err != nil || string(v) != "a3" {
				t.Fatalf("kA round 2: %q %v, want a3", v, err)
			}
		})
	}
}
