package repl

import (
	"errors"
	"fmt"
	"testing"

	"hyperdb/internal/core"
	"hyperdb/internal/device"
	"hyperdb/internal/hotness"
	"hyperdb/internal/merkle"
	"hyperdb/internal/wire"
)

// openStoreAE is openStore with the anti-entropy Merkle tree enabled.
func openStoreAE(t testing.TB, follower bool, tee core.Tee) *core.DB {
	t.Helper()
	db, err := core.Open(core.Options{
		NVMeDevice:        device.New(device.UnthrottledProfile("nvme", 64<<20)),
		SATADevice:        device.New(device.UnthrottledProfile("sata", 1<<30)),
		Partitions:        2,
		CacheBytes:        2 << 20,
		MigrationBatch:    128 << 10,
		DisableBackground: true,
		Tracker:           hotness.Config{WindowCapacity: 512},
		Follower:          follower,
		Tee:               tee,
		AntiEntropy:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// aeKey spreads keys across the Merkle leaf space: the first byte is a
// multiplicative hash of i, so a 2000-key dataset covers ~250 leaves and a
// 10-key divergence touches ~10 — the gap the O(divergence) assertion
// measures.
func aeKey(i int) []byte {
	h := byte(uint32(i) * 2654435761 >> 24)
	return append([]byte{h}, fmt.Sprintf("-ae-%05d", i)...)
}

func TestAntiEntropyRejoinTransfersOnlyDivergence(t *testing.T) {
	// A follower tails a 2000-key dataset, disconnects, and misses an
	// update burst confined to 10 keys that nonetheless pushes it off the
	// retained window. The rejoin must run the Merkle conversation and
	// transfer O(divergence) — a small fraction of the dataset — yet
	// converge byte-identically, deletions included. SyncAck keeps the
	// attached load inside the tiny window; with no peers connected the
	// churn phase commits immediately and truncates freely.
	log := NewLog(LogConfig{MaxEntries: 8, SyncAck: true})
	pdb := openStoreAE(t, false, log)
	fdb := openStoreAE(t, true, nil)
	prim := &Primary{DB: pdb, Log: log, SnapshotPairs: 64, Tree: pdb.MerkleTree()}
	fol := &Follower{DB: fdb, Tree: fdb.MerkleTree()}
	if prim.Tree == nil || fol.Tree == nil {
		t.Fatal("AntiEntropy stores did not build Merkle trees")
	}
	stop, _, fdone := startPair(prim, fol)

	waitFor(t, "follower registration", func() bool { return len(log.Status().Peers) == 1 })
	const n = 2000
	for i := 0; i < n; i++ {
		if err := pdb.Put(aeKey(i), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "follower to catch up", func() bool { return fdb.CommitSeq() == pdb.CommitSeq() })
	if got := prim.AEStatsSnapshot(); got.AESessions != 0 {
		t.Fatalf("anti-entropy ran during the initial tail attach: %+v", got)
	}

	// Disconnect, then churn 10 keys hard enough to truncate the log far
	// past the follower's position: overwrites, one delete, one new key.
	close(stop)
	if err := <-fdone; err != nil {
		t.Fatalf("first run: %v", err)
	}
	for round := 0; round < 50; round++ {
		for i := 0; i < 9; i++ {
			if err := pdb.Put(aeKey(i), []byte(fmt.Sprintf("round-%d-%d", round, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := pdb.Delete(aeKey(4)); err != nil {
		t.Fatal(err)
	}
	if err := pdb.Put(aeKey(n), []byte("brand-new")); err != nil {
		t.Fatal(err)
	}
	if log.Floor() <= fdb.CommitSeq() {
		t.Fatalf("churn did not push the floor (%d) past the follower (%d); test is vacuous", log.Floor(), fdb.CommitSeq())
	}

	// Reattach: the follower advertises anti-entropy and holds state, so
	// the primary must choose the Merkle conversation.
	stop2, _, fdone2 := startPair(prim, fol)
	defer func() { close(stop2); <-fdone2 }()
	waitFor(t, "lag to converge after anti-entropy rejoin", func() bool {
		st := log.Status()
		return len(st.Peers) == 1 && st.Peers[0].Lag == 0
	})

	if _, err := fdb.Get(aeKey(4)); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("deleted key survived the rejoin: %v", err)
	}
	if v, err := fdb.Get(aeKey(n)); err != nil || string(v) != "brand-new" {
		t.Fatalf("missed-gap key: %q %v", v, err)
	}
	assertStoresConverged(t, pdb, fdb)

	// Transfer accounting: one anti-entropy session ran, it fetched a
	// handful of leaves, and its payload is a small fraction of what a full
	// snapshot would have moved.
	st := prim.AEStatsSnapshot()
	if st.AESessions != 1 {
		t.Fatalf("AESessions = %d, want 1", st.AESessions)
	}
	if st.AEBytes == 0 || st.AENodes == 0 || st.AELeaves == 0 {
		t.Fatalf("anti-entropy counters empty: %+v", st)
	}
	if st.AELeaves > 30 {
		t.Fatalf("fetched %d leaves for a 10-key divergence", st.AELeaves)
	}
	var datasetBytes uint64
	kvs, err := pdb.Scan(nil, 2*n)
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range kvs {
		datasetBytes += uint64(len(kv.Key) + len(kv.Value))
	}
	if st.AEBytes*5 >= datasetBytes {
		t.Fatalf("anti-entropy moved %d of %d dataset bytes — not O(divergence)", st.AEBytes, datasetBytes)
	}

	// Tailing still works after the repair handoff.
	if err := pdb.Put([]byte("post-ae"), []byte("new")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-rejoin tail apply", func() bool {
		_, err := fdb.Get([]byte("post-ae"))
		return err == nil
	})
}

func TestAntiEntropyNoDivergenceFetchesNothing(t *testing.T) {
	// The follower falls off the window, but the writes it missed rewrote
	// identical values: its data matches the primary exactly. The Merkle
	// walk must prove that from the root alone and fetch zero ranges.
	log := NewLog(LogConfig{MaxEntries: 8, SyncAck: true})
	pdb := openStoreAE(t, false, log)
	fdb := openStoreAE(t, true, nil)
	prim := &Primary{DB: pdb, Log: log, Tree: pdb.MerkleTree()}
	fol := &Follower{DB: fdb, Tree: fdb.MerkleTree()}
	stop, _, fdone := startPair(prim, fol)

	waitFor(t, "follower registration", func() bool { return len(log.Status().Peers) == 1 })
	for i := 0; i < 100; i++ {
		if err := pdb.Put(aeKey(i), []byte("stable")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "follower to catch up", func() bool { return fdb.CommitSeq() == pdb.CommitSeq() })

	close(stop)
	if err := <-fdone; err != nil {
		t.Fatalf("first run: %v", err)
	}
	// Same keys, same values: data unchanged, sequences marching on.
	for round := 0; round < 30; round++ {
		for i := 0; i < 5; i++ {
			if err := pdb.Put(aeKey(i), []byte("stable")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if log.Floor() <= fdb.CommitSeq() {
		t.Fatal("rewrites did not push the floor past the follower; test is vacuous")
	}

	stop2, _, fdone2 := startPair(prim, fol)
	defer func() { close(stop2); <-fdone2 }()
	waitFor(t, "lag to converge after empty rejoin", func() bool {
		st := log.Status()
		return len(st.Peers) == 1 && st.Peers[0].Lag == 0
	})

	st := prim.AEStatsSnapshot()
	if st.AESessions != 1 {
		t.Fatalf("AESessions = %d, want 1", st.AESessions)
	}
	if st.AEBytes != 0 || st.AELeaves != 0 {
		t.Fatalf("identical replicas still transferred data: %+v", st)
	}
	assertStoresConverged(t, pdb, fdb)
}

func TestFreshFollowerStillFullSnapshotsWithTree(t *testing.T) {
	// A follower with the capability but no state (lastApplied 0) has
	// nothing to diff against — the primary must fall back to the plain
	// snapshot stream.
	log := NewLog(LogConfig{MaxEntries: 8})
	pdb := openStoreAE(t, false, log)
	for i := 0; i < 200; i++ {
		if err := pdb.Put(aeKey(i), []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if log.Floor() == 0 {
		t.Fatal("pre-load did not truncate the log; test is vacuous")
	}

	fdb := openStoreAE(t, true, nil)
	prim := &Primary{DB: pdb, Log: log, Tree: pdb.MerkleTree()}
	fol := &Follower{DB: fdb, Tree: fdb.MerkleTree()}
	stop, _, fdone := startPair(prim, fol)
	defer func() { close(stop); <-fdone }()
	waitFor(t, "lag to converge after snapshot", func() bool {
		st := log.Status()
		return len(st.Peers) == 1 && st.Peers[0].Lag == 0
	})

	st := prim.AEStatsSnapshot()
	if st.AESessions != 0 {
		t.Fatalf("fresh follower ran anti-entropy: %+v", st)
	}
	if st.SnapshotBytes == 0 {
		t.Fatal("full snapshot moved no bytes")
	}
	assertStoresConverged(t, pdb, fdb)
}

func TestWireTreeBitsCoverMerkle(t *testing.T) {
	// The wire layer bounds advertised tree geometry without importing the
	// merkle package; this pins the two limits together.
	var root [wire.TreeHashLen]byte
	if _, _, err := wire.DecodeTreeRoot(wire.AppendTreeRoot(nil, merkle.MaxBits, root)); err != nil {
		t.Fatalf("wire rejects merkle.MaxBits=%d: %v", merkle.MaxBits, err)
	}
	if _, _, err := wire.DecodeTreeRoot(wire.AppendTreeRoot(nil, merkle.MaxBits+1, root)); err == nil {
		t.Fatal("wire accepts tree bits beyond merkle.MaxBits")
	}
}
