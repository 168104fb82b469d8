package repl

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"hyperdb/internal/core"
	"hyperdb/internal/merkle"
	"hyperdb/internal/wire"
)

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
	pdb := openStore(t, false, log)
	fdb := openStore(t, true, nil)
	prim := &Primary{DB: pdb, Log: log, SnapshotPairs: 64}
	fol := &Follower{DB: fdb}
	stop, _, fdone := startPair(prim, fol)

	waitFor(t, "follower registration", func() bool { return len(log.Status().Peers) == 1 })
	// 1 KiB values: a device charges whole 512-byte sectors, so with values
	// of a few bytes one repaired key would cost its device more than the
	// pair holds, and the write bound below would measure that rounding.
	const n = 2000
	for i := 0; i < n; i++ {
		if err := pdb.Put(aeKey(i), fmt.Appendf(bytes.Repeat([]byte{'.'}, 1<<10), "val-%d", i)); err != nil {
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

	// Reattach: the follower holds state, so the primary must choose the
	// Merkle conversation.
	written := func() uint64 {
		return fdb.NVMe().Counters().Snapshot().WriteBytes + fdb.SATA().Counters().Snapshot().WriteBytes
	}
	before := written()
	stop2, _, fdone2 := startPair(prim, fol)
	defer func() { close(stop2); <-fdone2 }()
	waitFor(t, "lag to converge after anti-entropy rejoin", func() bool {
		st := log.Status()
		return len(st.Peers) == 1 && st.Peers[0].Lag == 0
	})
	// Tailing works after the repair handoff, and a tailed write applying
	// shows the follower has finished the repair: the primary counts it
	// attached once the last chunk is sent, before that chunk's sweep.
	if err := pdb.Put([]byte("post-ae"), []byte("new")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-rejoin tail apply", func() bool {
		_, err := fdb.Get([]byte("post-ae"))
		return err == nil
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
	// The follower's devices took the repair, not a rewrite of its store.
	w := written() - before
	if w*5 >= datasetBytes {
		t.Fatalf("the rejoin wrote %d bytes to the follower's devices for a %d-byte dataset", w, datasetBytes)
	}
	t.Logf("rejoin: %d pair bytes over %d leaves, %d bytes written to the follower's devices, dataset %d bytes", st.AEBytes, st.AELeaves, w, datasetBytes)
}

func TestAntiEntropyNoDivergenceFetchesNothing(t *testing.T) {
	// The follower falls off the window, but the writes it missed rewrote
	// identical values: its data matches the primary exactly. The Merkle
	// walk must prove that from the root alone and fetch zero ranges.
	log := NewLog(LogConfig{MaxEntries: 8, SyncAck: true})
	pdb := openStore(t, false, log)
	fdb := openStore(t, true, nil)
	prim := &Primary{DB: pdb, Log: log}
	fol := &Follower{DB: fdb}
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

func TestFreshFollowerStreamsWithoutAWalk(t *testing.T) {
	// A follower with no state (lastApplied 0) has nothing to diff against:
	// the primary streams the whole keyspace without hashing it.
	log := NewLog(LogConfig{MaxEntries: 8})
	pdb := openStore(t, false, log)
	for i := 0; i < 200; i++ {
		if err := pdb.Put(aeKey(i), []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if log.Floor() == 0 {
		t.Fatal("pre-load did not truncate the log; test is vacuous")
	}

	fdb := openStore(t, true, nil)
	prim := &Primary{DB: pdb, Log: log}
	fol := &Follower{DB: fdb}
	stop, _, fdone := startPair(prim, fol)
	defer func() { close(stop); <-fdone }()
	waitFor(t, "lag to converge after snapshot", func() bool {
		st := log.Status()
		return len(st.Peers) == 1 && st.Peers[0].Lag == 0
	})

	st := prim.AEStatsSnapshot()
	if st.AESessions != 0 || st.AENodes != 0 {
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

// TestCatchUpConvergesUnderRandomDivergence: both stores start from one
// dataset, then each side puts, overwrites and deletes at random. The keys
// include ones shorter than the 8-byte prefix the leaves are cut on and ones
// on and just below leaf boundaries, and scan pages and snapshot frames are
// small enough to split inside a leaf. The follower, which holds state,
// must converge by range repair with the primary streaming nothing outside
// the leaves that differ; a fresh follower of the same primary must be
// streamed the whole keyspace without a walk.
func TestCatchUpConvergesUnderRandomDivergence(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { catchUpUnderDivergence(t, seed) })
	}
}

func catchUpUnderDivergence(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	value := func() []byte {
		v := make([]byte, 1+rng.Intn(48))
		rng.Read(v)
		return v
	}
	pool := divergenceKeys(rng)
	log := NewLog(LogConfig{MaxEntries: 8})
	pdb := openStore(t, false, log)
	fdb := openStore(t, true, nil)
	put := func(side int, op core.BatchOp) {
		t.Helper()
		var err error
		switch {
		case side == 1:
			err = fdb.ApplyReplicated([]core.BatchOp{op}, fdb.CommitSeq()+1)
		case op.Delete:
			err = pdb.Delete(op.Key)
		default:
			err = pdb.Put(op.Key, op.Value)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range pool {
		if rng.Intn(3) > 0 { // the rest are new to whichever side writes them
			op := core.BatchOp{Key: k, Value: value()}
			put(0, op)
			put(1, op)
		}
	}
	for side := 0; side < 2; side++ {
		for i := 0; i < 10; i++ {
			op := core.BatchOp{Key: pool[rng.Intn(len(pool))], Delete: rng.Intn(3) == 0}
			if !op.Delete {
				op.Value = value()
			}
			put(side, op)
		}
	}
	if log.Floor() == 0 {
		t.Fatal("the dataset did not truncate the log; a fresh follower would tail")
	}

	// What a correct walk fetches: the leaves whose digests differ, and the
	// primary's pair bytes in them.
	ps, err := merkle.BuildSnapshot(merkle.DefaultBits, scanPairs(pdb), 7)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := merkle.BuildSnapshot(merkle.DefaultBits, scanPairs(fdb), 7)
	if err != nil {
		t.Fatal(err)
	}
	divergent := map[uint32]bool{}
	for id := uint32(1) << merkle.DefaultBits; ps.IsLeaf(id); id++ {
		p, _ := ps.Node(id)
		f, _ := fs.Node(id)
		if p != f {
			divergent[ps.LeafBucket(id)] = true
		}
	}
	all, err := pdb.Scan(nil, len(pool)+1)
	if err != nil {
		t.Fatal(err)
	}
	var total, inLeaves uint64
	for _, kv := range all {
		n := uint64(len(kv.Key) + len(kv.Value))
		total += n
		if divergent[merkle.BucketOf(merkle.DefaultBits, kv.Key)] {
			inLeaves += n
		}
	}

	// attach runs one follower session until its catch-up has finished —
	// the epoch is adopted only after the bootstrap — and returns the
	// primary's transfer counters.
	attach := func(fdb *core.DB) AEStats {
		t.Helper()
		prim := &Primary{DB: pdb, Log: log, SnapshotPairs: 7, SnapshotChunkBytes: 64}
		fol := &Follower{DB: fdb}
		stop, pdone, fdone := startPair(prim, fol)
		waitFor(t, "catch-up", func() bool { return fol.Epoch() == log.Epoch() })
		close(stop)
		if err := <-fdone; err != nil {
			t.Fatalf("follower run: %v", err)
		}
		<-pdone
		return prim.AEStatsSnapshot()
	}

	t.Logf("%d divergent leaves hold %d of the primary's %d pair bytes", len(divergent), inLeaves, total)
	st := attach(fdb)
	if st.AESessions != 1 || st.SnapshotBytes != 0 || st.AELeaves != uint64(len(divergent)) {
		t.Fatalf("rejoin with state: %+v, want one session fetching %d leaves", st, len(divergent))
	}
	if st.AEBytes > inLeaves {
		t.Fatalf("rejoin streamed %d pair bytes, the divergent leaves hold %d", st.AEBytes, inLeaves)
	}
	assertStoresConverged(t, pdb, fdb)

	fresh := openStore(t, true, nil)
	st = attach(fresh)
	if st.AESessions != 0 || st.AENodes != 0 || st.SnapshotBytes != total {
		t.Fatalf("fresh follower: %+v, want no walk and all %d pair bytes streamed", st, total)
	}
	assertStoresConverged(t, pdb, fresh)
}

// divergenceKeys draws the key pool for one seed. Most keys fall in sixteen
// neighbouring leaves, so divergent leaves sit both next to each other and
// apart; each is a leaf's low boundary, a key just below it, a short key
// (under 8 bytes) or a long one inside the leaf.
func divergenceKeys(rng *rand.Rand) [][]byte {
	const bits = merkle.DefaultBits
	base := 1 + rng.Intn(1<<bits-16)
	seen := map[string]bool{}
	var pool [][]byte
	for len(pool) < 120 {
		b := base + rng.Intn(16)
		if rng.Intn(4) == 0 {
			b = 1 + rng.Intn(1<<bits-1)
		}
		lo, _ := merkle.LeafSpan(bits, uint32(b))
		k := bytes.Clone(lo)
		switch rng.Intn(4) {
		case 1: // lo never ends in a zero byte
			k[len(k)-1]--
			k = append(k, 0xff, 0xff)
		case 2:
			k = append(k, make([]byte, 1+rng.Intn(7-len(k)))...)
			rng.Read(k[len(lo):])
		case 3:
			k = append(k, make([]byte, 8+rng.Intn(8))...)
			rng.Read(k[len(lo):])
		}
		if !seen[string(k)] {
			seen[string(k)] = true
			pool = append(pool, k)
		}
	}
	return pool
}
