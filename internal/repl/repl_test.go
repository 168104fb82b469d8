package repl

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"hyperdb/internal/core"
	"hyperdb/internal/device"
	"hyperdb/internal/hotness"
)

func openStore(t testing.TB, follower bool, tee core.Tee) *core.DB {
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
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// startPair wires a primary and follower over net.Pipe and returns the
// follower stop channel plus completion channels for both sides.
func startPair(prim *Primary, fol *Follower) (stop chan struct{}, pdone, fdone chan error) {
	pc, fc := net.Pipe()
	stop = make(chan struct{})
	pdone = make(chan error, 1)
	fdone = make(chan error, 1)
	go func() { pdone <- prim.Serve(pc) }()
	go func() { fdone <- fol.Run(fc, stop) }()
	return stop, pdone, fdone
}

func TestTailReplicationSyncAck(t *testing.T) {
	log := NewLog(LogConfig{SyncAck: true})
	pdb := openStore(t, false, log)
	fdb := openStore(t, true, nil)
	prim := &Primary{DB: pdb, Log: log}
	fol := &Follower{DB: fdb}
	stop, pdone, fdone := startPair(prim, fol)

	// Wait for registration so the sync-ack gate covers every write below.
	waitFor(t, "follower registration", func() bool { return len(log.Status().Peers) == 1 })

	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%04d", i)) }
	for i := 0; i < 100; i++ {
		if err := pdb.Put(key(i), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Synchronous mode: a returned Put is already applied on the follower.
	for _, i := range []int{0, 37, 99} {
		v, err := fdb.Get(key(i))
		if err != nil || string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("follower key %d: %q %v", i, v, err)
		}
	}

	// Batches and deletes replicate through the same path.
	if err := pdb.WriteBatch([]core.BatchOp{
		{Key: key(0), Value: []byte("rewritten")},
		{Key: key(1), Delete: true},
	}); err != nil {
		t.Fatal(err)
	}
	if err := pdb.Delete(key(2)); err != nil {
		t.Fatal(err)
	}
	if v, err := fdb.Get(key(0)); err != nil || string(v) != "rewritten" {
		t.Fatalf("follower rewrite: %q %v", v, err)
	}
	for _, i := range []int{1, 2} {
		if _, err := fdb.Get(key(i)); !errors.Is(err, core.ErrNotFound) {
			t.Fatalf("follower delete %d: %v", i, err)
		}
	}

	// Sequences agree and lag is zero the moment writes stop.
	if ps, fs := pdb.CommitSeq(), fdb.CommitSeq(); ps != fs {
		t.Fatalf("seq mismatch: primary %d follower %d", ps, fs)
	}
	st := log.Status()
	if len(st.Peers) != 1 || st.Peers[0].Lag != 0 {
		t.Fatalf("status %+v, want zero lag", st)
	}

	close(stop)
	if err := <-fdone; err != nil {
		t.Fatalf("follower: %v", err)
	}
	if err := <-pdone; err != nil {
		t.Fatalf("primary: %v", err)
	}
}

func TestLagConvergesToZeroAsync(t *testing.T) {
	log := NewLog(LogConfig{})
	pdb := openStore(t, false, log)
	fdb := openStore(t, true, nil)
	prim := &Primary{DB: pdb, Log: log}
	fol := &Follower{DB: fdb}
	stop, _, fdone := startPair(prim, fol)
	defer func() { close(stop); <-fdone }()

	waitFor(t, "follower registration", func() bool { return len(log.Status().Peers) == 1 })
	key := func(i int) []byte { return []byte(fmt.Sprintf("async-%04d", i)) }
	for i := 0; i < 300; i++ {
		if err := pdb.Put(key(i), []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Load has stopped; the follower must drain to zero lag.
	waitFor(t, "lag to converge to 0", func() bool {
		st := log.Status()
		return len(st.Peers) == 1 && st.Peers[0].Lag == 0
	})
	for _, i := range []int{0, 150, 299} {
		v, err := fdb.Get(key(i))
		if err != nil || string(v) != fmt.Sprintf("v-%d", i) {
			t.Fatalf("follower key %d: %q %v", i, v, err)
		}
	}
}

func TestSnapshotBootstrapPastWindow(t *testing.T) {
	// A tiny retained window plus a big pre-load guarantees a fresh
	// follower (lastApplied 0) is below the floor and must bootstrap via
	// snapshot before tailing.
	log := NewLog(LogConfig{MaxEntries: 8})
	pdb := openStore(t, false, log)
	key := func(i int) []byte { return []byte(fmt.Sprintf("snap-%04d", i)) }
	for i := 0; i < 400; i++ {
		if err := pdb.Put(key(i), []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := pdb.Delete(key(3)); err != nil {
		t.Fatal(err)
	}
	if log.Floor() == 0 {
		t.Fatal("pre-load did not truncate the log; test is vacuous")
	}

	flog := NewLog(LogConfig{})
	fdb := openStore(t, true, flog)
	prim := &Primary{DB: pdb, Log: log, SnapshotPairs: 64}
	fol := &Follower{DB: fdb, Log: flog}
	stop, _, fdone := startPair(prim, fol)
	defer func() { close(stop); <-fdone }()

	waitFor(t, "follower registration", func() bool { return len(log.Status().Peers) == 1 })
	// Post-snapshot writes arrive via the tail.
	if err := pdb.Put(key(0), []byte("updated")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "lag to converge to 0", func() bool {
		st := log.Status()
		return len(st.Peers) == 1 && st.Peers[0].Lag == 0
	})

	for _, i := range []int{1, 2, 100, 399} {
		v, err := fdb.Get(key(i))
		if err != nil || string(v) != fmt.Sprintf("v-%d", i) {
			t.Fatalf("follower key %d: %q %v", i, v, err)
		}
	}
	if v, err := fdb.Get(key(0)); err != nil || string(v) != "updated" {
		t.Fatalf("tailed update: %q %v", v, err)
	}
	if _, err := fdb.Get(key(3)); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("deleted key resurrected on follower: %v", err)
	}
	// The follower's own log was floored at the snapshot sequence, so a
	// stale downstream replica cannot silently tail across the bootstrap.
	if flog.Floor() == 0 {
		t.Fatal("follower log floor not set after snapshot bootstrap")
	}

	// Full-state equivalence via scan.
	want, err := pdb.Scan(nil, 1000)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fdb.Scan(nil, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("scan size mismatch: primary %d follower %d", len(want), len(got))
	}
	for i := range want {
		if !bytes.Equal(want[i].Key, got[i].Key) || !bytes.Equal(want[i].Value, got[i].Value) {
			t.Fatalf("scan divergence at %d: %q vs %q", i, want[i].Key, got[i].Key)
		}
	}
}

// assertStoresConverged fails unless a full scan of both stores agrees.
func assertStoresConverged(t *testing.T, pdb, fdb *core.DB) {
	t.Helper()
	want, err := pdb.Scan(nil, 10000)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fdb.Scan(nil, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("scan size mismatch: primary %d follower %d", len(want), len(got))
	}
	for i := range want {
		if !bytes.Equal(want[i].Key, got[i].Key) || !bytes.Equal(want[i].Value, got[i].Value) {
			t.Fatalf("scan divergence at %d: %q vs %q", i, want[i].Key, got[i].Key)
		}
	}
}

func TestReBootstrapDoesNotResurrectDeletions(t *testing.T) {
	// The scenario the redial loop produces naturally: a follower tails for
	// a while, loses its connection, and falls off the retained window
	// during the gap — in which the primary deletes keys the follower
	// already holds. The second attach must bootstrap via snapshot AND
	// convey those deletions, or the follower resurrects dead keys forever.
	log := NewLog(LogConfig{MaxEntries: 8})
	pdb := openStore(t, false, log)
	fdb := openStore(t, true, nil)
	prim := &Primary{DB: pdb, Log: log, SnapshotPairs: 64}
	fol := &Follower{DB: fdb}
	stop, _, fdone := startPair(prim, fol)

	key := func(i int) []byte { return []byte(fmt.Sprintf("rb-%04d", i)) }
	for i := 0; i < 50; i++ {
		if err := pdb.Put(key(i), []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatal(err)
		}
		// Paced: 50 unpaced puts can outrun the tail by more than the
		// 8-entry window, and the primary then drops the follower before
		// the part of the scenario this test is about.
		waitFor(t, "follower to catch up", func() bool { return fdb.CommitSeq() == pdb.CommitSeq() })
	}

	// Disconnect, then change state during the gap: delete keys the
	// follower holds, overwrite one, and write far past the window.
	close(stop)
	if err := <-fdone; err != nil {
		t.Fatalf("first run: %v", err)
	}
	for _, i := range []int{3, 17, 49} {
		if err := pdb.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pdb.Put(key(5), []byte("rewritten")); err != nil {
		t.Fatal(err)
	}
	for i := 100; i < 300; i++ {
		if err := pdb.Put(key(i), []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	// Reattach the same follower: it is below the floor now, so the
	// primary streams a snapshot onto its existing state.
	stop2, _, fdone2 := startPair(prim, fol)
	defer func() { close(stop2); <-fdone2 }()
	waitFor(t, "lag to converge after re-bootstrap", func() bool {
		st := log.Status()
		return len(st.Peers) == 1 && st.Peers[0].Lag == 0
	})

	for _, i := range []int{3, 17, 49} {
		if _, err := fdb.Get(key(i)); !errors.Is(err, core.ErrNotFound) {
			t.Fatalf("deleted key %d resurrected after re-bootstrap: %v", i, err)
		}
	}
	if v, err := fdb.Get(key(5)); err != nil || string(v) != "rewritten" {
		t.Fatalf("overwritten key: %q %v", v, err)
	}
	assertStoresConverged(t, pdb, fdb)
}

func TestDivergentNodeForcedThroughSnapshot(t *testing.T) {
	// A node resurrected from a previous primary incarnation: it holds
	// replicated state (including sequences past the new primary's head)
	// that the new primary's log never saw. Its epoch cannot match, so it
	// must be forced through a snapshot that sweeps the divergent keys —
	// silently tailing would diverge forever.
	fdb := openStore(t, true, nil)
	if err := fdb.ApplyReplicated([]core.BatchOp{
		{Key: []byte("ghost-a"), Value: []byte("old-world")},
		{Key: []byte("ghost-b"), Value: []byte("old-world")},
	}, 40); err != nil {
		t.Fatal(err)
	}

	log := NewLog(LogConfig{})
	pdb := openStore(t, false, log)
	for i := 0; i < 10; i++ {
		if err := pdb.Put([]byte(fmt.Sprintf("live-%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if fdb.CommitSeq() <= log.Head() {
		t.Fatalf("test setup: follower seq %d not past primary head %d", fdb.CommitSeq(), log.Head())
	}

	prim := &Primary{DB: pdb, Log: log}
	fol := &Follower{DB: fdb}
	stop, _, fdone := startPair(prim, fol)
	defer func() { close(stop); <-fdone }()
	waitFor(t, "lag to converge after forced snapshot", func() bool {
		st := log.Status()
		return len(st.Peers) == 1 && st.Peers[0].Lag == 0
	})

	for _, k := range []string{"ghost-a", "ghost-b"} {
		if _, err := fdb.Get([]byte(k)); !errors.Is(err, core.ErrNotFound) {
			t.Fatalf("divergent key %q survived the forced snapshot: %v", k, err)
		}
	}
	// Tailing still works after the bootstrap reset the apply position
	// below the store's old sequence counter.
	if err := pdb.Put([]byte("live-post"), []byte("new")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-bootstrap tail apply", func() bool {
		_, err := fdb.Get([]byte("live-post"))
		return err == nil
	})
	assertStoresConverged(t, pdb, fdb)
}

func TestFailoverPromoteServesWrites(t *testing.T) {
	log := NewLog(LogConfig{SyncAck: true})
	pdb := openStore(t, false, log)
	flog := NewLog(LogConfig{})
	fdb := openStore(t, true, flog)
	prim := &Primary{DB: pdb, Log: log}
	fol := &Follower{DB: fdb, Log: flog}
	stop, _, fdone := startPair(prim, fol)

	waitFor(t, "follower registration", func() bool { return len(log.Status().Peers) == 1 })
	for i := 0; i < 50; i++ {
		if err := pdb.Put([]byte(fmt.Sprintf("fo-%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	// "Kill" the primary: stop the applier, promote the follower.
	close(stop)
	if err := <-fdone; err != nil {
		t.Fatalf("follower run: %v", err)
	}
	fdb.Promote()
	if fdb.IsFollower() {
		t.Fatal("still follower")
	}
	// Every synchronously acked write survived.
	for i := 0; i < 50; i++ {
		if _, err := fdb.Get([]byte(fmt.Sprintf("fo-%03d", i))); err != nil {
			t.Fatalf("acked write lost: %d %v", i, err)
		}
	}
	// New writes mint sequences above everything applied and tee into the
	// promoted node's own log, so it can serve its own followers.
	before := fdb.CommitSeq()
	if err := fdb.Put([]byte("post-promote"), []byte("new")); err != nil {
		t.Fatal(err)
	}
	if fdb.CommitSeq() <= before {
		t.Fatal("sequence did not advance past replicated history")
	}
	if flog.Head() <= before {
		t.Fatalf("promoted node's log head %d did not record the new write", flog.Head())
	}
}
