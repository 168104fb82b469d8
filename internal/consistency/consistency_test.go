package consistency

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hyperdb"
	"hyperdb/internal/client"
	"hyperdb/internal/repl"
)

// TestSessionConsistencyBounded runs seeded random schedules against a
// lagging 1+2 cluster under the bounded policy: every read-your-writes and
// monotonic-reads check must hold even though the followers apply multiple
// milliseconds behind the primary. Reproduce a failure from the printed
// seed.
func TestSessionConsistencyBounded(t *testing.T) {
	for i := 0; i < 2; i++ {
		seed := int64(7300 + 61*i)
		cfg := Config{Seed: seed}
		if v := Run(cfg); v != "" {
			t.Fatalf("seed=%d: %s", seed, v)
		}
	}
}

// TestHarnessDetectsStalenessWithoutGate is the teeth test: the same
// schedules MUST fail when the sessions read with client.ReadAny, which
// spreads reads across the followers without a token, so the servers' gate
// never holds one back. That proves the harness detects the staleness the
// gate prevents. The failing schedule is shrunk before reporting.
func TestHarnessDetectsStalenessWithoutGate(t *testing.T) {
	cfg := Config{
		Seed:   9100,
		Policy: client.ReadAny,
		// Chunky lag so an ungated read-after-write lands well before the
		// follower applies the write.
		MinLag: 3 * time.Millisecond,
		MaxLag: 8 * time.Millisecond,
	}
	cfg.fill()
	var violation string
	var sched []step
	for attempt := 0; attempt < 3 && violation == ""; attempt++ {
		c := cfg
		c.Seed = cfg.Seed + int64(attempt)
		sched = GenSchedule(rand.New(rand.NewSource(c.Seed)), c)
		violation = RunSchedule(c, sched)
		cfg.Seed = c.Seed
	}
	if violation == "" {
		t.Fatal("gate disabled but no schedule produced a consistency violation; the harness has no teeth")
	}
	if !strings.Contains(violation, "violation") {
		t.Fatalf("gate-off run failed for a non-consistency reason: %s", violation)
	}
	min := Shrink(cfg, sched, 6)
	t.Logf("gate-off violation (seed=%d): %s", cfg.Seed, violation)
	t.Logf("shrunk schedule (%d steps): %s", len(min), FormatSchedule(min))
}

// failoverSess is one session's model across the failover test: per-key
// last acknowledged write version, last attempted version (a write that
// errored during the kill may still have committed), the highest version
// each key has been observed at, and the highest version observed through
// a follower-served read (the replication guarantee the promoted node must
// retain — see reconcile).
type failoverSess struct {
	sess      *client.Session
	acked     []int
	attempted []int
	lastRead  []int
	folRead   []int
}

// checkOwnRead enforces the never-backward invariant for one private key:
// an observed version may never be below an acknowledged write or a prior
// read, and never above the last attempted write.
func (fs *failoverSess) checkOwnRead(id, k int, v []byte, err error) error {
	floor := fs.acked[k]
	if fs.lastRead[k] > floor {
		floor = fs.lastRead[k]
	}
	switch {
	case errors.Is(err, client.ErrNotFound):
		if floor > 0 {
			return fmt.Errorf("session %d key %d: missing after version %d was acknowledged or read", id, k, floor)
		}
	case err != nil:
		return err
	default:
		got, perr := strconv.Atoi(string(v))
		if perr != nil {
			return fmt.Errorf("session %d key %d: unparseable value %q", id, k, v)
		}
		if got < floor {
			return fmt.Errorf("session %d key %d: read version %d after version %d was acknowledged or read", id, k, got, floor)
		}
		if got > fs.attempted[k] {
			return fmt.Errorf("session %d key %d: read version %d beyond last attempted write %d", id, k, got, fs.attempted[k])
		}
		fs.lastRead[k] = got
		if fs.sess.LastNode() != "primary" {
			fs.folRead[k] = got
		}
	}
	return nil
}

// reconcile runs at the failover boundary. A sync-ack primary unblocks
// pending commits when a follower connection dies, so a write can be
// acknowledged during the kill without reaching any follower; a bounded
// read that fell back to the primary can likewise observe a write that
// never ships. Both are durability losses of a non-quorum failover, not
// session-consistency violations — the promoted node reallocates their
// sequences, so tokens cannot fence them (see DESIGN.md). What failover
// MUST retain is every version a follower ever served: followers apply a
// shared prefix, and the most caught-up one is promoted. reconcile asserts
// that, then caps the session's floors to the surviving version so phase 2
// enforces never-backward against real state.
func (fs *failoverSess) reconcile(id, k int, survived int) error {
	if survived < fs.folRead[k] {
		return fmt.Errorf("session %d key %d: promoted node holds version %d but a follower served %d", id, k, survived, fs.folRead[k])
	}
	if fs.acked[k] > survived {
		fs.acked[k] = survived
	}
	if fs.lastRead[k] > survived {
		fs.lastRead[k] = survived
	}
	return nil
}

// TestFailoverSessionNeverReadsBackward kills a sync-ack primary mid-load
// with follower reads enabled, promotes the most caught-up follower, and
// rewires the other one under it. Sessions carry their tokens across the
// failover: no session may ever observe a value older than one it already
// read or had acknowledged — before, during, and (after reconciling floors
// against what the promotion could retain) after the switch.
func TestFailoverSessionNeverReadsBackward(t *testing.T) {
	const nSess, nKeys = 3, 6
	// ReadWait stays short: after the kill, sessions whose tokens reference
	// a lost acknowledged write park against followers that can never catch
	// up, and each such read costs one full wait before NOT_READY.
	cfg := Config{Keys: nKeys, ReadWait: 250 * time.Millisecond}
	cfg.fill()

	prim, err := newNode(false, true, repl.LogConfig{SyncAck: true}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var fols [2]*node
	for i := range fols {
		if fols[i], err = newNode(true, true, repl.LogConfig{}, cfg); err != nil {
			t.Fatal(err)
		}
	}

	// Appliers: both followers tail the primary, re-teeing into their own
	// logs so either can serve downstream after a promotion.
	stop1 := make(chan struct{})
	var appliers sync.WaitGroup
	for i := range fols {
		nc, err := net.Dial("tcp", prim.addr)
		if err != nil {
			t.Fatal(err)
		}
		fol := &repl.Follower{DB: fols[i].db, Log: fols[i].log}
		fols[i].fol.Store(fol)
		appliers.Add(1)
		go func() {
			defer appliers.Done()
			fol.Run(nc, stop1) // ends with an error when the primary dies
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(prim.log.Status().Peers) < len(fols) {
		if time.Now().After(deadline) {
			t.Fatal("followers never attached")
		}
		time.Sleep(time.Millisecond)
	}

	copts := func(addr string) client.Options {
		return client.Options{Addr: addr, RedialAttempts: 1}
	}
	pc, err := client.Dial(copts(prim.addr))
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	var fcs []*client.Client
	for i := range fols {
		fc, err := client.Dial(copts(fols[i].addr))
		if err != nil {
			t.Fatal(err)
		}
		defer fc.Close()
		fcs = append(fcs, fc)
	}

	// Phase 1: sessions write and read under the bounded policy while the
	// primary is killed mid-load. A put that errors leaves its version
	// "attempted but unacknowledged"; sessions then keep reading from the
	// surviving followers. Read errors during the kill window are
	// tolerated — stale values never are.
	sessions := make([]*failoverSess, nSess)
	errs := make(chan error, nSess)
	var load sync.WaitGroup
	for i := 0; i < nSess; i++ {
		fs := &failoverSess{
			sess:      client.NewSession(pc, fcs, client.ReadBounded),
			acked:     make([]int, nKeys),
			attempted: make([]int, nKeys),
			lastRead:  make([]int, nKeys),
			folRead:   make([]int, nKeys),
		}
		sessions[i] = fs
		load.Add(1)
		go func(id int) {
			defer load.Done()
			rng := rand.New(rand.NewSource(int64(8800 + id)))
			key := func(k int) []byte { return []byte(fmt.Sprintf("f%02d-k%03d", id, k)) }
			// Run until the kill is felt (a put fails), then a tail of reads
			// against the surviving followers. The iteration cap only guards
			// against the kill never landing.
			writing, tail := true, 0
			for it := 0; it < 100000 && (writing || tail < 12); it++ {
				if !writing {
					tail++
				}
				k := rng.Intn(nKeys)
				if writing && rng.Float64() < 0.6 {
					fs.attempted[k]++
					if err := fs.sess.Put(key(k), []byte(fmt.Sprintf("%08d", fs.attempted[k]))); err != nil {
						writing = false // primary is dying; keep reading
					} else {
						fs.acked[k] = fs.attempted[k]
					}
				}
				v, err := fs.sess.Get(key(k))
				if err != nil && !errors.Is(err, client.ErrNotFound) {
					continue // transport failure mid-kill: no value observed
				}
				if cerr := fs.checkOwnRead(id, k, v, err); cerr != nil {
					errs <- cerr
					return
				}
			}
		}(i)
	}
	time.Sleep(60 * time.Millisecond) // let the load get going
	if err := prim.srv.Shutdown(); err != nil {
		t.Logf("primary shutdown: %v", err)
	}
	load.Wait()
	select {
	case err := <-errs:
		t.Fatalf("phase 1: %v", err)
	default:
	}

	// Failover: stop the appliers, promote the most caught-up follower,
	// and rewire the other one to tail it.
	close(stop1)
	appliers.Wait()
	target, other := 0, 1
	if fols[1].db.CommitSeq() > fols[0].db.CommitSeq() {
		target, other = 1, 0
	}
	t.Logf("promote: f0 commit=%d readable=%d, f1 commit=%d readable=%d, target=f%d",
		fols[0].db.CommitSeq(), fols[0].db.ReadableSeq(),
		fols[1].db.CommitSeq(), fols[1].db.ReadableSeq(), target)
	fols[target].db.Promote()

	stop2 := make(chan struct{})
	rejoined := make(chan error, 1)
	nc, err := net.Dial("tcp", fols[target].addr)
	if err != nil {
		t.Fatal(err)
	}
	refol := &repl.Follower{DB: fols[other].db, Log: fols[other].log}
	fols[other].fol.Store(refol)
	go func() {
		rejoined <- refol.Run(nc, stop2)
	}()
	deadline = time.Now().Add(10 * time.Second)
	for len(fols[target].log.Status().Peers) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("surviving follower never rejoined the promoted node")
		}
		time.Sleep(time.Millisecond)
	}

	// Reconcile every session's floors against what the promoted node
	// actually retained: follower-served reads must have survived; acked
	// writes and primary-served reads that never shipped are the documented
	// losses of a non-quorum failover and lower the floor.
	for id, fs := range sessions {
		for k := 0; k < nKeys; k++ {
			survived := 0
			v, err := fols[target].db.Get([]byte(fmt.Sprintf("f%02d-k%03d", id, k)))
			switch {
			case err == nil:
				if survived, err = strconv.Atoi(string(v)); err != nil {
					t.Fatalf("promoted node session %d key %d: unparseable value %q", id, k, v)
				}
			case !errors.Is(err, hyperdb.ErrNotFound):
				t.Fatal(err)
			}
			if err := fs.reconcile(id, k, survived); err != nil {
				t.Fatalf("failover: %v", err)
			}
		}
	}

	// Phase 2: sessions resume against the new topology, seeded with their
	// phase-1 tokens. Every read must respect the same never-backward
	// invariant; after new writes land, reads must be exact.
	for id, fs := range sessions {
		ns := client.NewSession(fcs[target], []*client.Client{fcs[other]}, client.ReadBounded)
		// A token referencing a lost write names a sequence of the dead
		// lineage: no surviving node ever satisfies it, so every gated read
		// would answer NOT_READY. Re-establishing a session across failover
		// therefore clamps the token to the promoted node's position — a
		// deliberate epoch-0 seed, because carrying the dead lineage's epoch
		// would make the new primary refuse the clamped gate too (see
		// DESIGN.md and TestCrossLineageTokenRefused).
		tok := fs.sess.Token()
		if c := fols[target].db.CommitSeq(); c < tok.Seq {
			tok.Seq = c
		}
		ns.SeedToken(client.Token{Seq: tok.Seq})
		fs.sess = ns
		key := func(k int) []byte { return []byte(fmt.Sprintf("f%02d-k%03d", id, k)) }
		for k := 0; k < nKeys; k++ {
			v, err := ns.Get(key(k))
			if err != nil && !errors.Is(err, client.ErrNotFound) {
				t.Fatalf("phase 2 session %d key %d: %v", id, k, err)
			}
			if cerr := fs.checkOwnRead(id, k, v, err); cerr != nil {
				t.Fatalf("phase 2: %v (served by %s, token=%d, target readable=%d, other readable=%d)",
					cerr, ns.LastNode(), ns.Token(),
					fols[target].db.ReadableSeq(), fols[other].db.ReadableSeq())
			}
		}
		// Liveness on the promoted primary: new writes, exact reads.
		for k := 0; k < nKeys; k++ {
			fs.attempted[k]++
			fs.acked[k] = fs.attempted[k]
			want := fmt.Sprintf("%08d", fs.attempted[k])
			if err := ns.Put(key(k), []byte(want)); err != nil {
				t.Fatalf("post-failover put session %d key %d: %v", id, k, err)
			}
			v, err := ns.Get(key(k))
			if err != nil || string(v) != want {
				t.Fatalf("post-failover get session %d key %d = %q (%v), want %q", id, k, v, err, want)
			}
		}
	}

	close(stop2)
	if err := <-rejoined; err != nil {
		t.Fatalf("rejoined applier: %v", err)
	}
	fols[other].srv.Shutdown()
	fols[target].srv.Shutdown()
}

// TestCrossLineageTokenRefused pins the epoch qualification of session
// tokens: a gated read whose token was minted by a different write lineage
// must be refused with NOT_READY, never silently satisfied by sequence
// comparison alone. Two independent primaries stand in for "before and
// after a failover that replaced the log": their sequence counters overlap
// numerically but number different histories, which is precisely the state
// a bare-sequence gate cannot detect.
func TestCrossLineageTokenRefused(t *testing.T) {
	cfg := Config{ReadWait: 100 * time.Millisecond}
	cfg.fill()
	a, err := newNode(false, true, repl.LogConfig{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.srv.Shutdown()
	b, err := newNode(false, true, repl.LogConfig{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.srv.Shutdown()

	ca, err := client.Dial(client.Options{Addr: a.addr, Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ca.Close()
	cb, err := client.Dial(client.Options{Addr: b.addr, Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()

	// Advance both lineages past each other's positions so a bare-sequence
	// gate would be satisfied on either node.
	sess := client.NewSession(ca, nil, client.ReadPrimary)
	for i := 0; i < 5; i++ {
		if err := sess.Put([]byte(fmt.Sprintf("a-%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := cb.Put([]byte(fmt.Sprintf("b-%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	tok := sess.Token()
	if tok.Seq == 0 || tok.Epoch == 0 {
		t.Fatalf("session token %v lacks a sequence or epoch", tok)
	}
	if b.db.ReadableSeq() < tok.Seq {
		t.Fatalf("test setup: node B readable %d below token seq %d", b.db.ReadableSeq(), tok.Seq)
	}

	// The cross-lineage gate must be refused even though B's sequence has
	// numerically passed it.
	if _, _, err := cb.GetSeq([]byte("b-0"), tok); !errors.Is(err, client.ErrNotReady) {
		t.Fatalf("cross-lineage gated read: err=%v, want ErrNotReady", err)
	}

	// Deliberately clamping to epoch 0 re-enables sequence-only gating —
	// the documented escape hatch a client uses after accepting a lineage
	// change.
	if v, btok, err := cb.GetSeq([]byte("b-0"), client.Token{Seq: tok.Seq}); err != nil || string(v) != "v" {
		t.Fatalf("epoch-0 clamped read: %q %v", v, err)
	} else if btok.Epoch == 0 || btok.Epoch == tok.Epoch {
		t.Fatalf("node B response epoch %d; want a non-zero epoch distinct from A's %d", btok.Epoch, tok.Epoch)
	}

	// Same-lineage gating still works end to end.
	if v, _, err := ca.GetSeq([]byte("a-0"), tok); err != nil || string(v) != "v" {
		t.Fatalf("same-lineage gated read: %q %v", v, err)
	}
}
