package server

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"hyperdb"
	"hyperdb/internal/client"
	"hyperdb/internal/device"
	"hyperdb/internal/repl"
	"hyperdb/internal/wire"
)

// newReplEnv builds a served engine with replication wired: follower mode
// and/or a log tee plus the server-side Primary.
func newReplEnv(t *testing.T, follower bool, logCfg *repl.LogConfig, mutate ...func(*Config)) (*testEnv, *repl.Log) {
	t.Helper()
	opts := hyperdb.Options{
		NVMeDevice:     device.New(device.UnthrottledProfile("nvme", 32<<20)),
		SATADevice:     device.New(device.UnthrottledProfile("sata", 1<<30)),
		Partitions:     4,
		CacheBytes:     4 << 20,
		MigrationBatch: 256 << 10,
		Follower:       follower,
	}
	var log *repl.Log
	if logCfg != nil {
		log = repl.NewLog(*logCfg)
		opts.Tee = log
	}
	db, err := hyperdb.Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	cfg := Config{DB: db, OwnDB: true, MaxInflight: 64, Logf: t.Logf}
	if log != nil {
		cfg.Repl = &repl.Primary{DB: db, Log: log}
	}
	for _, m := range mutate {
		m(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		db.Close()
		t.Fatalf("server.New: %v", err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		db.Close()
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { srv.Shutdown() })
	return &testEnv{srv: srv, addr: addr.String(), db: db, opts: opts}, log
}

// TestReplOverTCP runs a full primary/follower pair through the real
// serving path: the follower dials the primary's listener, hands itself
// over with REPL_HELLO, and both nodes serve clients throughout.
func TestReplOverTCP(t *testing.T) {
	prim, plog := newReplEnv(t, false, &repl.LogConfig{SyncAck: true})
	fol, flog := newReplEnv(t, true, nil)
	_ = flog

	// The follower applier dials the primary like hyperd would.
	nc, err := net.Dial("tcp", prim.addr)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	runDone := make(chan error, 1)
	go func() {
		runDone <- (&repl.Follower{DB: fol.db}).Run(nc, stop)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for len(plog.Status().Peers) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("follower never registered")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Client writes to the primary server; sync mode means a returned Put
	// is already applied downstream.
	pc := dialTest(t, prim, 1)
	for i := 0; i < 50; i++ {
		if err := pc.Put([]byte(fmt.Sprintf("tcp-%03d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := pc.Delete([]byte("tcp-007")); err != nil {
		t.Fatal(err)
	}

	// Reads served by the follower's own server see everything.
	fc := dialTest(t, fol, 1)
	for _, i := range []int{0, 25, 49} {
		v, err := fc.Get([]byte(fmt.Sprintf("tcp-%03d", i)))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("follower read %d: %q %v", i, v, err)
		}
	}
	if _, err := fc.Get([]byte("tcp-007")); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("follower delete: %v", err)
	}

	// Follower rejects foreground writes at the wire level.
	if err := fc.Put([]byte("x"), []byte("y")); err == nil {
		t.Fatal("follower accepted a foreground write")
	}

	// Stats expose the replication section on both sides.
	ptext, err := pc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ptext, "repl.role primary") || !strings.Contains(ptext, "repl.followers 1") {
		t.Fatalf("primary stats missing repl section:\n%s", ptext)
	}
	if !strings.Contains(ptext, "lag 0") {
		t.Fatalf("primary stats lag not converged:\n%s", ptext)
	}
	ftext, err := fc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ftext, "repl.role follower") || !strings.Contains(ftext, "repl.applied") {
		t.Fatalf("follower stats missing repl section:\n%s", ftext)
	}

	close(stop)
	if err := <-runDone; err != nil {
		t.Fatalf("follower run: %v", err)
	}
}

// rawConn dials and returns a frame-level connection for protocol tests.
func rawDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return nc
}

func sendFrame(t *testing.T, nc net.Conn, f wire.Frame) {
	t.Helper()
	if _, err := nc.Write(wire.AppendFrame(nil, f)); err != nil {
		t.Fatal(err)
	}
}

func TestReplHelloMustBeFirstFrame(t *testing.T) {
	env, _ := newReplEnv(t, false, &repl.LogConfig{})
	nc := rawDial(t, env.addr)
	sendFrame(t, nc, wire.Frame{Op: wire.OpPing, ID: 1})
	f, err := wire.ReadFrame(nc, wire.MaxFrame)
	if err != nil || f.Status != wire.StatusOK {
		t.Fatalf("ping: %+v %v", f, err)
	}
	sendFrame(t, nc, wire.Frame{Op: wire.OpReplHello, ID: 2, Payload: wire.AppendReplHelloReq(nil, 0, 0)})
	f, err = wire.ReadFrame(nc, wire.MaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if f.Status != wire.StatusBadRequest {
		t.Fatalf("late hello got status %d, want BadRequest", f.Status)
	}
}

func TestReplHelloRejectedWhenDisabled(t *testing.T) {
	env := newTestEnv(t, nil) // no Repl configured
	nc := rawDial(t, env.addr)
	sendFrame(t, nc, wire.Frame{Op: wire.OpReplHello, ID: 1, Payload: wire.AppendReplHelloReq(nil, 0, 0)})
	f, err := wire.ReadFrame(nc, wire.MaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if f.Status != wire.StatusBadRequest {
		t.Fatalf("hello on non-repl server got status %d, want BadRequest", f.Status)
	}
}

// TestReplStreamOpsRejectedAsRequests: an op that only travels inside a
// replication stream is answered BAD_REQUEST when it arrives as a request,
// and the connection keeps serving.
func TestReplStreamOpsRejectedAsRequests(t *testing.T) {
	env := newTestEnv(t, nil)
	nc := rawDial(t, env.addr)
	for i, op := range []wire.Op{wire.OpReplFrame, wire.OpReplAck, wire.OpReplSnapshot, wire.OpTreeRoot, wire.OpTreeDiff} {
		if f := exchange(t, nc, wire.Frame{Op: op, ID: uint64(i + 1), Payload: wire.AppendReplAck(nil, 5)}); f.Status != wire.StatusBadRequest {
			t.Fatalf("stray %s got status %s, want bad request", op, f.Status)
		}
	}
	if f := exchange(t, nc, wire.Frame{Op: wire.OpPing, ID: 100}); f.Status != wire.StatusOK {
		t.Fatalf("ping after stray stream ops: %s", f.Status)
	}
}

// TestInlineMergesKeepFollowerInStep: many connections, one request at a
// time each, increment and overwrite a few shared counters on a primary
// whose follower tails its log. Lone INCRs are one-request cycles, run
// concurrently with each other and with lone PUTs of the same keys, and the
// follower —
// which replays the log by sequence — must still end with the primary's
// values.
func TestInlineMergesKeepFollowerInStep(t *testing.T) {
	prim, plog := newReplEnv(t, false, &repl.LogConfig{})
	fol, _ := newReplEnv(t, true, nil)
	nc, err := net.Dial("tcp", prim.addr)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	runDone := make(chan error, 1)
	go func() { runDone <- (&repl.Follower{DB: fol.db}).Run(nc, stop) }()

	const conns, calls = 8, 64
	keys := [][]byte{[]byte("ctr-a"), []byte("ctr-b"), []byte("ctr-c")}
	run := func(withPuts bool) {
		t.Helper()
		errs := make(chan error, conns)
		for g := 0; g < conns; g++ {
			c := dialTest(t, prim, 1)
			go func(g int) {
				for i := 0; i < calls; i++ {
					k := keys[(g+i)%len(keys)]
					var err error
					if withPuts && i%4 == 3 {
						err = c.Put(k, hyperdb.EncodeCounter(int64(g*calls+i)))
					} else {
						_, err = c.Incr(k, 1)
					}
					if err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}(g)
		}
		for g := 0; g < conns; g++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
	}

	st := prim.srv.Stats()
	run(false)
	if d, r := st.Drains.Load(), st.DrainedRequests.Load(); d != r || d < conns*calls {
		t.Fatalf("%d INCRs in %d cycles; want each of the %d lone INCRs a cycle of its own", r, d, conns*calls)
	}
	var total int64
	for _, k := range keys {
		v, err := prim.db.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		n, _ := hyperdb.DecodeCounter(v)
		total += n
	}
	if total != conns*calls {
		t.Fatalf("counters sum to %d after %d increments", total, conns*calls)
	}
	run(true)

	for deadline := time.Now().Add(10 * time.Second); fol.db.ReadableSeq() < plog.Head(); {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at %d, log head %d", fol.db.ReadableSeq(), plog.Head())
		}
		time.Sleep(time.Millisecond)
	}
	for _, k := range keys {
		pv, perr := prim.db.Get(k)
		fv, ferr := fol.db.Get(k)
		if perr != nil || ferr != nil || string(pv) != string(fv) {
			t.Errorf("%s: primary %x (%v), follower %x (%v)", k, pv, perr, fv, ferr)
		}
	}
	t.Logf("%d requests in %d cycles", st.DrainedRequests.Load(), st.Drains.Load())
	close(stop)
	if err := <-runDone; err != nil {
		t.Fatalf("follower run: %v", err)
	}
}
