package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"hyperdb"
	"hyperdb/internal/client"
	"hyperdb/internal/device"
	"hyperdb/internal/wire"
)

// testEnv is one served engine over shared simulated devices, so tests can
// crash/recover against the same storage after shutdown.
type testEnv struct {
	srv  *Server
	addr string
	db   *hyperdb.DB
	opts hyperdb.Options
}

func newTestEnv(t testing.TB, mutate func(*Config)) *testEnv {
	t.Helper()
	opts := hyperdb.Options{
		NVMeDevice:     device.New(device.UnthrottledProfile("nvme", 32<<20)),
		SATADevice:     device.New(device.UnthrottledProfile("sata", 1<<30)),
		Partitions:     4,
		CacheBytes:     4 << 20,
		MigrationBatch: 256 << 10,
	}
	db, err := hyperdb.Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	cfg := Config{DB: db, OwnDB: true, MaxInflight: 64, Logf: t.Logf}
	if mutate != nil {
		mutate(&cfg)
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
	return &testEnv{srv: srv, addr: addr.String(), db: db, opts: opts}
}

func dialTest(t testing.TB, env *testEnv, conns int) *client.Client {
	t.Helper()
	c, err := client.Dial(client.Options{Addr: env.addr, Conns: conns})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestServeBasicOps(t *testing.T) {
	env := newTestEnv(t, nil)
	c := dialTest(t, env, 1)

	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if err := c.Put([]byte("alpha"), []byte("1")); err != nil {
		t.Fatalf("put: %v", err)
	}
	v, err := c.Get([]byte("alpha"))
	if err != nil || string(v) != "1" {
		t.Fatalf("get: %q %v", v, err)
	}
	if _, err := c.Get([]byte("missing")); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("get missing: %v, want ErrNotFound", err)
	}
	if err := c.Delete([]byte("alpha")); err != nil {
		t.Fatalf("del: %v", err)
	}
	if _, err := c.Get([]byte("alpha")); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("get deleted: %v, want ErrNotFound", err)
	}

	if err := c.WriteBatch([]wire.BatchOp{
		{Key: []byte("b1"), Value: []byte("v1")},
		{Key: []byte("b2"), Value: []byte("v2")},
		{Key: []byte("b1"), Delete: true},
	}); err != nil {
		t.Fatalf("batch: %v", err)
	}
	vals, err := c.MultiGet([][]byte{[]byte("b1"), []byte("b2"), []byte("nope")})
	if err != nil {
		t.Fatalf("mget: %v", err)
	}
	if vals[0] != nil || string(vals[1]) != "v2" || vals[2] != nil {
		t.Fatalf("mget values: %q", vals)
	}

	kvs, err := c.Scan(nil, 10)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(kvs) != 1 || string(kvs[0].Key) != "b2" {
		t.Fatalf("scan: %+v", kvs)
	}

	text, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	for _, want := range []string{"server.ops.put 1", "server.ops.get 3", "server.ops.batch 1", "NVMe: used="} {
		if !strings.Contains(text, want) {
			t.Fatalf("stats missing %q in:\n%s", want, text)
		}
	}
}

// TestMalformedPayloadKeepsConnection: a well-framed but invalid request
// gets StatusBadRequest and the connection keeps working.
func TestMalformedPayloadKeepsConnection(t *testing.T) {
	env := newTestEnv(t, nil)
	nc, err := net.Dial("tcp", env.addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()

	// A PUT whose payload declares an empty key.
	bad := wire.AppendFrame(nil, wire.Frame{Op: wire.OpPut, ID: 7, Payload: wire.AppendPutReq(nil, nil, []byte("v"))})
	// An unknown op code.
	unknown := wire.AppendFrame(nil, wire.Frame{Op: wire.Op(99), ID: 8})
	// A valid ping.
	ping := wire.AppendFrame(nil, wire.Frame{Op: wire.OpPing, ID: 9, Payload: []byte("hi")})
	if _, err := nc.Write(append(append(bad, unknown...), ping...)); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := map[uint64]wire.Frame{}
	for i := 0; i < 3; i++ {
		f, err := wire.ReadFrame(nc, 0)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		got[f.ID] = f
	}
	if got[7].Status != wire.StatusBadRequest {
		t.Fatalf("empty-key put: %+v", got[7])
	}
	if got[8].Status != wire.StatusBadRequest {
		t.Fatalf("unknown op: %+v", got[8])
	}
	if got[9].Status != wire.StatusOK || !bytes.Equal(got[9].Payload, []byte("hi")) {
		t.Fatalf("ping after bad requests: %+v", got[9])
	}
	if n := env.srv.Stats().BadRequests.Load(); n != 2 {
		t.Fatalf("BadRequests = %d, want 2", n)
	}
}

// TestBadFrameDropsConnection: an undecodable stream loses its connection,
// the server survives and keeps serving others.
func TestBadFrameDropsConnection(t *testing.T) {
	env := newTestEnv(t, nil)
	nc, err := net.Dial("tcp", env.addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	// Plausible length, garbage body: CRC cannot match.
	if _, err := nc.Write([]byte{0, 0, 0, 14, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}); err != nil {
		t.Fatalf("write: %v", err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after garbage: %v, want EOF (dropped)", err)
	}
	if n := env.srv.Stats().BadFrames.Load(); n != 1 {
		t.Fatalf("BadFrames = %d, want 1", n)
	}
	// The server is still healthy.
	c := dialTest(t, env, 1)
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after drop: %v", err)
	}
}

func TestMaxConnsRejects(t *testing.T) {
	env := newTestEnv(t, func(c *Config) { c.MaxConns = 1 })
	first, err := net.Dial("tcp", env.addr)
	if err != nil {
		t.Fatalf("dial 1: %v", err)
	}
	defer first.Close()
	// Prove the first conn is admitted before racing the second one in.
	if _, err := first.Write(wire.AppendFrame(nil, wire.Frame{Op: wire.OpPing, ID: 1})); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := wire.ReadFrame(first, 0); err != nil {
		t.Fatalf("ping: %v", err)
	}

	second, err := net.Dial("tcp", env.addr)
	if err != nil {
		t.Fatalf("dial 2: %v", err)
	}
	defer second.Close()
	second.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := second.Read(make([]byte, 1)); err == nil {
		t.Fatal("second conn read succeeded; want rejection")
	}
	if n := env.srv.Stats().ConnsRejected.Load(); n != 1 {
		t.Fatalf("ConnsRejected = %d, want 1", n)
	}
}

func TestShutdownConcurrentCallers(t *testing.T) {
	env := newTestEnv(t, nil)
	c := dialTest(t, env, 1)
	if err := c.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("put: %v", err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = env.srv.Shutdown()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("shutdown[%d]: %v", i, err)
		}
	}
	// The engine is closed (OwnDB): further direct ops fail.
	if err := env.db.Put([]byte("x"), []byte("y")); !errors.Is(err, hyperdb.ErrClosed) {
		t.Fatalf("put after shutdown: %v, want ErrClosed", err)
	}
}

// TestPipelinedCoalescingAndRecovery is the end-to-end acceptance test:
// N clients pipeline puts/gets over TCP; the server's stats must prove the
// coalescing (mean ops per cycle's WriteBatch > 1 under concurrent load);
// graceful shutdown answers every in-flight request; and a recovery reopen
// of the same devices sees every acknowledged write.
func TestPipelinedCoalescingAndRecovery(t *testing.T) {
	env := newTestEnv(t, nil)

	const (
		goroutines = 32
		opsEach    = 200
	)
	var (
		ackedMu sync.Mutex
		acked   = make(map[string]string)
	)
	c := dialTest(t, env, 4)
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				k := fmt.Sprintf("key-%03d-%04d", g, i)
				v := fmt.Sprintf("val-%03d-%04d", g, i)
				if err := c.Put([]byte(k), []byte(v)); err != nil {
					errCh <- fmt.Errorf("put %s: %w", k, err)
					return
				}
				ackedMu.Lock()
				acked[k] = v
				ackedMu.Unlock()
				if i%3 == 0 {
					got, err := c.Get([]byte(k))
					if err != nil || string(got) != v {
						errCh <- fmt.Errorf("get %s = %q, %v", k, got, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	st := env.srv.Stats()
	if st.WriteBatches.Load() == 0 {
		t.Fatal("no write batches ran")
	}
	meanBatch := st.MeanWriteBatch()
	t.Logf("coalescing: %d wire writes in %d WriteBatch calls (mean %.2f), %d reads in %d MultiGets (mean %.2f), mean requests per cycle %.2f",
		st.WriteOps.Load(), st.WriteBatches.Load(), meanBatch,
		st.ReadOps.Load(), st.ReadBatches.Load(), st.MeanReadBatch(), st.MeanDrainDepth())
	if meanBatch <= 1 {
		t.Fatalf("mean ops per WriteBatch = %.3f, want > 1 under %d concurrent clients", meanBatch, goroutines)
	}
	if got, want := st.WriteOps.Load(), uint64(goroutines*opsEach); got != want {
		t.Fatalf("write ops %d, want %d", got, want)
	}

	// Keep a stream of writes in flight while shutdown runs; everything
	// acknowledged before the socket dies must survive recovery.
	stopWriters := make(chan struct{})
	var lateWG sync.WaitGroup
	for g := 0; g < 4; g++ {
		lateWG.Add(1)
		go func(g int) {
			defer lateWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stopWriters:
					return
				default:
				}
				k := fmt.Sprintf("late-%d-%06d", g, i)
				if err := c.Put([]byte(k), []byte("z")); err != nil {
					return // shutdown refused or dropped it: not acked
				}
				ackedMu.Lock()
				acked[k] = "z"
				ackedMu.Unlock()
			}
		}(g)
	}
	time.Sleep(20 * time.Millisecond)
	if err := env.srv.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	close(stopWriters)
	lateWG.Wait()

	// Reopen from the same simulated devices and verify every acked write.
	re, err := hyperdb.Open(env.opts)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer re.Close()
	for k, v := range acked {
		got, err := re.Get([]byte(k))
		if err != nil {
			t.Fatalf("acked key %q lost after recovery: %v", k, err)
		}
		if string(got) != v {
			t.Fatalf("acked key %q = %q after recovery, want %q", k, got, v)
		}
	}
	t.Logf("recovery verified %d acked writes", len(acked))
}
