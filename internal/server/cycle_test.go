package server

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"hyperdb"
	"hyperdb/internal/wire"
)

// frameLog collects every frame a raw connection delivers, keyed by id,
// until the socket fails; wire.ReadFrame checks each frame's length and CRC,
// so a torn or interleaved frame ends the collection with an error instead
// of a count.
type frameLog struct {
	mu     sync.Mutex
	frames map[uint64][]wire.Frame
	got    chan uint64 // every id as it arrives
	err    error
}

func collectFrames(nc io.Reader) *frameLog {
	l := &frameLog{frames: make(map[uint64][]wire.Frame), got: make(chan uint64, 1<<16)}
	go func() {
		defer close(l.got)
		for {
			f, err := wire.ReadFrame(nc, wire.MaxFrame)
			if err != nil {
				l.mu.Lock()
				l.err = err
				l.mu.Unlock()
				return
			}
			l.mu.Lock()
			l.frames[f.ID] = append(l.frames[f.ID], f)
			l.mu.Unlock()
			l.got <- f.ID
		}
	}()
	return l
}

// await blocks until id has arrived; a dead stream or ten seconds of silence
// is an error.
func (l *frameLog) await(id uint64) error {
	timeout := time.After(10 * time.Second)
	for {
		l.mu.Lock()
		n, err := len(l.frames[id]), l.err
		l.mu.Unlock()
		if n > 0 {
			return nil
		}
		select {
		case _, ok := <-l.got:
			if !ok {
				return fmt.Errorf("stream ended before id %d arrived: %v", id, err)
			}
		case <-timeout:
			return fmt.Errorf("id %d never answered", id)
		}
	}
}

// waitFor polls cond until it holds, failing the test after ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestPipelinedGetsSeeEarlierPuts is the serving path's ordering test: one
// raw connection pipelines 64-deep PUT k/GET k pairs (many requests to a
// cycle) while eight closed-loop clients (lone requests, each a cycle of
// one) write their own keys beside it. Every served GET must see the PUT
// before it — a cycle runs its writes before its reads — and afterwards
// every acked write must read back at its last acked version.
func TestPipelinedGetsSeeEarlierPuts(t *testing.T) {
	env := newTestEnv(t, nil)

	const closedLoop, keysEach = 8, 12
	stop := make(chan struct{})
	var wg sync.WaitGroup
	acked := make([]map[string]int, closedLoop+1) // per writer: key → last acked version
	errs := make(chan error, closedLoop+1)        // never fills: each goroutine stops at its first
	val := func(k []byte, v int) []byte { return []byte(fmt.Sprintf("%s=%d", k, v)) }
	for w := 0; w < closedLoop; w++ {
		acked[w] = make(map[string]int)
		c := dialTest(t, env, 1)
		keys := make([][]byte, keysEach)
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("cl%d-%02d", w, i))
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := keys[i%len(keys)]
				if err := c.Put(k, val(k, i)); err != nil {
					errs <- fmt.Errorf("writer %d put %s: %w", w, k, err)
					return
				}
				acked[w][string(k)] = i
				if got, err := c.Get(k); err != nil || !bytes.Equal(got, val(k, i)) {
					errs <- fmt.Errorf("writer %d get %s = %q, %v; want version %d", w, k, got, err, i)
					return
				}
			}
		}(w)
	}

	const depth = 64
	pipeKeys := make([][]byte, 8)
	for i := range pipeKeys {
		pipeKeys[i] = []byte(fmt.Sprintf("pipe-%d", i))
	}
	pipeAcked := make(map[string]int)
	acked[closedLoop] = pipeAcked
	nc := rawDial(t, env.addr)
	log := collectFrames(nc)
	// checkRound checks one round's replies, starting at id first: every
	// PUT and GET is answered OK, and each GET shows its PUT or a later PUT
	// of the key that shared its cycle. The caller holds log.mu.
	checkRound := func(first uint64, round int) error {
		for j := 0; j < depth; j++ {
			k := pipeKeys[j%len(pipeKeys)]
			ver := round*depth + j
			put, get := log.frames[first+uint64(2*j)], log.frames[first+uint64(2*j)+1]
			if len(put) != 1 || len(get) != 1 {
				return fmt.Errorf("pipeline pair %d answered %d/%d times", j, len(put), len(get))
			}
			if put[0].Status != wire.StatusOK || get[0].Status != wire.StatusOK {
				return fmt.Errorf("pipelined PUT/GET %s: status %s/%s", k, put[0].Status, get[0].Status)
			}
			pipeAcked[string(k)] = ver
			_, num, _ := bytes.Cut(get[0].Payload, []byte("="))
			if got, err := strconv.Atoi(string(num)); err != nil || got < ver || got >= (round+1)*depth {
				return fmt.Errorf("pipelined GET %s = %q after PUT of version %d", k, get[0].Payload, ver)
			}
		}
		return nil
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var id uint64
		for round := 0; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			var buf []byte
			first := id + 1
			for j := 0; j < depth; j++ {
				k := pipeKeys[j%len(pipeKeys)]
				ver := round*depth + j
				id++
				buf = wire.AppendFrame(buf, wire.Frame{Op: wire.OpPut, ID: id, Payload: wire.AppendPutReq(nil, k, val(k, ver))})
				id++
				buf = wire.AppendFrame(buf, wire.Frame{Op: wire.OpGet, ID: id, Payload: wire.AppendKeyReq(nil, k)})
			}
			if _, err := nc.Write(buf); err != nil {
				errs <- fmt.Errorf("pipeline write: %w", err)
				return
			}
			for i := first; i <= id; i++ {
				if err := log.await(i); err != nil {
					errs <- err
					return
				}
			}
			log.mu.Lock()
			err := checkRound(first, round)
			log.mu.Unlock()
			if err != nil {
				errs <- err
				return
			}
		}
	}()

	// A cycle holding k requests adds k-1 to DrainedRequests - Drains, so a
	// gap of 1000 means pipelined requests shared cycles.
	st := env.srv.Stats()
	waitFor(t, "lone and pipelined cycles", func() bool {
		return len(errs) > 0 || st.Drains.Load() >= 1000 && st.DrainedRequests.Load() >= st.Drains.Load()+1000
	})
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	final := dialTest(t, env, 1)
	checked := 0
	for w, m := range acked {
		for k, ver := range m {
			got, err := final.Get([]byte(k))
			if err != nil || !bytes.Equal(got, val([]byte(k), ver)) {
				t.Fatalf("writer %d: key %s = %q, %v; last acked version %d", w, k, got, err, ver)
			}
			checked++
		}
	}
	if len(pipeAcked) == 0 {
		t.Fatal("the pipelining connection never got a PUT acked")
	}
	t.Logf("verified %d keys; the server ran %d requests in %d cycles",
		checked, st.DrainedRequests.Load(), st.Drains.Load())
}

// TestParkedReadSharesConnectionWithInlineAndQueued: a gated session read on
// an otherwise idle connection to a follower that will never catch up
// starts in the reader's cycle, parks, and is answered later by its own
// goroutine; the same connection meanwhile sends lone requests (answered by
// the reader while the read is parked and after) and pipelined bursts. Every
// id must be answered exactly once over a stream whose every frame passes
// its CRC — the two goroutines writing the socket never interleave.
func TestParkedReadSharesConnectionWithInlineAndQueued(t *testing.T) {
	env, _ := newReplEnv(t, true, nil, func(c *Config) { c.ReadWait = 2 * time.Millisecond })
	nc := rawDial(t, env.addr)
	log := collectFrames(nc)

	var id uint64
	var gated []uint64
	ping := func() wire.Frame {
		id++
		return wire.Frame{Op: wire.OpPing, ID: id, Payload: []byte(fmt.Sprintf("echo-%d", id))}
	}
	const rounds = 25
	for r := 0; r < rounds; r++ {
		id++
		gated = append(gated, id)
		sendFrame(t, nc, wire.Frame{Op: wire.OpGet, ID: id, Seq: 1 << 40, Payload: wire.AppendKeyReq(nil, []byte("k"))})
		// Lone requests, one at a time, until the parked read resolves: the
		// ones around its reply race its goroutine for the socket. Three more
		// follow it.
		for after := 0; after < 3; {
			f := ping()
			sendFrame(t, nc, f)
			if err := log.await(f.ID); err != nil {
				t.Fatal(err)
			}
			log.mu.Lock()
			if len(log.frames[gated[r]]) > 0 {
				after++
			}
			log.mu.Unlock()
		}
		var burst []byte
		first := id + 1
		for j := 0; j < 32; j++ {
			burst = wire.AppendFrame(burst, ping())
		}
		if _, err := nc.Write(burst); err != nil {
			t.Fatal(err)
		}
		for i := first; i <= id; i++ {
			if err := log.await(i); err != nil {
				t.Fatal(err)
			}
		}
	}

	log.mu.Lock()
	defer log.mu.Unlock()
	if log.err != nil {
		t.Fatalf("stream broke: %v", log.err)
	}
	isGated := make(map[uint64]bool)
	for _, g := range gated {
		isGated[g] = true
	}
	for i := uint64(1); i <= id; i++ {
		fs := log.frames[i]
		if len(fs) != 1 {
			t.Fatalf("id %d answered %d times", i, len(fs))
		}
		switch {
		case isGated[i]:
			if fs[0].Status != wire.StatusNotReady || len(fs[0].Payload) != 0 {
				t.Fatalf("gated read %d: status %s payload %q, want a bare not ready", i, fs[0].Status, fs[0].Payload)
			}
		case fs[0].Status != wire.StatusOK || string(fs[0].Payload) != fmt.Sprintf("echo-%d", i):
			t.Fatalf("ping %d: status %s payload %q", i, fs[0].Status, fs[0].Payload)
		}
	}
	st := env.srv.Stats()
	if st.ReplReadParked.Load() != rounds {
		t.Fatalf("parked %d reads, want %d", st.ReplReadParked.Load(), rounds)
	}
	// Every frame ran in exactly one reader cycle (a parked read that times
	// out answers from its goroutine, outside any cycle), each burst shared
	// cycles, and every reply's service time was recorded.
	if got := st.DrainedRequests.Load(); got != id {
		t.Fatalf("%d requests ran in cycles, want %d", got, id)
	}
	if got := st.Drains.Load(); got > id-rounds {
		t.Fatalf("%d requests took %d cycles: the 32-frame bursts did not share cycles", id, got)
	}
	waitFor(t, "every reply's service time", func() bool { return st.Service.Count() == id })
}

// TestShutdownDuringInlineCycles: closed-loop clients keep lone requests in
// flight on every connection while Shutdown runs. Each call is answered or
// fails (never hangs), Shutdown returns, and recovery finds every acked
// write.
func TestShutdownDuringInlineCycles(t *testing.T) {
	env := newTestEnv(t, nil)
	const clients = 8
	var wg sync.WaitGroup
	acked := make([]int, clients) // writer w acked keys 0..acked[w]-1
	for w := 0; w < clients; w++ {
		c := dialTest(t, env, 1)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if err := c.Put([]byte(fmt.Sprintf("sd-%d-%06d", w, i)), []byte("v")); err != nil {
					return // refused or dropped by the shutdown: not acked
				}
				acked[w] = i + 1
			}
		}(w)
	}
	st := env.srv.Stats()
	waitFor(t, "cycles", func() bool { return st.Drains.Load() >= 200 })
	done := make(chan error, 1)
	go func() { done <- env.srv.Shutdown() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Shutdown did not return while cycles were running")
	}
	wg.Wait()
	if d, r := st.Drains.Load(), st.DrainedRequests.Load(); d != r {
		t.Fatalf("%d requests in %d cycles: a closed-loop call must be a cycle of its own", r, d)
	}

	re, err := hyperdb.Open(env.opts)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer re.Close()
	total := 0
	for w, n := range acked {
		for i := 0; i < n; i++ {
			if _, err := re.Get([]byte(fmt.Sprintf("sd-%d-%06d", w, i))); err != nil {
				t.Fatalf("acked key sd-%d-%06d lost: %v", w, i, err)
			}
		}
		total += n
	}
	if total == 0 {
		t.Fatal("no write was acked before shutdown")
	}
	t.Logf("shutdown mid-traffic: %d acked writes recovered", total)
}

// TestLoneMergesRunInline: a lone INCR or merge batch is a one-request cycle
// like any other lone request — the engine orders a merge against every
// other write to its key — and reads back through one.
func TestLoneMergesRunInline(t *testing.T) {
	env := newTestEnv(t, nil)
	c := dialTest(t, env, 1)
	st := env.srv.Stats()
	if v, err := c.Incr([]byte("n"), 1); err != nil || v != 1 {
		t.Fatalf("incr: %d %v", v, err)
	}
	if err := c.WriteBatch([]wire.BatchOp{{Key: []byte("n"), Merge: true, Delta: 2}}); err != nil {
		t.Fatal(err)
	}
	if d, r := st.Drains.Load(), st.DrainedRequests.Load(); d != 2 || r != 2 {
		t.Fatalf("after two lone merges: %d requests in %d cycles; want 2 in 2", r, d)
	}
	if v, err := c.Get([]byte("n")); err != nil || !bytes.Equal(v, hyperdb.EncodeCounter(3)) {
		t.Fatalf("get: %x %v", v, err)
	}
	if d, r := st.Drains.Load(), st.DrainedRequests.Load(); d != 3 || r != 3 {
		t.Fatalf("after a lone GET: %d requests in %d cycles; want 3 in 3", r, d)
	}
}

// serverGoroutines counts the goroutines running a method of a Server or
// of one of its connections, read off a dump of every goroutine's stack.
func serverGoroutines() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	count := 0
	for _, g := range bytes.Split(buf[:n], []byte("\n\n")) {
		if bytes.Contains(g, []byte("hyperdb/internal/server.(*conn)")) || bytes.Contains(g, []byte("hyperdb/internal/server.(*Server)")) {
			count++
		}
	}
	return count
}

// TestIdleConnectionsCostOneGoroutineEach: an idle connection is one
// goroutine, its reader, and closing the connections gives every goroutine
// back.
func TestIdleConnectionsCostOneGoroutineEach(t *testing.T) {
	env := newTestEnv(t, nil)
	st := env.srv.Stats()
	base := serverGoroutines() // the accept loop
	const n = 16
	conns := make([]io.Closer, n)
	for i := range conns {
		conns[i] = rawDial(t, env.addr)
	}
	waitFor(t, "connections admitted", func() bool { return st.ActiveConns() == n })
	time.Sleep(20 * time.Millisecond) // let every started goroutine reach its first read
	if got := serverGoroutines() - base; got != n {
		t.Fatalf("%d idle connections run %d goroutines, want %d", n, got, n)
	}
	for _, c := range conns {
		c.Close()
	}
	waitFor(t, "connections gone", func() bool { return st.ActiveConns() == 0 && serverGoroutines() == base })
}

// TestBurstOfPutsIsOneCycle: 32 PUT frames sent in one write arrive whole
// in the reader's buffer together, so they run as one cycle with one
// WriteBatch of 32 ops, and every one is acked and readable.
func TestBurstOfPutsIsOneCycle(t *testing.T) {
	env := newTestEnv(t, nil)
	st := env.srv.Stats()
	nc := rawDial(t, env.addr)
	const n = 32
	key := func(i int) []byte { return []byte(fmt.Sprintf("burst-%02d", i)) }
	var burst []byte
	for i := 1; i <= n; i++ {
		burst = wire.AppendFrame(burst, wire.Frame{Op: wire.OpPut, ID: uint64(i), Payload: wire.AppendPutReq(nil, key(i), []byte("v"))})
	}
	if _, err := nc.Write(burst); err != nil {
		t.Fatal(err)
	}
	acked := make(map[uint64]bool)
	for len(acked) < n {
		f, err := wire.ReadFrame(nc, wire.MaxFrame)
		if err != nil {
			t.Fatalf("after %d replies: %v", len(acked), err)
		}
		if f.Status != wire.StatusOK || f.ID < 1 || f.ID > n || acked[f.ID] {
			t.Fatalf("reply id %d status %s (acked so far %d)", f.ID, f.Status, len(acked))
		}
		acked[f.ID] = true
	}
	if d, r := st.Drains.Load(), st.DrainedRequests.Load(); d != 1 || r != n {
		t.Fatalf("%d requests in %d cycles, want %d in 1", r, d, n)
	}
	if b, ops := st.WriteBatches.Load(), st.WriteOps.Load(); b != 1 || ops != n {
		t.Fatalf("%d write ops in %d WriteBatch calls, want %d in 1", ops, b, n)
	}
	for i := 1; i <= n; i++ {
		if v, err := env.db.Get(key(i)); err != nil || string(v) != "v" {
			t.Fatalf("%s = %q, %v", key(i), v, err)
		}
	}
}
