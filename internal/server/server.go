// Package server is hyperd's network front door: a TCP listener that
// decodes wire-protocol frames and serves them from a HyperDB instance.
//
// A request takes one of two paths, chosen from what the server can see of
// the connection's traffic. A lone request — nothing else of its connection
// unanswered, nothing buffered behind it — is served where it was read: the
// connection's reader goroutine runs the cycle and writes the reply itself,
// concurrently with every other connection's lone requests. Anything
// pipelined goes through the coalescing queue, whose one drainer goroutine
// groups the writes of all connections into one DB.WriteBatch per drain
// cycle and the point reads into one DB.MultiGet, so pipelined load rides
// the engine's batch path. Both paths run the same Server.process.
//
// Concurrency layout: every connection owns a reader goroutine (decode →
// serve inline or submit) and a writer goroutine (queued responses →
// socket); one drainer goroutine owns the queue. Inline cycles hold
// Server.cycles shared, drain cycles hold it exclusive. Per-connection
// backpressure is an in-flight semaphore: a reader blocks once MaxInflight
// of its requests are unanswered, which bounds the coalescing queue at
// conns × MaxInflight entries.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hyperdb"
	"hyperdb/internal/cluster"
	"hyperdb/internal/repl"
	"hyperdb/internal/stats"
	"hyperdb/internal/wire"
)

// Config parameterises a Server. The zero value of every field gets a sane
// default from fill.
type Config struct {
	// DB is the engine to serve. Required.
	DB *hyperdb.DB
	// OwnDB makes Shutdown finish the engine too: DrainBackground then
	// Close. hyperd sets it; tests that reuse the DB leave it false.
	OwnDB bool
	// MaxConns caps concurrently served connections; further accepts are
	// closed immediately. Default 256.
	MaxConns int
	// MaxInflight is the per-connection pipelining window: the number of
	// submitted-but-unanswered requests a connection may hold before its
	// reader stops consuming from the socket. Default 128.
	MaxInflight int
	// MaxFrame bounds accepted frame bodies. Default wire.MaxFrame.
	MaxFrame uint32
	// CoalesceWait, when positive, lets a drain cycle that found fewer
	// than two requests wait once for more to arrive before hitting the
	// engine. Zero (the default) drains whatever is immediately pending.
	CoalesceWait time.Duration
	// MaxScanLimit caps the limit a SCAN request may ask for. Default 4096.
	MaxScanLimit int
	// ReadWait bounds how long a gated read (one whose frame token is ahead
	// of this node's applied position) may wait for replication to catch up
	// before the server answers StatusNotReady.
	// Waiting happens on a parked goroutine, never on the drainer. Default
	// 100ms; negative refuses immediately.
	ReadWait time.Duration
	// ConnRate, when positive, rate-limits each connection to that many
	// requests per second (token bucket, burst ConnBurst). Rejected requests
	// answer StatusRateLimited without entering the coalescing queue.
	// Replication handshakes are exempt. Zero disables limiting.
	ConnRate float64
	// ConnBurst is the token bucket's capacity when ConnRate is set.
	// Zero defaults to max(1, ConnRate).
	ConnBurst int
	// NoMergeFold disables the drainer's same-key delta coalescing: every
	// INCR submits its own batch entry. The A/B switch for the merge bench;
	// production configurations leave it false.
	NoMergeFold bool
	// Repl, when non-nil, serves replication followers: a connection whose
	// first frame is REPL_HELLO detaches from the request/response machinery
	// and is handed to Repl.ServeConn for log shipping. Nil rejects the
	// handshake. A follower-mode node may also set it (with its own log as
	// the engine tee) to serve downstream replicas after promotion.
	Repl *repl.Primary
	// Cluster, when non-nil, puts the node in sharded-cluster mode: every
	// keyed op is checked against the shard map before it touches the
	// engine, mis-routed ops bounce with StatusWrongShard plus the current
	// map, OpShardMap serves the map, and the handoff ops drive slot
	// migration (Repl must also be set — handoff reuses its snapshot
	// stream). Nil serves the whole keyspace, exactly as before.
	Cluster *cluster.Node
	// Epoch reports the node's current write-lineage identifier: the
	// replication log's epoch on a primary, the upstream epoch on a
	// follower. Responses carry it next to the applied sequence, and reads
	// whose token names a different non-zero epoch are refused NOT_READY —
	// their sequences are not comparable to this lineage. Nil reports 0,
	// which disables the check.
	Epoch func() uint64
	// Logf receives connection-level diagnostics. Nil disables logging.
	Logf func(format string, args ...any)
}

func (c *Config) fill() error {
	if c.DB == nil {
		return errors.New("server: Config.DB is required")
	}
	if c.MaxConns <= 0 {
		c.MaxConns = 256
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 128
	}
	if c.MaxFrame == 0 || c.MaxFrame > wire.MaxFrame {
		c.MaxFrame = wire.MaxFrame
	}
	if c.MaxScanLimit <= 0 {
		c.MaxScanLimit = 4096
	}
	if c.ReadWait == 0 {
		c.ReadWait = 100 * time.Millisecond
	}
	return nil
}

// Server serves one DB over one listener.
type Server struct {
	cfg Config

	ln    net.Listener
	queue chan *request
	stats Stats

	// cycles orders inline cycles against drain cycles: a reader goroutine
	// serving a lone request holds it shared (TryRLock — a running drain
	// cycle or barrier sends the request to the queue instead), the drainer
	// holds it exclusive. A drain cycle therefore starts only after every
	// inline cycle that began before it has committed, which is what a
	// handoff barrier proves when it closes. Inline writes need no lock of
	// their own: the engine applies each key's writes in sequence order.
	cycles sync.RWMutex

	mu     sync.Mutex
	conns  map[*conn]struct{}
	closed bool // guarded by mu: no new conns once set

	closing  atomic.Bool
	acceptWG sync.WaitGroup
	readerWG sync.WaitGroup
	writerWG sync.WaitGroup
	drainWG  sync.WaitGroup

	// flushed is closed after the drainer exits, telling idle writers the
	// last response they will ever receive has been enqueued.
	flushed chan struct{}
	// stopWait is closed at the start of shutdown to abort parked session
	// reads: their waiters resolve (ready or NOT_READY) and release their
	// in-flight slots, which is what lets readerWG.Wait complete.
	stopWait chan struct{}

	shutdownOnce sync.Once
	shutdownErr  error
}

// New builds a Server and starts its drainer. Call Serve to accept.
func New(cfg Config) (*Server, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		queue:    make(chan *request, queueDepth),
		conns:    make(map[*conn]struct{}),
		flushed:  make(chan struct{}),
		stopWait: make(chan struct{}),
	}
	s.stats.ReplReadWait = stats.NewHistogram()
	s.stats.InlineService = stats.NewHistogram()
	s.stats.QueuedService = stats.NewHistogram()
	s.drainWG.Add(1)
	go s.drainLoop()
	return s, nil
}

// Listen is a convenience: net.Listen("tcp", addr) + Serve in a goroutine.
// It returns once the listener is bound, so the address is connectable.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.acceptWG.Add(1)
	go func() {
		defer s.acceptWG.Done()
		s.Serve(ln)
	}()
	return ln.Addr(), nil
}

// Serve accepts connections on ln until Shutdown closes it. It returns the
// terminal accept error (nil after a clean Shutdown).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already shut down")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.closing.Load() {
				return nil
			}
			return err
		}
		s.startConn(nc)
	}
}

// startConn admits nc or closes it when the server is full or closing.
func (s *Server) startConn(nc net.Conn) {
	s.mu.Lock()
	if s.closed || len(s.conns) >= s.cfg.MaxConns {
		full := !s.closed
		s.mu.Unlock()
		if full {
			s.stats.ConnsRejected.Inc()
			s.logf("conn %s rejected: at MaxConns=%d", nc.RemoteAddr(), s.cfg.MaxConns)
		}
		nc.Close()
		return
	}
	c := newConn(s, nc)
	s.conns[c] = struct{}{}
	s.mu.Unlock()

	s.stats.ConnsAccepted.Inc()
	s.stats.connsActive.Add(1)
	s.readerWG.Add(1)
	s.writerWG.Add(1)
	go c.readLoop()
	go c.writeLoop()
}

// removeConn drops c from the registry once its reader is done.
func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.stats.connsActive.Add(-1)
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Stats returns the server's counters (live; fields are atomic).
func (s *Server) Stats() *Stats { return &s.stats }

// Shutdown performs the graceful stop sequence: stop accepting, interrupt
// connection readers (an inline cycle under way finishes and replies first;
// pipelined requests already received stay in flight),
// drain the coalescing queue so every in-flight request gets its response,
// flush and close all connections, and — when the server owns the DB —
// DrainBackground and Close the engine. Safe to call more than once and
// from concurrent goroutines; every caller observes completion.
func (s *Server) Shutdown() error {
	s.shutdownOnce.Do(func() { s.shutdownErr = s.shutdown() })
	// Once guarantees all callers block until the first finishes.
	return s.shutdownErr
}

func (s *Server) shutdown() error {
	s.closing.Store(true)
	// Abort parked session reads first: each either requeues (and is
	// answered by the drainer, which runs until the queue closes below) or
	// replies NOT_READY itself; both release the in-flight slot that
	// readerWG.Wait is about to wait on.
	close(s.stopWait)
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		// Wake readers blocked in Read; they observe closing and exit.
		c.nc.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.acceptWG.Wait()

	// Readers exit after submitting every frame they had fully received;
	// their deferred drain of the in-flight semaphore means readerWG.Wait
	// also waits for the drainer to answer those requests.
	s.readerWG.Wait()

	// No submitters remain: close the queue, let the drainer finish the
	// tail, then release writers that are idle.
	close(s.queue)
	s.drainWG.Wait()
	close(s.flushed)
	s.writerWG.Wait()

	s.mu.Lock()
	for c := range s.conns {
		c.nc.Close()
		delete(s.conns, c)
	}
	s.mu.Unlock()

	if s.cfg.OwnDB {
		if err := s.cfg.DB.DrainBackground(); err != nil {
			s.cfg.DB.Close()
			return fmt.Errorf("server: drain background: %w", err)
		}
		if err := s.cfg.DB.Close(); err != nil {
			return fmt.Errorf("server: close db: %w", err)
		}
	}
	return nil
}

// request is one decoded, admitted client request, served inline or waiting
// in the coalescing queue. Its byte slices alias the frame body
// wire.ReadFrame allocated for it alone. Exactly one reply answers it.
type request struct {
	c  *conn
	id uint64
	op wire.Op
	// start is when the frame was decoded; the service-time histograms
	// measure from it.
	start time.Time
	// inline is set while the request's reply belongs in its connection's
	// inline buffer: the reader goroutine is running its cycle. A request
	// that parks clears it and is answered through the writer.
	inline bool

	key   []byte         // GET/DEL/SCAN start/INCR
	value []byte         // PUT
	batch []wire.BatchOp // BATCH
	keys  [][]byte       // MGET
	limit int            // SCAN
	echo  []byte         // PING
	delta int64          // INCR

	// (minSeq, minEpoch) is the request frame's token, a read's gate: the
	// position the node must have applied, in the lineage it must share,
	// before answering. Zero gates nothing.
	minSeq   uint64
	minEpoch uint64

	// slots carries a HANDOFF request's migrating slot list.
	slots []uint32

	// barrier marks a synthetic drainer-barrier request (no conn, no op):
	// the drainer closes the channel when it reaches the request, proving
	// every earlier cycle's writes have committed. The handoff flip uses it
	// to order the ownership swap against in-flight writes.
	barrier chan struct{}

	// acqDeadline bounds how long an op for a slot this node is still
	// acquiring may be re-parked before it bounces WRONG_SHARD anyway.
	acqDeadline time.Time
}

// readBufSize sizes the per-connection read buffer; queueDepth is the
// coalescing queue's capacity and the most requests one drain cycle takes.
const readBufSize, queueDepth = 64 << 10, 4096

// response is one encoded reply frame on its way to the writer goroutine.
// start is the request's decode time; zero for replies to frames that never
// became requests.
type response struct {
	frame []byte
	start time.Time
}

type conn struct {
	srv *Server
	nc  net.Conn
	br  *bufio.Reader
	// wmu guards bw: the writer goroutine and the reader's inline replies
	// both write whole frames under it, so frames never interleave.
	wmu sync.Mutex
	bw  *bufio.Writer

	// ibuf collects the reply frames of the inline cycle under way and cycle
	// is that cycle's one-element batch; both belong to the reader goroutine.
	ibuf  []byte
	cycle [1]*request

	// out carries encoded responses to the writer. Capacity MaxInflight+2
	// exceeds the most responses that can be outstanding at once (at most
	// MaxInflight semaphore-holding requests plus the reader's own single
	// synchronous error reply), so enqueues never block in steady state.
	out chan response
	// inflight is the per-connection backpressure semaphore.
	inflight chan struct{}
	// dead is closed when the writer abandons the socket; responders then
	// drop instead of blocking.
	dead     chan struct{}
	deadOnce sync.Once
	// wdone is closed when the writer goroutine exits; the replication
	// handoff waits on it before taking over the socket.
	wdone chan struct{}
	// detached marks a connection surrendered to the replication stream:
	// the exiting writer must leave the socket open for it.
	detached atomic.Bool
	// limiter, when non-nil, admission-controls this connection's requests
	// (Config.ConnRate).
	limiter *tokenBucket
}

func newConn(s *Server, nc net.Conn) *conn {
	c := &conn{
		srv:      s,
		nc:       nc,
		br:       bufio.NewReaderSize(nc, readBufSize),
		bw:       bufio.NewWriterSize(nc, readBufSize),
		out:      make(chan response, s.cfg.MaxInflight+2),
		inflight: make(chan struct{}, s.cfg.MaxInflight),
		dead:     make(chan struct{}),
		wdone:    make(chan struct{}),
	}
	if s.cfg.ConnRate > 0 {
		c.limiter = newTokenBucket(s.cfg.ConnRate, s.cfg.ConnBurst)
	}
	return c
}

func (c *conn) kill() { c.deadOnce.Do(func() { close(c.dead) }) }

// readLoop decodes frames and submits requests until the peer disconnects,
// the stream turns malformed, or Shutdown interrupts it. On exit it waits
// for every submitted request to be answered, then lets the writer finish.
func (c *conn) readLoop() {
	defer c.srv.readerWG.Done()
	defer c.finishReads()
	first := true
	for {
		f, err := wire.ReadFrame(c.br, c.srv.cfg.MaxFrame)
		if err != nil {
			if !isClientGone(err) && !c.srv.closing.Load() {
				// Malformed stream (bad CRC, oversized frame, garbage
				// length): the frame boundary is lost, so drop the
				// connection rather than guess.
				c.srv.stats.BadFrames.Inc()
				c.srv.logf("conn %s: dropping on malformed stream: %v", c.nc.RemoteAddr(), err)
				c.kill()
			}
			return
		}
		if c.srv.closing.Load() {
			// Shutdown raced the read: refuse rather than admit new work.
			c.respondError(f.ID, f.Op, wire.StatusShuttingDown, "server shutting down")
			return
		}
		if f.Op == wire.OpReplHello {
			// A replication subscription claims the whole connection; it
			// must be the very first frame so no request/response traffic
			// is interleaved with the push stream.
			c.serveRepl(f, first)
			return
		}
		if f.Op == wire.OpHandoffHello {
			// Same contract as REPL_HELLO: a handoff stream owns its
			// connection from the first frame on.
			c.serveHandoffSource(f, first)
			return
		}
		if f.Op == wire.OpHandoff {
			// The admin trigger runs a whole slot migration — far too long
			// for the drainer. It occupies one in-flight slot on its own
			// goroutine; the reply releases it like any queued request.
			first = false
			if req, perr := c.decodeHandoff(f); perr != nil {
				c.srv.stats.BadRequests.Inc()
				c.respondError(f.ID, f.Op, wire.StatusBadRequest, perr.Error())
			} else {
				c.inflight <- struct{}{}
				go c.srv.runHandoffTarget(req)
			}
			continue
		}
		first = false
		if c.limiter != nil && !c.limiter.allow() {
			c.srv.stats.RateLimited.Inc()
			c.respondError(f.ID, f.Op, wire.StatusRateLimited, "rate limited")
			continue
		}
		req, perr := c.decode(f)
		if perr != nil {
			c.srv.stats.BadRequests.Inc()
			c.respondError(f.ID, f.Op, wire.StatusBadRequest, perr.Error())
			continue
		}
		c.inflight <- struct{}{} // backpressure: blocks at MaxInflight
		if !c.serveInline(req) {
			c.srv.queue <- req
		}
	}
}

// maxKeptReply bounds the inline reply buffer a connection keeps between
// requests; one large SCAN must not pin its reply for the connection's life.
const maxKeptReply = 64 << 10

// serveInline runs req's cycle on this reader goroutine when nothing could
// be gained by queueing it: the connection has nothing else unanswered (so
// its requests still execute in arrival order), nothing is buffered behind
// the request (so there is nothing to coalesce it with), and no drain cycle
// or barrier is running. It reports false, having done
// nothing, when the request must take the queue.
//
// The shared lock is released before the reply touches the socket: a client
// that does not read blocks this goroutine — its own — and nobody else.
func (c *conn) serveInline(req *request) bool {
	s := c.srv
	if len(c.inflight) != 1 || c.br.Buffered() != 0 || !s.cycles.TryRLock() {
		return false
	}
	req.inline = true
	c.cycle[0] = req
	s.stats.InlineCycles.Inc()
	s.process(c.cycle[:])
	s.cycles.RUnlock()
	c.cycle[0] = nil
	if len(c.ibuf) == 0 {
		return true // parked: the writer goroutine answers it
	}
	c.wmu.Lock()
	_, err := c.bw.Write(c.ibuf)
	if err == nil {
		err = c.bw.Flush()
	}
	c.wmu.Unlock()
	if c.ibuf = c.ibuf[:0]; cap(c.ibuf) > maxKeptReply {
		c.ibuf = nil
	}
	if err != nil {
		c.kill()
		return true
	}
	s.stats.InlineService.Record(time.Since(req.start))
	return true
}

// serveRepl hands the connection to the replication subsystem. The writer
// goroutine is evicted first — it drains any queued frames, leaves the
// socket open (detached), and exits — so the repl stream is the socket's
// single writer. The call runs on the reader goroutine, keeping the
// connection inside readerWG: Shutdown's read deadline still interrupts the
// stream's ack reader, which unwinds ServeConn.
func (c *conn) serveRepl(f wire.Frame, first bool) {
	srv := c.srv
	if srv.cfg.Repl == nil {
		srv.stats.BadRequests.Inc()
		c.respondError(f.ID, f.Op, wire.StatusBadRequest, "replication not enabled")
		c.kill()
		return
	}
	if !first {
		srv.stats.BadRequests.Inc()
		c.respondError(f.ID, f.Op, wire.StatusBadRequest, "REPL_HELLO must be the first frame")
		c.kill()
		return
	}
	epoch, lastApplied, flags, err := wire.DecodeReplHelloReq(f.Payload)
	if err != nil {
		srv.stats.BadRequests.Inc()
		c.respondError(f.ID, f.Op, wire.StatusBadRequest, err.Error())
		c.kill()
		return
	}
	c.detached.Store(true)
	c.kill()
	<-c.wdone
	srv.stats.ReplConns.Inc()
	srv.stats.replActive.Add(1)
	defer srv.stats.replActive.Add(-1)
	srv.logf("conn %s: replication follower attached at seq %d", c.nc.RemoteAddr(), lastApplied)
	if err := srv.cfg.Repl.ServeConn(c.nc, c.br, epoch, lastApplied, flags); err != nil && !srv.closing.Load() {
		srv.logf("conn %s: replication stream ended: %v", c.nc.RemoteAddr(), err)
	}
}

// finishReads runs after the read loop: once the in-flight semaphore fully
// refills (every submitted request has enqueued its response), the writer
// may stop after flushing.
func (c *conn) finishReads() {
	for i := 0; i < cap(c.inflight); i++ {
		c.inflight <- struct{}{}
	}
	c.srv.removeConn(c)
	c.kill()
}

// decode turns a frame into a request. Keys and values alias the frame's
// payload, which wire.ReadFrame allocated for this frame alone, so they
// outlive the read iteration — on the queue, parked, or inside the engine —
// without a copy.
func (c *conn) decode(f wire.Frame) (*request, error) {
	if !f.Op.Valid() {
		return nil, fmt.Errorf("unknown op %d", uint8(f.Op))
	}
	req := &request{c: c, id: f.ID, op: f.Op, minSeq: f.Seq, minEpoch: f.Epoch, start: time.Now()}
	var err error
	var limit uint32
	switch f.Op {
	case wire.OpPing:
		req.echo = f.Payload
	case wire.OpPut:
		req.key, req.value, err = wire.DecodePutReq(f.Payload)
	case wire.OpGet, wire.OpDel:
		req.key, err = wire.DecodeKeyReq(f.Payload)
	case wire.OpBatch:
		req.batch, err = wire.DecodeBatchReq(f.Payload)
	case wire.OpMGet:
		req.keys, err = wire.DecodeMGetReq(f.Payload)
	case wire.OpScan:
		req.key, limit, err = wire.DecodeScanReq(f.Payload)
	case wire.OpStats, wire.OpShardMap:
		if len(f.Payload) != 0 {
			err = fmt.Errorf("%s takes no payload", strings.ToLower(f.Op.String()))
		}
	case wire.OpIncr:
		req.key, req.delta, err = wire.DecodeIncrReq(f.Payload)
	case wire.OpReplFrame, wire.OpReplAck, wire.OpReplSnapshot, wire.OpHandoffFlip:
		// Push-stream ops are only meaningful inside a REPL_HELLO or
		// HANDOFF_HELLO stream; as requests they have no response protocol.
		err = fmt.Errorf("%s outside a replication stream", f.Op)
	}
	if err != nil {
		return nil, err
	}
	if req.limit = int(limit); req.limit > c.srv.cfg.MaxScanLimit {
		req.limit = c.srv.cfg.MaxScanLimit
	}
	return req, nil
}

// decodeHandoff validates a HANDOFF admin request into a request that the
// target-side migration driver answers.
func (c *conn) decodeHandoff(f wire.Frame) (*request, error) {
	if c.srv.cfg.Cluster == nil || c.srv.cfg.Repl == nil {
		return nil, errors.New("cluster mode not enabled")
	}
	slots, err := wire.DecodeHandoffReq(f.Payload)
	if err != nil {
		return nil, err
	}
	nslots := uint32(len(c.srv.cfg.Cluster.Map().Slots))
	for _, s := range slots {
		if s >= nslots {
			return nil, fmt.Errorf("slot %d out of range (map has %d)", s, nslots)
		}
	}
	return &request{c: c, id: f.ID, op: f.Op, slots: slots}, nil
}

// send enqueues an encoded response frame, dropping it if the writer died.
func (c *conn) send(r response) {
	select {
	case c.out <- r:
	case <-c.dead:
	}
}

// respondError answers a request that never entered the queue.
func (c *conn) respondError(id uint64, op wire.Op, st wire.Status, msg string) {
	c.send(response{frame: wire.AppendFrame(nil, wire.Frame{Op: op, Status: st, ID: id, Payload: []byte(msg)})})
}

// writeLoop flushes queued responses to the socket, batching frames that
// are already queued into one flush. sent holds the decode times of the
// frames written since the last flush; flushing closes their service times.
func (c *conn) writeLoop() {
	defer c.srv.writerWG.Done()
	defer close(c.wdone)
	defer func() {
		// A detached connection belongs to the replication stream now;
		// closing it here would cut the stream off mid-handoff.
		if !c.detached.Load() {
			c.nc.Close()
		}
	}()
	var sent []time.Time
	write := func(r response) bool {
		c.wmu.Lock()
		_, err := c.bw.Write(r.frame)
		c.wmu.Unlock()
		if err != nil {
			c.kill()
			return false
		}
		if !r.start.IsZero() {
			sent = append(sent, r.start)
		}
		return true
	}
	flush := func() bool {
		c.wmu.Lock()
		err := c.bw.Flush()
		c.wmu.Unlock()
		if err != nil {
			c.kill()
			return false
		}
		for _, t := range sent {
			c.srv.stats.QueuedService.Record(time.Since(t))
		}
		sent = sent[:0]
		return true
	}
	// final is set once no further response can arrive (the reader finished
	// with everything enqueued, or the drainer exited): the loop then writes
	// the channel's remnant, flushes, and exits.
	final := false
	for {
		var r response
		select {
		case r = <-c.out:
		default:
			// Nothing pending: flush what we have, then sleep until the
			// next response, writer death, or end-of-world.
			if !flush() || final {
				return
			}
			select {
			case r = <-c.out:
			case <-c.dead:
				final = true
				continue
			case <-c.srv.flushed:
				final = true
				continue
			}
		}
		if !write(r) {
			return
		}
	}
}

// isClientGone reports whether err is a disconnect or a shutdown deadline,
// as opposed to a protocol violation on a live stream.
func isClientGone(err error) bool {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true // SetReadDeadline(now) during Shutdown
	}
	var oe *net.OpError
	return errors.As(err, &oe)
}
