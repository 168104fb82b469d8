// Package server is hyperd's network front door: a TCP listener that
// decodes wire-protocol frames and serves them from a HyperDB instance.
//
// Every request is served on the goroutine that read it. A connection is
// one goroutine: it reads a frame, keeps reading while the next frame is
// already whole in its read buffer (up to MaxInflight requests), runs what
// it read as one cycle of Server.process — the writes grouped into one
// DB.WriteBatch, the point reads into one DB.MultiGet — and answers the
// cycle with one socket write. A lone request is a cycle of one; a
// pipelined burst rides the engine's batch path. Connections run their
// cycles concurrently and take no server-wide lock.
//
// A request that must wait — a gated read ahead of replication — leaves
// the cycle for a goroutine of its own, which runs the request's own
// one-request cycle when the wait ends and writes its reply.
// Per-connection backpressure is an in-flight semaphore: a request holds a
// slot from decode until its reply is on the socket, and the reader stops
// reading once MaxInflight of its requests are unanswered.
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
	// decoded-but-unanswered requests a connection may hold before its
	// reader stops consuming from the socket, and so the most requests one
	// cycle holds. Default 128.
	MaxInflight int
	// MaxFrame bounds accepted frame bodies. Default wire.MaxFrame.
	MaxFrame uint32
	// MaxScanLimit caps the limit a SCAN request may ask for. Default 4096.
	MaxScanLimit int
	// ReadWait bounds how long a gated read (one whose frame token is ahead
	// of this node's applied position) may wait for replication to catch up
	// before the server answers StatusNotReady.
	// Waiting happens on a parked goroutine, never on the connection's
	// reader. Default 100ms; negative refuses immediately.
	ReadWait time.Duration
	// ConnRate, when positive, rate-limits each connection to that many
	// requests per second (token bucket, burst ConnBurst). Rejected requests
	// answer StatusRateLimited without entering a cycle.
	// Replication handshakes are exempt. Zero disables limiting.
	ConnRate float64
	// ConnBurst is the token bucket's capacity when ConnRate is set.
	// Zero defaults to max(1, ConnRate).
	ConnBurst int
	// NoMergeFold disables a cycle's same-key delta coalescing: every INCR
	// submits its own batch entry. The A/B switch for the merge bench;
	// production configurations leave it false.
	NoMergeFold bool
	// Repl, when non-nil, serves replication followers: a connection whose
	// first frame is REPL_HELLO leaves the request/response machinery and
	// is handed to Repl.ServeConn for log shipping. Nil rejects the
	// handshake. A follower-mode node may also set it (with its own log as
	// the engine tee) to serve downstream replicas after promotion.
	Repl *repl.Primary
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
	stats Stats

	mu     sync.Mutex
	conns  map[*conn]struct{}
	closed bool // guarded by mu: no new conns once set

	closing  atomic.Bool
	acceptWG sync.WaitGroup
	readerWG sync.WaitGroup

	// stopWait is closed at the start of shutdown to abort parked requests:
	// each resolves (runs its cycle or answers NOT_READY) and releases its
	// in-flight slot, which is what lets its connection's reader finish.
	stopWait chan struct{}

	shutdownOnce sync.Once
	shutdownErr  error
}

// New builds a Server. Call Serve to accept.
func New(cfg Config) (*Server, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		conns:    make(map[*conn]struct{}),
		stopWait: make(chan struct{}),
	}
	s.stats.ReplReadWait = stats.NewHistogram()
	s.stats.Service = stats.NewHistogram()
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
	go c.serve()
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
// connection readers (a cycle under way finishes and replies first, and so
// do the frames a reader had already received), answer every parked
// request, close all connections, and — when the server owns the DB —
// DrainBackground and Close the engine. Safe to call more than once and
// from concurrent goroutines; every caller observes completion.
func (s *Server) Shutdown() error {
	s.shutdownOnce.Do(func() { s.shutdownErr = s.shutdown() })
	// Once guarantees all callers block until the first finishes.
	return s.shutdownErr
}

func (s *Server) shutdown() error {
	s.closing.Store(true)
	// Abort parked requests first: each runs its cycle or replies NOT_READY
	// now, releasing the in-flight slot its connection's reader waits for
	// before it closes the socket.
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

	// Each reader answers the frames it had fully received, waits for its
	// parked requests' replies, closes its socket and leaves the registry.
	s.readerWG.Wait()

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

// request is one decoded, admitted client request. Its byte slices alias
// the frame body wire.ReadFrame allocated for it alone. Exactly one reply
// answers it.
type request struct {
	c  *conn
	id uint64
	op wire.Op
	// start is when the frame was decoded; the service-time histogram
	// measures from it.
	start time.Time
	// cy is the cycle the request's reply joins: its connection reader's
	// cycle, or — once it waits off the reader — a cycle of its own.
	cy *cycle

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
}

// own moves r onto a cycle of its own, for a request answered off its
// connection's reader, and returns it.
func (r *request) own() *cycle {
	r.cy = &cycle{reqs: []*request{r}}
	return r.cy
}

// cycle is one run of Server.process and the reply frames it produced. Its
// owner — a connection's reader, or the goroutine of a request that waited
// off the reader — writes it out, so a client that does not read blocks
// that goroutine and nobody else.
type cycle struct {
	reqs []*request
	out  []byte
	// starts holds the decode time of each request answered into out; each
	// frees one in-flight slot once out is on the socket.
	starts []time.Time
}

// readBufSize sizes the per-connection read buffer.
const readBufSize = 64 << 10

// maxKeptReply bounds the reply buffer a connection keeps between cycles;
// one large SCAN must not pin its reply for the connection's life.
const maxKeptReply = 64 << 10

type conn struct {
	srv *Server
	nc  net.Conn
	br  *bufio.Reader
	// wmu serialises socket writes: the reader and the goroutines of its
	// requests that waited off it each write whole cycles under it, so
	// frames never interleave.
	wmu sync.Mutex
	// cy is the reader's cycle under construction; only the reader touches it.
	cy cycle
	// inflight is the per-connection backpressure semaphore: a request
	// holds one slot from decode until its reply is on the socket.
	inflight chan struct{}
	// limiter, when non-nil, admission-controls this connection's requests
	// (Config.ConnRate).
	limiter *tokenBucket
}

func newConn(s *Server, nc net.Conn) *conn {
	c := &conn{
		srv:      s,
		nc:       nc,
		br:       bufio.NewReaderSize(nc, readBufSize),
		inflight: make(chan struct{}, s.cfg.MaxInflight),
	}
	if s.cfg.ConnRate > 0 {
		c.limiter = newTokenBucket(s.cfg.ConnRate, s.cfg.ConnBurst)
	}
	return c
}

// serve is the connection's goroutine. It reads a frame, keeps reading
// while the next frame is already whole in the read buffer and a slot is
// free, then runs what it read as one cycle and writes the replies — until
// the peer disconnects, the stream turns malformed, or Shutdown interrupts
// it. Only the reader acquires slots, so a free slot seen before a read is
// still free when the frame is admitted.
func (c *conn) serve() {
	defer c.srv.readerWG.Done()
	defer c.finish()
	for first := true; ; first = false {
		f, err := wire.ReadFrame(c.br, c.srv.cfg.MaxFrame)
		if err != nil {
			if !isClientGone(err) && !c.srv.closing.Load() {
				// Malformed stream (bad CRC, oversized frame, garbage
				// length): the frame boundary is lost, so drop the
				// connection rather than guess.
				c.srv.stats.BadFrames.Inc()
				c.srv.logf("conn %s: dropping on malformed stream: %v", c.nc.RemoteAddr(), err)
			}
			return
		}
		if !c.admit(f, first) {
			return
		}
		if wire.Buffered(c.br) && len(c.inflight) < cap(c.inflight) {
			continue
		}
		c.run(&c.cy)
	}
}

// admit adds the request a frame carries to the reader's cycle, or answers
// the frame at once. It reports false when the connection's request stream
// ends with this frame.
func (c *conn) admit(f wire.Frame, first bool) bool {
	s := c.srv
	switch {
	case s.closing.Load():
		// Shutdown raced the read: refuse rather than admit new work.
		c.respondError(f.ID, f.Op, wire.StatusShuttingDown, "server shutting down")
		return false
	case f.Op == wire.OpReplHello:
		// A replication subscription claims the whole connection; it must be
		// the very first frame so no request/response traffic is interleaved
		// with the push stream.
		c.serveRepl(f, first)
		return false
	case c.limiter != nil && !c.limiter.allow():
		s.stats.RateLimited.Inc()
		c.respondError(f.ID, f.Op, wire.StatusRateLimited, "rate limited")
		return true
	}
	req, err := c.decode(f)
	if err != nil {
		s.stats.BadRequests.Inc()
		c.respondError(f.ID, f.Op, wire.StatusBadRequest, err.Error())
		return true
	}
	c.inflight <- struct{}{} // backpressure: blocks while MaxInflight are unanswered
	req.cy = &c.cy
	c.cy.reqs = append(c.cy.reqs, req)
	return true
}

// run serves a cycle's requests, then writes the cycle's replies.
func (c *conn) run(cy *cycle) {
	if len(cy.reqs) > 0 {
		c.srv.process(cy.reqs)
		clear(cy.reqs)
		cy.reqs = cy.reqs[:0]
	}
	c.write(cy)
}

// write puts a cycle's reply frames on the socket with one write, then
// records each answered request's service time and frees its slot. A failed
// write closes the socket, which ends the reader.
func (c *conn) write(cy *cycle) {
	var err error
	if len(cy.out) > 0 {
		c.wmu.Lock()
		_, err = c.nc.Write(cy.out)
		c.wmu.Unlock()
		if err != nil {
			c.nc.Close()
		}
	}
	now := time.Now()
	for _, t := range cy.starts {
		if err == nil && !t.IsZero() {
			c.srv.stats.Service.Record(now.Sub(t))
		}
		<-c.inflight
	}
	cy.starts = cy.starts[:0]
	if cy.out = cy.out[:0]; cap(cy.out) > maxKeptReply {
		cy.out = nil
	}
}

// finish ends the connection: it answers what the reader had gathered,
// waits until every slot is free again — every request answered off the
// reader has written its reply — and closes the socket.
func (c *conn) finish() {
	c.run(&c.cy)
	for i := 0; i < cap(c.inflight); i++ {
		c.inflight <- struct{}{}
	}
	c.nc.Close()
	c.srv.removeConn(c)
}

// serveRepl hands the connection to the replication subsystem. REPL_HELLO is
// the connection's first frame, so nothing else of it is unanswered and the
// stream is the socket's single writer. The call runs on the reader
// goroutine, keeping the connection inside readerWG: Shutdown's read
// deadline still interrupts the stream's ack reader, which unwinds
// ServeConn.
func (c *conn) serveRepl(f wire.Frame, first bool) {
	srv := c.srv
	refuse := func(msg string) {
		srv.stats.BadRequests.Inc()
		c.respondError(f.ID, f.Op, wire.StatusBadRequest, msg)
	}
	if srv.cfg.Repl == nil {
		refuse("replication not enabled")
		return
	}
	if !first {
		refuse("REPL_HELLO must be the first frame")
		return
	}
	epoch, lastApplied, flags, err := wire.DecodeReplHelloReq(f.Payload)
	if err != nil {
		refuse(err.Error())
		return
	}
	srv.stats.ReplConns.Inc()
	srv.stats.replActive.Add(1)
	defer srv.stats.replActive.Add(-1)
	srv.logf("conn %s: replication follower attached at seq %d", c.nc.RemoteAddr(), lastApplied)
	if err := srv.cfg.Repl.ServeConn(c.nc, c.br, epoch, lastApplied, flags); err != nil && !srv.closing.Load() {
		srv.logf("conn %s: replication stream ended: %v", c.nc.RemoteAddr(), err)
	}
}

// decode turns a frame into a request. Keys and values alias the frame's
// payload, which wire.ReadFrame allocated for this frame alone, so they
// outlive the read iteration — parked, or inside the engine — without a
// copy.
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
	case wire.OpStats:
		if len(f.Payload) != 0 {
			err = fmt.Errorf("%s takes no payload", strings.ToLower(f.Op.String()))
		}
	case wire.OpIncr:
		req.key, req.delta, err = wire.DecodeIncrReq(f.Payload)
	case wire.OpReplFrame, wire.OpReplAck, wire.OpReplSnapshot, wire.OpTreeRoot, wire.OpTreeDiff:
		// Push-stream ops are only meaningful inside a REPL_HELLO stream; as
		// requests they have no response protocol.
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

// respondError answers, on the reader, a frame that never became a request
// of a cycle: its frame joins the reader's next write.
func (c *conn) respondError(id uint64, op wire.Op, st wire.Status, msg string) {
	c.cy.out = wire.AppendFrame(c.cy.out, wire.Frame{Op: op, Status: st, ID: id, Payload: []byte(msg)})
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
