// Package client is the Go client for hyperd's wire protocol. A Client
// multiplexes blocking calls from any number of goroutines over a small
// pool of TCP connections; concurrent calls on one connection pipeline
// naturally (each is tagged with a request id and matched to its response),
// which is exactly the traffic shape the server's per-connection cycles
// turn into WriteBatch/MultiGet group commits. A connection has no goroutine of
// its own: a lone call writes its request and reads its own response.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hyperdb/internal/wire"
)

// ErrNotFound is returned by Get for missing or deleted keys.
var ErrNotFound = errors.New("client: not found")

// ErrClosed is returned by calls on a closed Client.
var ErrClosed = errors.New("client: closed")

// ErrRateLimited is returned when the server's per-connection admission
// control refused the request; the caller may back off and retry.
var ErrRateLimited = errors.New("client: rate limited")

// Options configures Dial.
type Options struct {
	// Addr is the hyperd TCP address. Required.
	Addr string
	// Conns is the pool size. Default 2.
	Conns int
	// DialTimeout bounds each connection attempt. Default 5s.
	DialTimeout time.Duration
	// MaxFrame bounds response frames. Default wire.MaxFrame.
	MaxFrame uint32
	// RedialAttempts caps connection attempts per call; failed attempts
	// are retried after a capped exponential backoff with jitter (see
	// Backoff). Default 3. Set to 1 to fail on the first refusal.
	RedialAttempts int
	// RedialBackoff is the first retry delay; RedialBackoffMax caps the
	// exponential growth. Defaults 50ms and 2s.
	RedialBackoff    time.Duration
	RedialBackoffMax time.Duration
	// DialFunc overrides the transport dialer (tests, proxies). Default is
	// a DialTimeout-bounded net.DialTimeout.
	DialFunc func(addr string, timeout time.Duration) (net.Conn, error)
}

func (o *Options) fill() error {
	if o.Addr == "" {
		return errors.New("client: Options.Addr is required")
	}
	if o.Conns <= 0 {
		o.Conns = 2
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.MaxFrame == 0 || o.MaxFrame > wire.MaxFrame {
		o.MaxFrame = wire.MaxFrame
	}
	if o.RedialAttempts <= 0 {
		o.RedialAttempts = 3
	}
	if o.DialFunc == nil {
		o.DialFunc = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	return nil
}

// Client is a pooled, pipelining hyperd client. Safe for concurrent use.
type Client struct {
	opts   Options
	next   atomic.Uint64
	closed atomic.Bool

	mu    sync.Mutex
	conns []*conn // nil slots dial lazily; errored slots redial
}

// Dial validates opts and connects the first pool slot eagerly so an
// unreachable server fails fast. Remaining slots dial on first use.
func Dial(opts Options) (*Client, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	c := &Client{opts: opts, conns: make([]*conn, opts.Conns)}
	if _, err := c.conn(0); err != nil {
		return nil, err
	}
	return c, nil
}

// Close tears down every pooled connection. In-flight calls fail.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, cn := range c.conns {
		if cn != nil {
			cn.close(ErrClosed)
			c.conns[i] = nil
		}
	}
	return nil
}

// conn returns pool slot i, dialing or redialing as needed. A refused
// dial retries up to RedialAttempts times with capped exponential backoff
// plus jitter; the mutex is released across dials and sleeps so other pool
// slots keep serving while one slot waits out a dead server.
func (c *Client) conn(i int) (*conn, error) {
	bo := Backoff{Initial: c.opts.RedialBackoff, Max: c.opts.RedialBackoffMax}
	var lastErr error
	for attempt := 0; attempt < c.opts.RedialAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(bo.Next())
		}
		c.mu.Lock()
		if c.closed.Load() {
			c.mu.Unlock()
			return nil, ErrClosed
		}
		if cn := c.conns[i]; cn != nil && !cn.broken() {
			c.mu.Unlock()
			return cn, nil
		}
		c.mu.Unlock()

		nc, err := c.opts.DialFunc(c.opts.Addr, c.opts.DialTimeout)
		if err != nil {
			lastErr = err
			continue
		}
		c.mu.Lock()
		if c.closed.Load() {
			c.mu.Unlock()
			nc.Close()
			return nil, ErrClosed
		}
		if cn := c.conns[i]; cn != nil && !cn.broken() {
			// A concurrent caller won the redial race; keep its conn.
			c.mu.Unlock()
			nc.Close()
			return cn, nil
		}
		cn := newConn(nc, c.opts.MaxFrame)
		c.conns[i] = cn
		c.mu.Unlock()
		return cn, nil
	}
	return nil, fmt.Errorf("client: dial %s: %w", c.opts.Addr, lastErr)
}

// call runs one request→response exchange on a round-robin pool slot. gate
// rides in the request frame (zero: no gate); enc appends the request
// payload to the connection's write buffer (nil: empty payload). A
// connection the server closed while it sat idle is redialed once, before
// the request is written, so the caller never sees it.
func (c *Client) call(op wire.Op, gate Token, enc func([]byte) []byte) (wire.Frame, error) {
	if c.closed.Load() {
		return wire.Frame{}, ErrClosed
	}
	slot := int(c.next.Add(1)-1) % c.opts.Conns
	for redialed := false; ; redialed = true {
		cn, err := c.conn(slot)
		if err != nil {
			return wire.Frame{}, err
		}
		resp, err := cn.roundTrip(op, gate, enc)
		if err == errIdleClosed && !redialed {
			continue
		}
		return resp, err
	}
}

// callOK is call plus the common status handling: the success payload, and
// the position the response frame carries — the node's applied (or, for a
// write, committed) sequence and its epoch. The position is also valid
// beside ErrNotFound and ErrNotReady, though a session must not fold a
// NOT_READY position in (that would silently clamp its gate).
func (c *Client) callOK(op wire.Op, gate Token, enc func([]byte) []byte) ([]byte, Token, error) {
	resp, err := c.call(op, gate, enc)
	if err != nil {
		return nil, Token{}, err
	}
	tok := Token{Seq: resp.Seq, Epoch: resp.Epoch}
	if resp.Status != wire.StatusOK {
		return nil, tok, statusErr(resp)
	}
	return resp.Payload, tok, nil
}

func statusErr(f wire.Frame) error {
	switch f.Status {
	case wire.StatusNotFound:
		return ErrNotFound
	case wire.StatusNotReady:
		return ErrNotReady
	case wire.StatusRateLimited:
		return ErrRateLimited
	}
	return fmt.Errorf("client: %s: %s (%s)", f.Op, f.Status, f.Payload)
}

// Every data op has one implementation, the *Seq form: reads take the gate
// the server must have reached before answering (the zero Token asks for
// nothing) and every op returns the position it was served at, which is
// what a Session folds into its token. The plain forms below them are the
// same call with a zero gate and the position dropped.

// PutSeq writes key=value — durable on the server when it returns — and
// returns the committed position (the write's session token).
func (c *Client) PutSeq(key, value []byte) (Token, error) {
	_, tok, err := c.callOK(wire.OpPut, Token{}, func(b []byte) []byte { return wire.AppendPutReq(b, key, value) })
	return tok, err
}

// DeleteSeq removes key, returning the committed position. Deleting an
// absent key is not an error.
func (c *Client) DeleteSeq(key []byte) (Token, error) {
	_, tok, err := c.callOK(wire.OpDel, Token{}, func(b []byte) []byte { return wire.AppendKeyReq(b, key) })
	return tok, err
}

// WriteBatchSeq applies ops as one request, returning the committed
// position; the server folds it — along with any concurrently pipelined
// writes — into a single engine WriteBatch.
func (c *Client) WriteBatchSeq(ops []wire.BatchOp) (Token, error) {
	_, tok, err := c.callOK(wire.OpBatch, Token{}, func(b []byte) []byte { return wire.AppendBatchReq(b, ops) })
	return tok, err
}

// IncrSeq atomically adds delta to the counter at key and returns the
// post-merge value and the committed position. The server folds pipelined
// deltas to the same key into one engine write; missing keys count from 0,
// non-counter values fail, and results saturate at the int64 range.
func (c *Client) IncrSeq(key []byte, delta int64) (int64, Token, error) {
	p, tok, err := c.callOK(wire.OpIncr, Token{}, func(b []byte) []byte { return wire.AppendIncrReq(b, key, delta) })
	if err != nil {
		return 0, tok, err
	}
	v, err := wire.DecodeIncrResp(p)
	if err != nil {
		return 0, Token{}, fmt.Errorf("client: bad INCR response: %w", err)
	}
	return v, tok, nil
}

// GetSeq returns the value for key, or ErrNotFound. The server answers only
// once its applied position reaches gate, or refuses with ErrNotReady after
// its bounded wait or because the gate names a different write lineage.
func (c *Client) GetSeq(key []byte, gate Token) ([]byte, Token, error) {
	return c.callOK(wire.OpGet, gate, func(b []byte) []byte { return wire.AppendKeyReq(b, key) })
}

// MultiGetSeq returns values positionally aligned with keys; absent keys
// yield nil entries.
func (c *Client) MultiGetSeq(keys [][]byte, gate Token) ([][]byte, Token, error) {
	p, tok, err := c.callOK(wire.OpMGet, gate, func(b []byte) []byte { return wire.AppendMGetReq(b, keys) })
	if err != nil {
		return nil, tok, err
	}
	vals, err := wire.DecodeMGetResp(p)
	if err != nil {
		return nil, Token{}, fmt.Errorf("client: bad MGET response: %w", err)
	}
	if len(vals) != len(keys) {
		return nil, Token{}, fmt.Errorf("client: MGET returned %d values for %d keys", len(vals), len(keys))
	}
	return vals, tok, nil
}

// ScanSeq returns up to limit pairs with key >= start in key order. The
// server caps limit at its MaxScanLimit.
func (c *Client) ScanSeq(start []byte, limit int, gate Token) ([]wire.KV, Token, error) {
	if limit < 0 {
		limit = 0
	}
	p, tok, err := c.callOK(wire.OpScan, gate, func(b []byte) []byte { return wire.AppendScanReq(b, start, uint32(limit)) })
	if err != nil {
		return nil, tok, err
	}
	kvs, err := wire.DecodeScanResp(p)
	if err != nil {
		return nil, Token{}, fmt.Errorf("client: bad SCAN response: %w", err)
	}
	return kvs, tok, nil
}

// Put is PutSeq without the position.
func (c *Client) Put(key, value []byte) error {
	_, err := c.PutSeq(key, value)
	return err
}

// Get is an ungated GetSeq without the position.
func (c *Client) Get(key []byte) ([]byte, error) {
	v, _, err := c.GetSeq(key, Token{})
	return v, err
}

// Delete is DeleteSeq without the position.
func (c *Client) Delete(key []byte) error {
	_, err := c.DeleteSeq(key)
	return err
}

// Incr is IncrSeq without the position.
func (c *Client) Incr(key []byte, delta int64) (int64, error) {
	v, _, err := c.IncrSeq(key, delta)
	return v, err
}

// WriteBatch is WriteBatchSeq without the position.
func (c *Client) WriteBatch(ops []wire.BatchOp) error {
	_, err := c.WriteBatchSeq(ops)
	return err
}

// MultiGet is an ungated MultiGetSeq without the position.
func (c *Client) MultiGet(keys [][]byte) ([][]byte, error) {
	vals, _, err := c.MultiGetSeq(keys, Token{})
	return vals, err
}

// Scan is an ungated ScanSeq without the position.
func (c *Client) Scan(start []byte, limit int) ([]wire.KV, error) {
	kvs, _, err := c.ScanSeq(start, limit, Token{})
	return kvs, err
}

// Ping round-trips an empty frame.
func (c *Client) Ping() error {
	_, _, err := c.callOK(wire.OpPing, Token{}, nil)
	return err
}

// Stats returns the server's stats text: "key value" lines for the server
// section, a blank line, then the engine's human-readable summary.
func (c *Client) Stats() (string, error) {
	p, _, err := c.callOK(wire.OpStats, Token{}, nil)
	return string(p), err
}

// conn is one pooled pipelined connection. It owns no goroutine: whichever
// caller finds no call in flight becomes the reader — it reads frames off
// the socket itself, returns on its own id and hands every other frame to
// the caller waiting for it. When the reader's own response arrives first
// the role moves to a caller still waiting, so concurrent callers pipeline
// on the connection exactly as they would behind a dedicated reader, and a
// lone call crosses no goroutine boundary on this side at all.
type conn struct {
	nc       net.Conn
	br       *bufio.Reader // the reader's alone
	maxFrame uint32
	// raw reaches the transport's descriptor for the idle check; nil when
	// the dialed conn has none (see idleClosed).
	raw        syscall.RawConn
	rawRead    func(fd uintptr) bool // conn.probe, bound once
	peerClosed bool                  // probe's verdict; guarded by mu

	wmu  sync.Mutex // serializes frame writes, guards wbuf
	wbuf []byte     // every request is encoded here, in place, once

	mu sync.Mutex
	// pending maps the id of every call in flight to the channel its caller
	// waits on; the reader's own entry is nil. reading says a reader exists,
	// and is false only while pending is empty.
	pending map[uint64]chan result
	reading bool
	err     error // sticky; set once the connection dies
	nextID  uint64
}

// result is what a waiting caller receives: its response, the error that
// killed the connection, or — lead set — the reader role.
type result struct {
	frame wire.Frame
	err   error
	lead  bool
}

// errIdleClosed reports a connection the server closed while no call was in
// flight, detected before the request was written: call redials and retries.
var errIdleClosed = errors.New("client: connection closed by server while idle")

// maxKeptRequest bounds the write buffer a connection keeps between calls.
const maxKeptRequest = 64 << 10

func newConn(nc net.Conn, maxFrame uint32) *conn {
	cn := &conn{
		nc:       nc,
		br:       bufio.NewReaderSize(nc, 64<<10),
		maxFrame: maxFrame,
		pending:  make(map[uint64]chan result),
	}
	if sc, ok := nc.(syscall.Conn); ok {
		if raw, err := sc.SyscallConn(); err == nil {
			cn.raw, cn.rawRead = raw, cn.probe
		}
	}
	return cn
}

func (cn *conn) broken() bool {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.err != nil
}

// close kills the connection: err becomes its sticky error unless it already
// has one, every waiting call fails with the sticky error, and the socket
// closes — which is how a reader blocked on it finds out. It returns the
// sticky error.
func (cn *conn) close(err error) error {
	cn.mu.Lock()
	if cn.err == nil {
		cn.err = err
	}
	err = cn.err
	pend := cn.pending
	cn.pending = make(map[uint64]chan result)
	cn.mu.Unlock()
	cn.nc.Close()
	for _, ch := range pend {
		if ch != nil {
			// A full channel holds the reader role, on its way to a caller
			// that will meet the closed socket itself.
			select {
			case ch <- result{err: err}:
			default:
			}
		}
	}
	return err
}

// idleClosed reports whether the peer closed the connection while no call
// was in flight, by one non-blocking read on the descriptor: end of stream,
// a reset, or bytes nobody asked for all mean the connection is not worth a
// request. Only a caller about to become the reader calls it, holding mu:
// that is what keeps "nothing in flight" true for as long as the read takes.
//
// The check needs the raw descriptor. A deadline cannot stand in for it:
// Go's poller answers a read whose deadline has passed without issuing the
// read, so it never sees the end of stream, and a deadline still ahead parks
// the caller until it passes. A transport without a descriptor skips the
// check; its dead idle connection fails one call and the next redials.
func (cn *conn) idleClosed() bool {
	if cn.raw == nil {
		return false
	}
	cn.peerClosed = false
	return cn.raw.Read(cn.rawRead) != nil || cn.peerClosed
}

// idleProbeHook, when a test sets it, runs just before the idle probe.
var idleProbeHook func()

func (cn *conn) probe(fd uintptr) bool {
	var b [1]byte
	_, err := syscall.Read(int(fd), b[:])
	cn.peerClosed = err != syscall.EAGAIN && err != syscall.EWOULDBLOCK && err != syscall.EINTR
	return true // never wait for readability
}

// roundTrip registers a pending id, writes the request with gate in its
// frame, and returns its response. Concurrent callers interleave here — that
// is the pipelining.
func (cn *conn) roundTrip(op wire.Op, gate Token, enc func([]byte) []byte) (wire.Frame, error) {
	cn.mu.Lock()
	if cn.err != nil {
		err := cn.err
		cn.mu.Unlock()
		return wire.Frame{}, err
	}
	var ch chan result // stays nil for the reader
	if cn.reading {
		ch = make(chan result, 1)
	} else {
		// No reader means no call in flight: the connection has sat idle, and
		// nothing has looked at the socket since the last response. That
		// holds only while mu does — once it is released a second caller can
		// write and be answered, and the probe would eat the first byte of
		// its response — so the probe runs before the role is published.
		if idleProbeHook != nil {
			idleProbeHook()
		}
		if cn.idleClosed() {
			cn.err = fmt.Errorf("client: connection lost: %w", io.EOF)
			cn.mu.Unlock()
			cn.nc.Close() // pending is empty: nobody to fail
			return wire.Frame{}, errIdleClosed
		}
	}
	cn.nextID++
	id := cn.nextID
	cn.reading = true
	cn.pending[id] = ch
	cn.mu.Unlock()

	cn.wmu.Lock()
	b := wire.BeginFrame(cn.wbuf[:0], wire.Frame{Op: op, ID: id, Seq: gate.Seq, Epoch: gate.Epoch})
	if enc != nil {
		b = enc(b)
	}
	b = wire.FinishFrame(b, 0)
	_, werr := cn.nc.Write(b)
	if cn.wbuf = b; cap(b) > maxKeptRequest {
		cn.wbuf = nil
	}
	cn.wmu.Unlock()
	if werr != nil {
		cn.close(fmt.Errorf("client: write: %w", werr))
		return wire.Frame{}, werr
	}

	if ch != nil {
		r := <-ch
		if !r.lead {
			return r.frame, r.err
		}
	}
	for {
		f, err := wire.ReadFrame(cn.br, cn.maxFrame)
		if err != nil {
			return wire.Frame{}, cn.close(fmt.Errorf("client: connection lost: %w", err))
		}
		cn.mu.Lock()
		w := cn.pending[f.ID]
		delete(cn.pending, f.ID)
		if f.ID == id {
			cn.passLead()
			cn.mu.Unlock()
			return f, nil
		}
		cn.mu.Unlock()
		if w != nil {
			w <- result{frame: f}
		}
	}
}

// passLead ends the caller's time as reader: the role goes to a call still
// waiting, or lapses when there is none. Caller holds mu and has removed its
// own entry, so every channel in pending is a waiter's — empty, because a
// waiter's frame is sent only after its entry is deleted.
func (cn *conn) passLead() {
	for _, w := range cn.pending {
		w <- result{lead: true}
		return
	}
	cn.reading = false
}
