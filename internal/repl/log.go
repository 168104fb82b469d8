// Package repl implements primary→follower replication: the primary tees
// every committed WriteBatch into a bounded, sequence-tagged in-memory log
// and ships it to subscribed followers over the wire protocol; a follower
// that has fallen off the retained window bootstraps from a streamed
// snapshot before tailing. Synchronous mode holds each write's commit until
// every connected follower acknowledges it, which is what makes failover
// lossless for acknowledged writes.
package repl

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hyperdb/internal/core"
)

// ErrOverrun reports a cursor that needs entries already truncated from the
// log; the follower must re-bootstrap via snapshot.
var ErrOverrun = errors.New("repl: cursor fell off the retained log window")

// ErrStopped reports a blocking log wait cancelled by its stop channel.
var ErrStopped = errors.New("repl: stopped")

// LogConfig parameterises a replication log.
type LogConfig struct {
	// MaxEntries bounds the retained window (entry count). Default 1024.
	MaxEntries int
	// SyncAck holds Commit(ok) until every currently registered follower
	// has acknowledged the entry. With no followers connected, commits
	// proceed immediately.
	SyncAck bool
	// AckTimeout bounds how long a synchronous Commit waits for one
	// follower: a peer still unacknowledged when it fires is evicted (its
	// connection closed) so a half-dead link cannot stall writes forever.
	// 0 means the 10s default; negative disables the timeout.
	AckTimeout time.Duration
}

func (c *LogConfig) fill() {
	if c.MaxEntries <= 0 {
		c.MaxEntries = 1024
	}
	if c.AckTimeout == 0 {
		c.AckTimeout = 10 * time.Second
	}
}

const (
	statePending = iota
	stateCommitted
	stateAborted
)

type entry struct {
	base  uint64
	last  uint64
	ops   []core.BatchOp // deep-copied at Append
	state uint8
}

// Log is the primary-side replication log. It implements core.Tee: the
// engine appends each batch under its replication mutex right after the
// batch's sequence block is allocated, so entries arrive in strictly
// increasing base order; they resolve (commit or abort) out of order and
// ship only across the resolved prefix, preserving base order on the wire.
//
// Sequence gaps between entries are expected: promotions mint sequences
// that never reach the log (they relocate a value without changing it), and
// aborted batches occupy sequences that are never shipped.
type Log struct {
	mu       sync.Mutex
	cfg      LogConfig
	epoch    uint64 // write-lineage ID; see Epoch
	entries  []*entry
	resolved int    // entries[:resolved] are all committed or aborted
	floor    uint64 // highest seq no longer available (dropped or never held)
	head     uint64 // highest seq covered by any appended entry
	pins     map[uint64]int
	peers    map[*Peer]struct{}
	// change is the broadcast primitive: closed and replaced whenever ship
	// or ack progress is possible, so waiters can select on it.
	change chan struct{}

	// logBytes accumulates the encoded size of every appended entry — the
	// uvarint base + batch-op frame each entry occupies on the wire. This is
	// the deployment's foreground op-log figure: the merge bench reads it to
	// show delta folding shrinking the op-log proportionally.
	logBytes atomic.Uint64
}

// NewLog builds an empty log under a fresh epoch. Nothing of a log outlives
// its process: a restarted node's followers present the old epoch and are
// sent through a snapshot. The log claims the history from sequence 0, so it
// must front an empty store (hyperd's devices are in memory and start so); over
// a store that already holds data, ResetTo(db.CommitSeq()) first.
func NewLog(cfg LogConfig) *Log {
	cfg.fill()
	return &Log{
		cfg:    cfg,
		epoch:  newEpoch(),
		pins:   make(map[uint64]int),
		peers:  make(map[*Peer]struct{}),
		change: make(chan struct{}),
	}
}

// newEpoch mints a random non-zero lineage identifier.
func newEpoch() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("repl: epoch entropy: %v", err))
	}
	e := binary.LittleEndian.Uint64(b[:])
	if e == 0 {
		e = 1
	}
	return e
}

// Epoch identifies this log's write lineage. Followers record it from the
// hello response and present it when they reattach; a subscriber whose
// epoch does not match cannot prove its state is a prefix of this log's
// history (it may carry writes from a dead primary's incarnation that
// never shipped), so it is forced through a snapshot instead of tailing.
// It is minted per NewLog and again by ResetTo: a restart or a bootstrap is
// exactly when old state stops being trustworthy.
func (l *Log) Epoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch
}

// broadcast wakes every waiter. Callers hold l.mu.
func (l *Log) broadcast() {
	close(l.change)
	l.change = make(chan struct{})
}

// Append records a pending entry covering [base, base+len(ops)-1]. Ops are
// deep-copied: the caller's buffers are reused after its batch returns,
// while the log outlives it. The returned token (the base itself — bases
// are unique) resolves the entry in Commit. Implements core.Tee.
func (l *Log) Append(base uint64, ops []core.BatchOp) uint64 {
	e := &entry{base: base, last: base + uint64(len(ops)) - 1, ops: cloneOps(ops)}
	l.logBytes.Add(encodedEntrySize(base, ops))
	l.mu.Lock()
	if n := len(l.entries); n > 0 && base <= l.entries[n-1].last {
		l.mu.Unlock()
		panic(fmt.Sprintf("repl: out-of-order append: base %d after %d", base, l.entries[n-1].last))
	}
	l.entries = append(l.entries, e)
	if e.last > l.head {
		l.head = e.last
	}
	l.truncateLocked()
	l.mu.Unlock()
	return base
}

// Commit resolves the entry appended under tok. ok=false (the batch failed
// and was never acknowledged) drops it from shipping. With SyncAck and
// ok=true, Commit blocks until every follower registered at this moment has
// acknowledged the entry's last sequence — or has disconnected, or has sat
// unacknowledged past AckTimeout, in which case it is evicted so a
// half-dead connection cannot stall writes indefinitely. Implements
// core.Tee.
func (l *Log) Commit(tok uint64, ok bool) {
	l.mu.Lock()
	e := l.findLocked(tok)
	if e == nil || e.state != statePending {
		l.mu.Unlock()
		return
	}
	if ok {
		e.state = stateCommitted
	} else {
		e.state = stateAborted
	}
	for l.resolved < len(l.entries) && l.entries[l.resolved].state != statePending {
		l.resolved++
	}
	l.truncateLocked()
	l.broadcast()

	if !ok || !l.cfg.SyncAck || len(l.peers) == 0 {
		l.mu.Unlock()
		return
	}
	// Wait for the followers connected right now; ones that join later
	// start past this entry anyway, ones that drop out stop counting.
	waitOn := make([]*Peer, 0, len(l.peers))
	for p := range l.peers {
		waitOn = append(waitOn, p)
	}
	target := e.last
	var timeoutC <-chan time.Time
	if l.cfg.AckTimeout > 0 {
		timer := time.NewTimer(l.cfg.AckTimeout)
		defer timer.Stop()
		timeoutC = timer.C
	}
	timedOut := false
	for {
		var laggards []*Peer
		for _, p := range waitOn {
			if _, live := l.peers[p]; live && p.acked.Load() < target {
				laggards = append(laggards, p)
			}
		}
		if len(laggards) == 0 {
			l.mu.Unlock()
			return
		}
		if timedOut {
			// Evict the stragglers: synchronous commits stop counting them
			// and their connections are severed so the ship loops unwind.
			for _, p := range laggards {
				delete(l.peers, p)
			}
			l.broadcast()
			l.mu.Unlock()
			for _, p := range laggards {
				if p.evict != nil {
					p.evict()
				}
			}
			return
		}
		ch := l.change
		l.mu.Unlock()
		select {
		case <-ch:
		case <-timeoutC:
			timedOut = true
		}
		l.mu.Lock()
	}
}

// findLocked locates the entry with the given base by binary search.
func (l *Log) findLocked(base uint64) *entry {
	i := sort.Search(len(l.entries), func(i int) bool { return l.entries[i].base >= base })
	if i < len(l.entries) && l.entries[i].base == base {
		return l.entries[i]
	}
	return nil
}

// truncateLocked drops resolved prefix entries beyond the retained window,
// never crossing a pin. Only committed entries raise the floor: aborted
// ones are never shipped, so dropping them makes nothing unavailable.
func (l *Log) truncateLocked() {
	minPin := uint64(math.MaxUint64)
	for s := range l.pins {
		if s < minPin {
			minPin = s
		}
	}
	for len(l.entries) > l.cfg.MaxEntries && l.resolved > 0 {
		e := l.entries[0]
		if e.last > minPin {
			return
		}
		l.entries = l.entries[1:]
		l.resolved--
		if e.state == stateCommitted && e.last > l.floor {
			l.floor = e.last
		}
	}
}

// ResetTo discards the retained window and the write lineage: the node's
// state was just replaced wholesale by a snapshot bootstrap, so nothing it
// previously logged can be vouched for — and the tail that follows may
// legally restart below the old head, which the append ordering invariant
// would otherwise reject. The log restarts empty, floored at seq, under a
// fresh epoch; live downstream cursors overrun and those followers
// re-bootstrap in turn.
func (l *Log) ResetTo(seq uint64) {
	l.mu.Lock()
	l.entries = nil
	l.resolved = 0
	l.floor = seq
	l.head = seq
	l.epoch = newEpoch()
	l.broadcast()
	l.mu.Unlock()
}

// Floor returns the highest unavailable sequence.
func (l *Log) Floor() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.floor
}

// Head returns the highest sequence any appended entry covers.
func (l *Log) Head() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.head
}

// PinHead pins the resolved head — the highest sequence S such that every
// logged entry at or below S has resolved and, if committed, is applied and
// visible to reads — and returns it. While pinned, entries above S are kept
// shippable, so a snapshot taken at S can always hand off to a tail
// subscription from S. Release with Unpin.
func (l *Log) PinHead() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.floor
	if l.resolved > 0 {
		if last := l.entries[l.resolved-1].last; last > s {
			s = last
		}
	}
	l.pins[s]++
	return s
}

// Unpin releases one PinHead reference on seq.
func (l *Log) Unpin(seq uint64) {
	l.mu.Lock()
	if l.pins[seq]--; l.pins[seq] <= 0 {
		delete(l.pins, seq)
	}
	l.truncateLocked()
	l.mu.Unlock()
}

// Subscribe opens a ship cursor for a follower whose last applied sequence
// is lastApplied. ok=false means the follower cannot tail: it fell below
// the retained window, or it claims a sequence above everything this log
// has ever covered — state from some other history that tailing would
// silently skip past — and must bootstrap via snapshot first.
func (l *Log) Subscribe(lastApplied uint64) (*Cursor, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lastApplied < l.floor || lastApplied > l.head {
		return nil, false
	}
	return &Cursor{log: l, next: lastApplied + 1}, true
}

// Cursor walks committed entries in base order for one follower.
type Cursor struct {
	log  *Log
	next uint64
}

// Next blocks until the next committed entry at or above the cursor is
// shippable, the cursor falls off the retained window (ErrOverrun — the
// follower must re-bootstrap), or stop closes (ErrStopped).
func (c *Cursor) Next(stop <-chan struct{}) (base uint64, ops []core.BatchOp, err error) {
	l := c.log
	l.mu.Lock()
	for {
		if c.next <= l.floor {
			l.mu.Unlock()
			return 0, nil, ErrOverrun
		}
		for i := 0; i < l.resolved; i++ {
			e := l.entries[i]
			if e.last < c.next || e.state != stateCommitted {
				continue
			}
			c.next = e.last + 1
			l.mu.Unlock()
			return e.base, e.ops, nil
		}
		ch := l.change
		l.mu.Unlock()
		select {
		case <-ch:
		case <-stop:
			return 0, nil, ErrStopped
		}
		l.mu.Lock()
	}
}

// Peer tracks one connected follower's acknowledgement progress.
type Peer struct {
	log   *Log
	name  string
	acked atomic.Uint64
	evict func()
}

// Register adds a follower that has everything through acked. evict, when
// non-nil, is called (off the log's lock) if an ack-timeout eviction
// removes the peer; it should sever the follower's connection.
func (l *Log) Register(name string, acked uint64, evict func()) *Peer {
	p := &Peer{log: l, name: name, evict: evict}
	p.acked.Store(acked)
	l.mu.Lock()
	l.peers[p] = struct{}{}
	l.broadcast()
	l.mu.Unlock()
	return p
}

// Unregister removes a follower; synchronous commits stop waiting on it.
func (l *Log) Unregister(p *Peer) {
	l.mu.Lock()
	delete(l.peers, p)
	l.broadcast()
	l.mu.Unlock()
}

// Ack records that the follower has durably applied everything through seq.
func (p *Peer) Ack(seq uint64) {
	for {
		cur := p.acked.Load()
		if seq <= cur {
			return
		}
		if p.acked.CompareAndSwap(cur, seq) {
			break
		}
	}
	p.log.mu.Lock()
	p.log.broadcast()
	p.log.mu.Unlock()
}

// Acked returns the follower's acknowledged sequence.
func (p *Peer) Acked() uint64 { return p.acked.Load() }

// PeerStatus is one follower's view in Status.
type PeerStatus struct {
	Name  string
	Acked uint64
	Lag   uint64 // log head minus acked
}

// LogStatus snapshots the log for stats reporting.
type LogStatus struct {
	Head    uint64
	Floor   uint64
	Entries int
	Pending int
	Peers   []PeerStatus
}

// Status snapshots head/floor/occupancy and per-follower lag. Lag measures
// against the log head, not the engine's sequence counter: promotions mint
// sequences that never ship, and counting them would show phantom lag.
func (l *Log) Status() LogStatus {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := LogStatus{
		Head:    l.head,
		Floor:   l.floor,
		Entries: len(l.entries),
		Pending: len(l.entries) - l.resolved,
	}
	for p := range l.peers {
		acked := p.acked.Load()
		var lag uint64
		if l.head > acked {
			lag = l.head - acked
		}
		st.Peers = append(st.Peers, PeerStatus{Name: p.name, Acked: acked, Lag: lag})
	}
	sort.Slice(st.Peers, func(i, j int) bool { return st.Peers[i].Name < st.Peers[j].Name })
	return st
}

func cloneOps(ops []core.BatchOp) []core.BatchOp {
	out := make([]core.BatchOp, len(ops))
	for i, op := range ops {
		out[i] = core.BatchOp{
			Key:    append([]byte(nil), op.Key...),
			Value:  append([]byte(nil), op.Value...),
			Delete: op.Delete,
			Merge:  op.Merge,
			Delta:  op.Delta,
		}
	}
	return out
}

// Bytes returns the cumulative encoded size of every entry appended to
// this log — the wire footprint of the op stream (frame payloads). Merge ops are appended unresolved (key +
// varint delta), so folding N deltas into one entry shrinks this figure by
// construction.
func (l *Log) Bytes() uint64 { return l.logBytes.Load() }

// encodedEntrySize mirrors wire.AppendReplFrame's encoding arithmetic:
// uvarint base | uvarint count | per op: kind byte + key + value/delta.
func encodedEntrySize(base uint64, ops []core.BatchOp) uint64 {
	n := uvarintLen(base) + uvarintLen(uint64(len(ops)))
	for i := range ops {
		op := &ops[i]
		n += 1 + uvarintLen(uint64(len(op.Key))) + uint64(len(op.Key))
		switch {
		case op.Delete:
		case op.Merge:
			n += varintLen(op.Delta)
		default:
			n += uvarintLen(uint64(len(op.Value))) + uint64(len(op.Value))
		}
	}
	return n
}

func uvarintLen(v uint64) uint64 {
	n := uint64(1)
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func varintLen(v int64) uint64 {
	return uvarintLen(uint64(v)<<1 ^ uint64(v>>63)) // zig-zag, as encoding/binary
}
