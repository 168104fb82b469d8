package client

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"hyperdb/internal/wire"
)

// ErrNotReady is returned when a session read's token is ahead of every
// node willing to serve it: the contacted follower timed out waiting for
// replication to catch up, and (under the bounded policy) the primary
// fallback also refused — which only happens after a failover that lost
// acknowledged writes the session had observed.
var ErrNotReady = errors.New("client: not ready (replica behind session token)")

// ReadPolicy selects where a Session routes its reads.
type ReadPolicy int

const (
	// ReadPrimary sends every read to the primary: always current, no
	// follower offload. Session tokens still update (they make the policy
	// switchable mid-session).
	ReadPrimary ReadPolicy = iota
	// ReadBounded spreads reads round-robin across the whole group
	// (followers and primary), follower reads carrying the session token; a
	// follower answers once it has applied that position, or refuses after
	// its bounded wait, in which case the read falls back to the primary.
	// This keeps read-your-writes and monotonic reads while scaling read
	// capacity with the group.
	ReadBounded
	// ReadAny spreads reads across the group with no freshness requirement
	// on followers: maximum offload, eventual consistency only.
	ReadAny
)

// ParseReadPolicy maps the -read-policy flag values to a ReadPolicy.
func ParseReadPolicy(s string) (ReadPolicy, error) {
	switch s {
	case "primary":
		return ReadPrimary, nil
	case "bounded":
		return ReadBounded, nil
	case "any":
		return ReadAny, nil
	}
	return 0, fmt.Errorf("client: unknown read policy %q (want primary, bounded or any)", s)
}

func (p ReadPolicy) String() string {
	switch p {
	case ReadPrimary:
		return "primary"
	case ReadBounded:
		return "bounded"
	case ReadAny:
		return "any"
	}
	return fmt.Sprintf("ReadPolicy(%d)", int(p))
}

// Token is a session's consistency position: the highest applied sequence
// it has written or observed, qualified by the write-lineage epoch that
// minted it. Epoch 0 means "lineage unknown" — a seeded or legacy token
// that gates on sequence alone.
type Token struct {
	Seq   uint64
	Epoch uint64
}

// String renders "SEQ" for epoch-0 tokens and "SEQ@EPOCH" otherwise — the
// format ParseToken accepts and hyperctl prints.
func (t Token) String() string {
	if t.Epoch == 0 {
		return fmt.Sprintf("%d", t.Seq)
	}
	return fmt.Sprintf("%d@%d", t.Seq, t.Epoch)
}

// ParseToken parses "SEQ" or "SEQ@EPOCH".
func ParseToken(s string) (Token, error) {
	var t Token
	seqs, epochs, qualified := strings.Cut(s, "@")
	seq, err := strconv.ParseUint(seqs, 10, 64)
	if err != nil {
		return t, fmt.Errorf("client: bad token %q: %w", s, err)
	}
	t.Seq = seq
	if qualified {
		if t.Epoch, err = strconv.ParseUint(epochs, 10, 64); err != nil {
			return t, fmt.Errorf("client: bad token %q: %w", s, err)
		}
	}
	return t, nil
}

// mergeToken folds an observed position into a session token. Same or
// unknown lineage: the sequences are comparable, so keep the max (learning
// the epoch when the current token lacks one). Different non-zero lineage:
// the serving node's history replaced the one the token was minted against
// (a failover, or a handoff target with its own log), sequences are not
// comparable, and the observed position is adopted wholesale.
func mergeToken(cur, t Token) Token {
	if t.Epoch != 0 && cur.Epoch != 0 && t.Epoch != cur.Epoch {
		return t
	}
	if t.Seq > cur.Seq {
		cur.Seq = t.Seq
	}
	if cur.Epoch == 0 {
		cur.Epoch = t.Epoch
	}
	return cur
}

// Session is one logical client with session consistency: read-your-writes
// and monotonic reads across the whole replication group. It tracks a
// token — the highest (sequence, epoch) it has written or observed — folds
// every v2 response into it, and sends it as the gate on follower reads.
// Writes always go to the primary. Safe for concurrent use, though the
// session guarantee is per causal chain: concurrent calls on one Session
// order only through the shared token.
type Session struct {
	primary   *Client
	followers []*Client
	policy    ReadPolicy

	mu  sync.Mutex
	tok Token

	rr        atomic.Uint64 // round-robin cursor over followers
	fallbacks atomic.Uint64 // follower refusals retried on the primary
	notReady  atomic.Uint64 // NOT_READY responses received
	lastNode  atomic.Int64  // -1 primary, else follower index
}

// NewSession builds a Session over a primary and optional follower
// clients. With no followers every policy degenerates to ReadPrimary.
func NewSession(primary *Client, followers []*Client, policy ReadPolicy) *Session {
	s := &Session{primary: primary, followers: followers, policy: policy}
	s.lastNode.Store(-1)
	return s
}

// Token returns the session's current token: the highest position it has
// written or observed.
func (s *Session) Token() Token {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tok
}

// SeedToken folds an externally carried token into the session — used to
// resume a session (e.g. across hyperctl invocations). An epoch-0 seed
// gates on sequence alone, which is also the deliberate clamp after a
// failover invalidated the token's lineage.
func (s *Session) SeedToken(t Token) { s.observe(t) }

// Fallbacks returns how many reads fell back to the primary after a
// follower refused or failed.
func (s *Session) Fallbacks() uint64 { return s.fallbacks.Load() }

// NotReady returns how many NOT_READY refusals the session received.
func (s *Session) NotReady() uint64 { return s.notReady.Load() }

// LastNode names the node that served the session's most recent read:
// "primary", or "follower[i]".
func (s *Session) LastNode() string {
	if i := s.lastNode.Load(); i >= 0 {
		return fmt.Sprintf("follower[%d]", i)
	}
	return "primary"
}

func (s *Session) observe(t Token) {
	s.mu.Lock()
	s.tok = mergeToken(s.tok, t)
	s.mu.Unlock()
}

// Put writes through the primary and folds the committed position into the
// session token, so a follower read issued next observes this write.
func (s *Session) Put(key, value []byte) error {
	tok, err := s.primary.PutSeq(key, value)
	if err != nil {
		return err
	}
	s.observe(tok)
	return nil
}

// Delete removes key through the primary, updating the session token.
func (s *Session) Delete(key []byte) error {
	tok, err := s.primary.DeleteSeq(key)
	if err != nil {
		return err
	}
	s.observe(tok)
	return nil
}

// Incr adds delta to the counter at key through the primary, returning the
// post-merge value and updating the session token so a follower read issued
// next observes the new count.
func (s *Session) Incr(key []byte, delta int64) (int64, error) {
	v, tok, err := s.primary.IncrSeq(key, delta)
	if err != nil {
		return 0, err
	}
	s.observe(tok)
	return v, nil
}

// WriteBatch applies ops through the primary, updating the session token.
func (s *Session) WriteBatch(ops []wire.BatchOp) error {
	tok, err := s.primary.WriteBatchSeq(ops)
	if err != nil {
		return err
	}
	s.observe(tok)
	return nil
}

// readTarget picks the next read-serving node round-robin across the whole
// group — every follower plus the primary, which is always current and
// would otherwise sit idle for reads. It returns nil when the rotation
// lands on the primary (or the policy pins reads there): the caller then
// reads the primary deliberately, with no gate.
func (s *Session) readTarget() (*Client, int) {
	if s.policy == ReadPrimary || len(s.followers) == 0 {
		return nil, -1
	}
	i := int((s.rr.Add(1) - 1) % uint64(len(s.followers)+1))
	if i == len(s.followers) {
		return nil, -1
	}
	return s.followers[i], i
}

// gate is the token a follower read carries: the session token under the
// bounded policy, zero (no gate) under any.
func (s *Session) gate() Token {
	if s.policy == ReadBounded {
		return s.Token()
	}
	return Token{}
}

// fallthroughToPrimary reports whether a follower read error should retry
// on the primary (refusals and transport failures) rather than surface.
func fallthroughToPrimary(err error) bool {
	return err != nil && !errors.Is(err, ErrNotFound)
}

// Get reads key with the session's policy: follower first (gated per
// policy), primary fallback on refusal or failure. A fallback keeps the
// token as its minSeq — after a failover that lost the session's observed
// writes, the new primary refuses too rather than serve a stale value, and
// Get returns ErrNotReady.
func (s *Session) Get(key []byte) ([]byte, error) {
	var gate Token // deliberate primary reads carry no gate
	if f, i := s.readTarget(); f != nil {
		v, tok, err := f.GetSeq(key, s.gate())
		if !fallthroughToPrimary(err) {
			s.observe(tok)
			s.lastNode.Store(int64(i))
			return v, err
		}
		s.noteFallback(err)
		gate = s.primaryGate()
	}
	v, tok, err := s.primary.GetSeq(key, gate)
	if err == nil || errors.Is(err, ErrNotFound) {
		s.observe(tok)
		s.lastNode.Store(-1)
	}
	return v, err
}

// MultiGet is Get for many keys; absent keys yield nil entries.
func (s *Session) MultiGet(keys [][]byte) ([][]byte, error) {
	var gate Token
	if f, i := s.readTarget(); f != nil {
		vals, tok, err := f.MultiGetSeq(keys, s.gate())
		if !fallthroughToPrimary(err) {
			s.observe(tok)
			s.lastNode.Store(int64(i))
			return vals, err
		}
		s.noteFallback(err)
		gate = s.primaryGate()
	}
	vals, tok, err := s.primary.MultiGetSeq(keys, gate)
	if err == nil {
		s.observe(tok)
		s.lastNode.Store(-1)
	}
	return vals, err
}

// Scan reads up to limit pairs with key >= start under the session policy.
func (s *Session) Scan(start []byte, limit int) ([]wire.KV, error) {
	var gate Token
	if f, i := s.readTarget(); f != nil {
		kvs, tok, err := f.ScanSeq(start, limit, s.gate())
		if !fallthroughToPrimary(err) {
			s.observe(tok)
			s.lastNode.Store(int64(i))
			return kvs, err
		}
		s.noteFallback(err)
		gate = s.primaryGate()
	}
	kvs, tok, err := s.primary.ScanSeq(start, limit, gate)
	if err == nil {
		s.observe(tok)
		s.lastNode.Store(-1)
	}
	return kvs, err
}

func (s *Session) noteFallback(err error) {
	s.fallbacks.Add(1)
	if errors.Is(err, ErrNotReady) {
		s.notReady.Add(1)
	}
}

// primaryGate is the gate a primary-routed read carries. A deliberate
// primary read sends a zero token — the primary is definitionally current
// for its own group, and zero is how the server distinguishes routed reads
// from fallbacks. A bounded-policy session with followers only reaches the
// primary as a fallback, which keeps the token so a primary that lost the
// session's writes (failover without sync acks) refuses instead of
// silently rewinding the session.
func (s *Session) primaryGate() Token {
	if s.policy == ReadBounded && len(s.followers) > 0 {
		return s.Token()
	}
	return Token{}
}

// --- v2 (session) calls on Client ---

// PutSeq is Put returning the committed position (the write's session
// token).
func (c *Client) PutSeq(key, value []byte) (Token, error) {
	p, err := c.callOK(wire.OpPutV2, func(b []byte) []byte { return wire.AppendPutReq(b, key, value) })
	if err != nil {
		return Token{}, err
	}
	return decodeTok(p)
}

// DeleteSeq is Delete returning the committed position.
func (c *Client) DeleteSeq(key []byte) (Token, error) {
	p, err := c.callOK(wire.OpDelV2, func(b []byte) []byte { return wire.AppendKeyReq(b, key) })
	if err != nil {
		return Token{}, err
	}
	return decodeTok(p)
}

// WriteBatchSeq is WriteBatch returning the committed position.
func (c *Client) WriteBatchSeq(ops []wire.BatchOp) (Token, error) {
	p, err := c.callOK(wire.OpBatchV2, func(b []byte) []byte { return wire.AppendBatchReq(b, ops) })
	if err != nil {
		return Token{}, err
	}
	return decodeTok(p)
}

// IncrSeq is Incr returning the post-merge value and the committed
// position (the merge's session token).
func (c *Client) IncrSeq(key []byte, delta int64) (int64, Token, error) {
	p, err := c.callOK(wire.OpIncrV2, func(b []byte) []byte { return wire.AppendIncrReq(b, key, delta) })
	if err != nil {
		return 0, Token{}, err
	}
	seq, epoch, v, err := wire.DecodeIncrV2Resp(p)
	if err != nil {
		return 0, Token{}, fmt.Errorf("client: bad INCR2 response: %w", err)
	}
	return v, Token{Seq: seq, Epoch: epoch}, nil
}

// GetSeq is the session read: the server answers only once its applied
// position reaches the gate (or refuses with ErrNotReady after its bounded
// wait, or because the gate names a different write lineage). The returned
// token is the serving node's applied position — valid on success,
// ErrNotFound, and ErrNotReady alike, though sessions must not fold
// NOT_READY positions in (that would silently clamp the gate).
func (c *Client) GetSeq(key []byte, gate Token) ([]byte, Token, error) {
	resp, err := c.call(wire.OpGetV2, func(b []byte) []byte { return wire.AppendGetV2Req(b, key, gate.Seq, gate.Epoch) })
	if err != nil {
		return nil, Token{}, err
	}
	switch resp.Status {
	case wire.StatusOK:
		seq, epoch, v, err := wire.DecodeGetV2Resp(resp.Payload)
		if err != nil {
			return nil, Token{}, fmt.Errorf("client: bad GET2 response: %w", err)
		}
		return v, Token{Seq: seq, Epoch: epoch}, nil
	case wire.StatusNotFound:
		tok, err := decodeTok(resp.Payload)
		if err != nil {
			return nil, Token{}, err
		}
		return nil, tok, ErrNotFound
	case wire.StatusNotReady:
		tok, err := decodeTok(resp.Payload)
		if err != nil {
			return nil, Token{}, err
		}
		return nil, tok, ErrNotReady
	}
	return nil, Token{}, statusErr(resp)
}

// MultiGetSeq is the session MultiGet; absent keys yield nil entries.
func (c *Client) MultiGetSeq(keys [][]byte, gate Token) ([][]byte, Token, error) {
	resp, err := c.call(wire.OpMGetV2, func(b []byte) []byte { return wire.AppendMGetV2Req(b, keys, gate.Seq, gate.Epoch) })
	if err != nil {
		return nil, Token{}, err
	}
	switch resp.Status {
	case wire.StatusOK:
		seq, epoch, vals, err := wire.DecodeMGetV2Resp(resp.Payload)
		if err != nil {
			return nil, Token{}, fmt.Errorf("client: bad MGET2 response: %w", err)
		}
		if len(vals) != len(keys) {
			return nil, Token{}, fmt.Errorf("client: MGET2 returned %d values for %d keys", len(vals), len(keys))
		}
		return vals, Token{Seq: seq, Epoch: epoch}, nil
	case wire.StatusNotReady:
		tok, err := decodeTok(resp.Payload)
		if err != nil {
			return nil, Token{}, err
		}
		return nil, tok, ErrNotReady
	}
	return nil, Token{}, statusErr(resp)
}

// ScanSeq is the session Scan.
func (c *Client) ScanSeq(start []byte, limit int, gate Token) ([]wire.KV, Token, error) {
	if limit < 0 {
		limit = 0
	}
	resp, err := c.call(wire.OpScanV2, func(b []byte) []byte {
		return wire.AppendScanV2Req(b, start, uint32(limit), gate.Seq, gate.Epoch)
	})
	if err != nil {
		return nil, Token{}, err
	}
	switch resp.Status {
	case wire.StatusOK:
		seq, epoch, kvs, err := wire.DecodeScanV2Resp(resp.Payload)
		if err != nil {
			return nil, Token{}, fmt.Errorf("client: bad SCAN2 response: %w", err)
		}
		return kvs, Token{Seq: seq, Epoch: epoch}, nil
	case wire.StatusNotReady:
		tok, err := decodeTok(resp.Payload)
		if err != nil {
			return nil, Token{}, err
		}
		return nil, tok, ErrNotReady
	}
	return nil, Token{}, statusErr(resp)
}

func decodeTok(p []byte) (Token, error) {
	seq, epoch, err := wire.DecodeAppliedSeq(p)
	if err != nil {
		return Token{}, fmt.Errorf("client: bad applied-seq payload: %w", err)
	}
	return Token{Seq: seq, Epoch: epoch}, nil
}
