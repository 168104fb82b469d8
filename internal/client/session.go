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
// minted it. Epoch 0 means "lineage unknown" — a seeded token that gates
// on sequence alone — and the zero Token is no gate at all.
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
// (a failover), sequences are not
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
// every response's position into it, and sends it as the gate on follower
// reads. Writes always go to the primary. Safe for concurrent use, though
// the session guarantee is per causal chain: concurrent calls on one
// Session order only through the shared token.
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
	return s.wrote(tok, err)
}

// Delete removes key through the primary, updating the session token.
func (s *Session) Delete(key []byte) error {
	tok, err := s.primary.DeleteSeq(key)
	return s.wrote(tok, err)
}

// Incr adds delta to the counter at key through the primary, returning the
// post-merge value and updating the session token so a follower read issued
// next observes the new count.
func (s *Session) Incr(key []byte, delta int64) (int64, error) {
	v, tok, err := s.primary.IncrSeq(key, delta)
	return v, s.wrote(tok, err)
}

// WriteBatch applies ops through the primary, updating the session token.
func (s *Session) WriteBatch(ops []wire.BatchOp) error {
	tok, err := s.primary.WriteBatchSeq(ops)
	return s.wrote(tok, err)
}

// wrote folds a successful write's committed position into the token.
func (s *Session) wrote(tok Token, err error) error {
	if err == nil {
		s.observe(tok)
	}
	return err
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

// answered reports whether a read's outcome is an answer from the node —
// a value or a definite miss — whose position the session may fold in, as
// opposed to a refusal or transport failure worth retrying on the primary.
func answered(err error) bool {
	return err == nil || errors.Is(err, ErrNotFound)
}

// read runs one read under the session's policy: follower first, gated on
// the session token under the bounded policy and ungated under any, then the
// primary on refusal or failure. A deliberate primary read sends a zero
// gate — the primary is definitionally current for its own group, and zero
// is how the server tells routed reads from fallbacks. A bounded-policy
// fallback keeps the token as its gate, so a primary that lost the session's
// observed writes (failover without sync acks) refuses too rather than
// silently rewinding the session, and the read returns ErrNotReady.
func (s *Session) read(fn func(c *Client, gate Token) (Token, error)) error {
	var gate Token
	if f, i := s.readTarget(); f != nil {
		if s.policy == ReadBounded {
			gate = s.Token()
		}
		tok, err := fn(f, gate)
		if answered(err) {
			s.observe(tok)
			s.lastNode.Store(int64(i))
			return err
		}
		s.fallbacks.Add(1)
		if errors.Is(err, ErrNotReady) {
			s.notReady.Add(1)
		}
	}
	tok, err := fn(s.primary, gate)
	if answered(err) {
		s.observe(tok)
		s.lastNode.Store(-1)
	}
	return err
}

// Get reads key under the session's policy.
func (s *Session) Get(key []byte) (v []byte, err error) {
	err = s.read(func(c *Client, gate Token) (tok Token, err error) {
		v, tok, err = c.GetSeq(key, gate)
		return tok, err
	})
	return v, err
}

// MultiGet is Get for many keys; absent keys yield nil entries.
func (s *Session) MultiGet(keys [][]byte) (vals [][]byte, err error) {
	err = s.read(func(c *Client, gate Token) (tok Token, err error) {
		vals, tok, err = c.MultiGetSeq(keys, gate)
		return tok, err
	})
	return vals, err
}

// Scan reads up to limit pairs with key >= start under the session policy.
func (s *Session) Scan(start []byte, limit int) (kvs []wire.KV, err error) {
	err = s.read(func(c *Client, gate Token) (tok Token, err error) {
		kvs, tok, err = c.ScanSeq(start, limit, gate)
		return tok, err
	})
	return kvs, err
}
