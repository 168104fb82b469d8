package client

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hyperdb/internal/cluster"
	"hyperdb/internal/wire"
)

// ClusterOptions configures DialCluster.
type ClusterOptions struct {
	// Seeds are node addresses to fetch the initial shard map from; the
	// first reachable one wins. At least one is required. Seeds need not
	// cover the cluster — the map names every group.
	Seeds []string
	// Conns is the pool size per node. Default 1.
	Conns int
	// MaxRetries caps the rounds of WRONG_SHARD bounces per operation before
	// giving up. Each bounce carries the server's map, so convergence
	// normally takes one retry; the cap only bites when the map churns
	// faster than the client can chase it. Default 8.
	MaxRetries int
	// DialTimeout bounds each connection attempt. Default 5s.
	DialTimeout time.Duration
}

// Cluster routes every keyed operation directly to the node owning the
// key's slot — nodes never proxy. It caches the shard map, learns newer
// versions from WRONG_SHARD bounces (the refusal payload is the server's
// map), and keeps a lazily dialed client per group address. Safe for
// concurrent use.
type Cluster struct {
	opts ClusterOptions

	mu   sync.Mutex
	m    *cluster.Map
	pool map[string]*Client

	retries   atomic.Uint64 // WRONG_SHARD bounces retried
	refetches atomic.Uint64 // explicit map refetches after no-progress bounces

	plain ClusterSession // the tokenless session behind the plain operations
}

// DialCluster fetches the shard map from the first reachable seed and
// returns a routing client over it.
func DialCluster(opts ClusterOptions) (*Cluster, error) {
	if len(opts.Seeds) == 0 {
		return nil, errors.New("client: ClusterOptions.Seeds is required")
	}
	if opts.Conns <= 0 {
		opts.Conns = 1
	}
	if opts.MaxRetries <= 0 {
		opts.MaxRetries = 8
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 5 * time.Second
	}
	cc := &Cluster{opts: opts, pool: make(map[string]*Client)}
	cc.plain.cc = cc
	var lastErr error
	for _, addr := range opts.Seeds {
		c, err := cc.clientFor(addr)
		if err != nil {
			lastErr = err
			continue
		}
		m, err := c.ShardMap()
		if err != nil {
			lastErr = err
			continue
		}
		cc.adopt(m)
		return cc, nil
	}
	return nil, fmt.Errorf("client: no seed served a shard map: %w", lastErr)
}

// Close tears down every pooled per-node client.
func (cc *Cluster) Close() error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	for addr, c := range cc.pool {
		c.Close()
		delete(cc.pool, addr)
	}
	return nil
}

// Map returns the currently cached shard map.
func (cc *Cluster) Map() *cluster.Map {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.m
}

// Retries returns how many WRONG_SHARD bounces the client has retried.
func (cc *Cluster) Retries() uint64 { return cc.retries.Load() }

// Refetches returns how many explicit SHARDMAP refetches no-progress
// bounces forced (bounces that taught the client nothing newer).
func (cc *Cluster) Refetches() uint64 { return cc.refetches.Load() }

// adopt installs m if it is newer than the cached map, reporting whether
// the cache advanced.
func (cc *Cluster) adopt(m *cluster.Map) bool {
	if m == nil {
		return false
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.m != nil && m.Version <= cc.m.Version {
		return false
	}
	cc.m = m
	return true
}

// clientFor returns the pooled client for addr, dialing on first use.
func (cc *Cluster) clientFor(addr string) (*Client, error) {
	cc.mu.Lock()
	if c, ok := cc.pool[addr]; ok {
		cc.mu.Unlock()
		return c, nil
	}
	cc.mu.Unlock()
	c, err := Dial(Options{Addr: addr, Conns: cc.opts.Conns, DialTimeout: cc.opts.DialTimeout})
	if err != nil {
		return nil, err
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if prev, ok := cc.pool[addr]; ok {
		c.Close()
		return prev, nil
	}
	cc.pool[addr] = c
	return c, nil
}

// refresh fetches the map from any group other than skip and adopts it —
// the escape hatch when bounces stop teaching us anything newer (two nodes
// disagreeing with maps no newer than ours).
func (cc *Cluster) refresh(skip string) {
	cc.refetches.Add(1)
	m := cc.Map()
	if m == nil {
		return
	}
	for _, addr := range m.Groups {
		if addr == skip {
			continue
		}
		c, err := cc.clientFor(addr)
		if err != nil {
			continue
		}
		if nm, err := c.ShardMap(); err == nil && cc.adopt(nm) {
			return
		}
	}
}

// route sends n keyed items to their owners: it splits the items still
// unsent by owning group under the cached map, calls send once per group
// with that group's item indexes, and on a WRONG_SHARD bounce adopts the
// carried map and re-splits what the bounced groups held — items already
// sent are never sent again — up to MaxRetries rounds. Two consecutive
// rounds whose bounces taught the client nothing newer (the refusing node's
// map is no newer than ours) trigger a refetch from another group. Every
// keyed op, single or multi, plain or session, goes through here.
func (cc *Cluster) route(n int, key func(i int) []byte, send func(addr string, c *Client, idx []int) error) error {
	done := make([]bool, n)
	stuck := 0
	for round := 0; round < cc.opts.MaxRetries; round++ {
		m := cc.Map()
		groups := make(map[string][]int)
		for i := range done {
			if !done[i] {
				addr := m.Owner(key(i))
				groups[addr] = append(groups[addr], i)
			}
		}
		bounced, learned := "", false
		for addr, idx := range groups {
			c, err := cc.clientFor(addr)
			if err != nil {
				return err
			}
			err = send(addr, c, idx)
			var ws *WrongShardError
			if errors.As(err, &ws) {
				cc.retries.Add(1)
				learned = cc.adopt(ws.Map) || learned
				bounced = addr
				continue
			}
			if err != nil {
				return err
			}
			for _, i := range idx {
				done[i] = true
			}
		}
		switch {
		case bounced == "":
			return nil
		case learned:
			stuck = 0
		default:
			if stuck++; stuck >= 2 {
				cc.refresh(bounced)
				stuck = 0
			}
		}
	}
	return fmt.Errorf("client: keys still unrouted after %d rounds of wrong-shard bounces", cc.opts.MaxRetries)
}

// The plain operations are the session's with no token kept: a zero gate
// out, the returned position dropped.

// Put writes key=value on the key's owner.
func (cc *Cluster) Put(key, value []byte) error { return cc.plain.Put(key, value) }

// Get reads key from its owner, or ErrNotFound.
func (cc *Cluster) Get(key []byte) ([]byte, error) { return cc.plain.Get(key) }

// Delete removes key on its owner.
func (cc *Cluster) Delete(key []byte) error { return cc.plain.Delete(key) }

// Incr adds delta to the counter at key on its owner.
func (cc *Cluster) Incr(key []byte, delta int64) (int64, error) { return cc.plain.Incr(key, delta) }

// MultiGet splits keys by owning group, issues one MGET per group, and
// reassembles values positionally.
func (cc *Cluster) MultiGet(keys [][]byte) ([][]byte, error) { return cc.plain.MultiGet(keys) }

// WriteBatch splits ops by owning group and applies one sub-batch per
// group. Atomicity holds per group, not across the whole batch — a
// cross-shard batch is N independent group commits (see DESIGN.md).
func (cc *Cluster) WriteBatch(ops []wire.BatchOp) error { return cc.plain.WriteBatch(ops) }

// ClusterSession is session consistency over a sharded cluster: writes and
// reads route per key, and the session token is kept per group — each
// shard's primary mints its own (sequence, epoch) line, so one scalar
// token cannot order positions across shards. A batch straddling shards
// merges each group's applied position into that group's token only.
type ClusterSession struct {
	cc *Cluster

	mu   sync.Mutex
	toks map[string]Token // per group address; nil keeps no tokens (Cluster.plain)
}

// NewClusterSession builds a session over a routing client.
func NewClusterSession(cc *Cluster) *ClusterSession {
	return &ClusterSession{cc: cc, toks: make(map[string]Token)}
}

// Tokens returns a copy of the per-group token map.
func (s *ClusterSession) Tokens() map[string]Token {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]Token, len(s.toks))
	for a, t := range s.toks {
		out[a] = t
	}
	return out
}

// gate is the token a request to addr's group carries.
func (s *ClusterSession) gate(addr string) Token {
	if s.toks == nil {
		return Token{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.toks[addr]
}

// observe folds a position answered by addr's group into that group's token.
func (s *ClusterSession) observe(addr string, t Token) {
	if s.toks == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.toks[addr] = mergeToken(s.toks[addr], t)
}

// each routes n keyed items through the session: fn runs once per owning
// group, gated on that group's token, and the position of each group's
// answer folds into that group's token alone.
func (s *ClusterSession) each(n int, key func(i int) []byte, fn func(c *Client, gate Token, idx []int) (Token, error)) error {
	return s.cc.route(n, key, func(addr string, c *Client, idx []int) error {
		tok, err := fn(c, s.gate(addr), idx)
		if answered(err) {
			s.observe(addr, tok)
		}
		return err
	})
}

// one is each for a single key.
func (s *ClusterSession) one(key []byte, fn func(c *Client, gate Token) (Token, error)) error {
	return s.each(1, func(int) []byte { return key }, func(c *Client, gate Token, _ []int) (Token, error) {
		return fn(c, gate)
	})
}

// Put writes through the key's owner and folds the committed position into
// that group's token.
func (s *ClusterSession) Put(key, value []byte) error {
	return s.one(key, func(c *Client, _ Token) (Token, error) { return c.PutSeq(key, value) })
}

// Delete removes key through its owner, updating that group's token.
func (s *ClusterSession) Delete(key []byte) error {
	return s.one(key, func(c *Client, _ Token) (Token, error) { return c.DeleteSeq(key) })
}

// Incr adds delta to the counter at key through its owner.
func (s *ClusterSession) Incr(key []byte, delta int64) (v int64, err error) {
	err = s.one(key, func(c *Client, _ Token) (tok Token, err error) {
		v, tok, err = c.IncrSeq(key, delta)
		return tok, err
	})
	return v, err
}

// Get reads key from its owner, gated on the group's token.
func (s *ClusterSession) Get(key []byte) (v []byte, err error) {
	err = s.one(key, func(c *Client, gate Token) (tok Token, err error) {
		v, tok, err = c.GetSeq(key, gate)
		return tok, err
	})
	return v, err
}

// MultiGet splits keys by owning group, gates each sub-request on that
// group's token, and reassembles values positionally; absent keys yield nil
// entries.
func (s *ClusterSession) MultiGet(keys [][]byte) ([][]byte, error) {
	vals := make([][]byte, len(keys))
	err := s.each(len(keys), func(i int) []byte { return keys[i] }, func(c *Client, gate Token, idx []int) (Token, error) {
		sub := make([][]byte, len(idx))
		for j, i := range idx {
			sub[j] = keys[i]
		}
		vs, tok, err := c.MultiGetSeq(sub, gate)
		for j := range vs {
			vals[idx[j]] = vs[j]
		}
		return tok, err
	})
	if err != nil {
		return nil, err
	}
	return vals, nil
}

// WriteBatch splits ops by owning group and folds each group's committed
// position into its own token. Atomicity holds per group only.
func (s *ClusterSession) WriteBatch(ops []wire.BatchOp) error {
	return s.each(len(ops), func(i int) []byte { return ops[i].Key }, func(c *Client, _ Token, idx []int) (Token, error) {
		sub := make([]wire.BatchOp, len(idx))
		for j, i := range idx {
			sub[j] = ops[i]
		}
		return c.WriteBatchSeq(sub)
	})
}
