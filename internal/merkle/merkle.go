// Package merkle maintains an incremental Merkle tree over the 64-bit
// prefix keyspace (zone.Key64 order). The keyspace is split into 2^bits
// equal leaf ranges; each leaf digests its range's live key-value pairs and
// internal nodes digest their children, so two replicas can locate every
// divergent range by walking subtree hashes top-down — O(divergence)
// comparisons instead of O(dataset) transfer on rejoin.
//
// Hashes cover user keys and values only, never sequence numbers: a
// follower bootstrapped from a snapshot re-mints sequences locally but must
// still hash identically to the primary once its data matches.
package merkle

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"sync"

	"hyperdb/internal/keys"
)

// DefaultBits gives 1024 leaves — at the paper's scale each leaf covers a
// few thousand objects, so a single-key divergence costs one leaf fetch.
const DefaultBits = 10

// MaxBits bounds the node array (2^17 hashes = 4 MiB) against bad input.
const MaxBits = 16

// Hash is one node digest; the zero Hash marks an empty subtree.
type Hash = [32]byte

// Pair is one live key-value pair fed to leaf hashing.
type Pair struct {
	Key   []byte
	Value []byte
}

// ScanFunc pages live pairs in key order: up to limit pairs with key >=
// start. core.DB.Scan adapts to it directly.
type ScanFunc func(start []byte, limit int) ([]Pair, error)

// BucketOf returns the leaf bucket (0-based) holding key.
func BucketOf(bits uint, key []byte) uint32 {
	var b [8]byte
	copy(b[:], key)
	return uint32(binary.BigEndian.Uint64(b[:]) >> (64 - bits))
}

// LeafID converts a bucket to its heap node id (leaves occupy
// [2^bits, 2^bits+1)).
func LeafID(bits uint, bucket uint32) uint32 { return 1<<bits + bucket }

// LeafSpan returns the closed-open user-key range [lo, hi) that bucket
// covers; nil lo means the keyspace start, nil hi means its end. Trimming
// trailing zero bytes from the boundary's big-endian encoding keeps short
// keys on the correct side: byte order against the trimmed boundary agrees
// exactly with zero-padded prefix order against the boundary value.
func LeafSpan(bits uint, bucket uint32) (lo, hi []byte) {
	return boundary(bits, uint64(bucket)), boundary(bits, uint64(bucket)+1)
}

func boundary(bits uint, b uint64) []byte {
	if b == 0 || b >= 1<<bits {
		return nil
	}
	var e [8]byte
	binary.BigEndian.PutUint64(e[:], b<<(64-bits))
	n := 8
	for n > 0 && e[n-1] == 0 {
		n--
	}
	return append([]byte(nil), e[:n]...)
}

// Tree tracks which leaves a node's committed writes have dirtied and
// recomputes only those on Snapshot. MarkKey is cheap enough for the apply
// path; Snapshot does the scans.
type Tree struct {
	bits uint

	mu    sync.Mutex
	dirty map[uint32]struct{}
	nodes []Hash // heap-numbered, ids 1..2^(bits+1)-1; index 0 unused
}

// New returns a tree with every leaf dirty, so the first Snapshot builds
// from the DB's current contents. bits outside [1, MaxBits] gets
// DefaultBits.
func New(bits int) *Tree {
	if bits < 1 || bits > MaxBits {
		bits = DefaultBits
	}
	t := &Tree{
		bits:  uint(bits),
		nodes: make([]Hash, 2<<uint(bits)),
		dirty: make(map[uint32]struct{}, 1<<uint(bits)),
	}
	for b := uint32(0); b < 1<<t.bits; b++ {
		t.dirty[b] = struct{}{} // every leaf starts unhashed
	}
	return t
}

// Bits returns the tree's leaf-count exponent.
func (t *Tree) Bits() int { return int(t.bits) }

// MarkKey records that key's leaf needs rehashing.
func (t *Tree) MarkKey(key []byte) {
	b := BucketOf(t.bits, key)
	t.mu.Lock()
	t.dirty[b] = struct{}{}
	t.mu.Unlock()
}

// Snapshot rehashes the dirty leaves via scan, folds the changes up the
// tree and returns an immutable copy for an anti-entropy conversation.
// Writes racing the scans stay conservatively dirty for the next call.
func (t *Tree) Snapshot(scan ScanFunc, pairsPerPage int) (*Snapshot, error) {
	if pairsPerPage <= 0 {
		pairsPerPage = 256
	}
	t.mu.Lock()
	dirty := t.dirty
	t.dirty = make(map[uint32]struct{})
	t.mu.Unlock()

	restore := func() {
		t.mu.Lock()
		for b := range dirty {
			t.dirty[b] = struct{}{}
		}
		t.mu.Unlock()
	}

	updates := make(map[uint32]Hash, len(dirty))
	if len(dirty) == 1<<t.bits {
		// Everything is dirty (first snapshot, or post-bootstrap): one
		// ordered pass over the whole keyspace beats 2^bits range scans.
		leaves, err := hashAllLeaves(t.bits, scan, pairsPerPage)
		if err != nil {
			restore()
			return nil, err
		}
		for b, h := range leaves {
			updates[uint32(b)] = h
		}
	} else {
		for b := range dirty {
			lo, hi := LeafSpan(t.bits, b)
			h, err := hashRange(scan, lo, hi, pairsPerPage)
			if err != nil {
				restore()
				return nil, err
			}
			updates[b] = h
		}
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	cur := make(map[uint32]struct{}, len(updates))
	for b, h := range updates {
		id := LeafID(t.bits, b)
		if t.nodes[id] != h {
			t.nodes[id] = h
			cur[id] = struct{}{}
		}
	}
	for len(cur) > 0 {
		parents := make(map[uint32]struct{}, len(cur))
		for id := range cur {
			if id > 1 {
				parents[id>>1] = struct{}{}
			}
		}
		for p := range parents {
			t.nodes[p] = combine(t.nodes[2*p], t.nodes[2*p+1])
		}
		cur = parents
	}
	return &Snapshot{bits: t.bits, nodes: append([]Hash(nil), t.nodes...)}, nil
}

// combine hashes two children; an all-empty pair stays the zero Hash so
// empty subtrees compare equal without hashing.
func combine(l, r Hash) Hash {
	if l == (Hash{}) && r == (Hash{}) {
		return Hash{}
	}
	var buf [64]byte
	copy(buf[:32], l[:])
	copy(buf[32:], r[:])
	return sha256.Sum256(buf[:])
}

// writePair frames one pair into a leaf digest: uvarint lengths prevent
// (key, value) boundary ambiguity.
func writePair(h hash.Hash, key, value []byte) {
	var tmp [binary.MaxVarintLen64]byte
	h.Write(tmp[:binary.PutUvarint(tmp[:], uint64(len(key)))])
	h.Write(key)
	h.Write(tmp[:binary.PutUvarint(tmp[:], uint64(len(value)))])
	h.Write(value)
}

// hashRange digests the live pairs in [lo, hi) via paged scans. An empty
// range digests to the zero Hash.
func hashRange(scan ScanFunc, lo, hi []byte, pairsPerPage int) (Hash, error) {
	h := sha256.New()
	empty := true
	start := lo
	for {
		pairs, err := scan(start, pairsPerPage)
		if err != nil {
			return Hash{}, err
		}
		for _, p := range pairs {
			if hi != nil && bytes.Compare(p.Key, hi) >= 0 {
				pairs = nil // past the leaf: stop paging
				break
			}
			empty = false
			writePair(h, p.Key, p.Value)
		}
		if len(pairs) < pairsPerPage {
			break
		}
		start = keys.Successor(pairs[len(pairs)-1].Key)
	}
	if empty {
		return Hash{}, nil
	}
	var out Hash
	h.Sum(out[:0])
	return out, nil
}

// hashAllLeaves digests every leaf in one ordered pass over the keyspace.
func hashAllLeaves(bits uint, scan ScanFunc, pairsPerPage int) ([]Hash, error) {
	leaves := make([]Hash, 1<<bits)
	h := sha256.New()
	cur := uint32(0)
	started := false
	flush := func() {
		if started {
			h.Sum(leaves[cur][:0])
			h.Reset()
			started = false
		}
	}
	var start []byte
	for {
		pairs, err := scan(start, pairsPerPage)
		if err != nil {
			return nil, err
		}
		for _, p := range pairs {
			b := BucketOf(bits, p.Key)
			if b != cur {
				if b < cur {
					return nil, fmt.Errorf("merkle: scan out of order at %q", p.Key)
				}
				flush()
				cur = b
			}
			started = true
			writePair(h, p.Key, p.Value)
		}
		if len(pairs) < pairsPerPage {
			break
		}
		start = keys.Successor(pairs[len(pairs)-1].Key)
	}
	flush()
	return leaves, nil
}

// BuildSnapshot hashes a DB from scratch at the given bits — the fallback
// when two nodes' trees disagree on leaf count.
func BuildSnapshot(bits int, scan ScanFunc, pairsPerPage int) (*Snapshot, error) {
	if bits < 1 || bits > MaxBits {
		bits = DefaultBits
	}
	if pairsPerPage <= 0 {
		pairsPerPage = 256
	}
	leaves, err := hashAllLeaves(uint(bits), scan, pairsPerPage)
	if err != nil {
		return nil, err
	}
	nodes := make([]Hash, 2<<uint(bits))
	copy(nodes[1<<uint(bits):], leaves)
	for id := uint32(1<<uint(bits)) - 1; id >= 1; id-- {
		nodes[id] = combine(nodes[2*id], nodes[2*id+1])
	}
	return &Snapshot{bits: uint(bits), nodes: nodes}, nil
}

// Snapshot is an immutable point-in-time tree served to an anti-entropy
// peer. Node ids are heap-numbered: root 1, children of i are 2i and 2i+1,
// leaves occupy [2^bits, 2^(bits+1)).
type Snapshot struct {
	bits  uint
	nodes []Hash
}

// Bits returns the leaf-count exponent.
func (s *Snapshot) Bits() int { return int(s.bits) }

// Root returns the whole-tree digest.
func (s *Snapshot) Root() Hash { return s.nodes[1] }

// Node returns the digest of a heap node id; ok=false for out-of-range ids.
func (s *Snapshot) Node(id uint32) (Hash, bool) {
	if id < 1 || int(id) >= len(s.nodes) {
		return Hash{}, false
	}
	return s.nodes[id], true
}

// IsLeaf reports whether id addresses a leaf.
func (s *Snapshot) IsLeaf(id uint32) bool {
	return id >= 1<<s.bits && id < 2<<s.bits
}

// LeafBucket converts a leaf id back to its bucket.
func (s *Snapshot) LeafBucket(id uint32) uint32 { return id - 1<<s.bits }

// LeafSpan returns the key range of a leaf id.
func (s *Snapshot) LeafSpan(id uint32) (lo, hi []byte) {
	return LeafSpan(s.bits, s.LeafBucket(id))
}
