// Package merkle builds Merkle trees over the 64-bit prefix keyspace
// (zone.Key64 order) on demand, one ordered scan of a store per tree. The
// keyspace is split into 2^bits equal leaf ranges; each leaf digests its
// range's live key-value pairs and internal nodes digest their children, so
// two replicas can locate every divergent range by walking subtree hashes
// top-down — O(divergence) comparisons and transfer on rejoin instead of
// O(dataset) transfer. Nothing is kept between builds, so writes pay nothing
// for the tree.
//
// Hashes cover user keys and values only, never sequence numbers: a
// follower bootstrapped from a snapshot re-mints sequences locally but must
// still hash identically to the primary once its data matches.
package merkle

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"

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
// start. repl adapts core.DB.Scan to it.
type ScanFunc func(start []byte, limit int) ([]Pair, error)

// BucketOf returns the leaf bucket (0-based) holding key.
func BucketOf(bits uint, key []byte) uint32 {
	var b [8]byte
	copy(b[:], key)
	return uint32(binary.BigEndian.Uint64(b[:]) >> (64 - bits))
}

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

// BuildSnapshot hashes a store from scratch at the given bits in one
// ordered pass of scan; bits outside [1, MaxBits] gets DefaultBits.
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

// Snapshot is an immutable tree, built for one anti-entropy conversation.
// Node ids are heap-numbered: root 1, children of i are 2i and 2i+1, leaves
// occupy [2^bits, 2^(bits+1)).
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
