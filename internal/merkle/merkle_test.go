package merkle

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sort"
	"testing"

	"hyperdb/internal/keys"
)

// mapScan adapts a sorted in-memory map to ScanFunc.
type mapScan struct {
	keys [][]byte
	vals map[string][]byte
}

func newMapScan() *mapScan { return &mapScan{vals: map[string][]byte{}} }

func (m *mapScan) put(k, v string) {
	if _, ok := m.vals[k]; !ok {
		m.keys = append(m.keys, []byte(k))
		sort.Slice(m.keys, func(a, b int) bool { return bytes.Compare(m.keys[a], m.keys[b]) < 0 })
	}
	m.vals[k] = []byte(v)
}

func (m *mapScan) scan(start []byte, limit int) ([]Pair, error) {
	var out []Pair
	for _, k := range m.keys {
		if bytes.Compare(k, start) < 0 {
			continue
		}
		out = append(out, Pair{Key: k, Value: m.vals[string(k)]})
		if len(out) == limit {
			break
		}
	}
	return out, nil
}

// hashRange digests the live pairs in [lo, hi) via paged scans, one leaf at
// a time: the reference the bucketed full pass is checked against. An empty
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

func TestLeafSpanBoundaries(t *testing.T) {
	const bits = 4
	lo, hi := LeafSpan(bits, 0)
	if lo != nil {
		t.Fatalf("bucket 0 lo = %x, want nil", lo)
	}
	if want := []byte{0x10}; !bytes.Equal(hi, want) {
		t.Fatalf("bucket 0 hi = %x, want %x", hi, want)
	}
	lo, hi = LeafSpan(bits, 15)
	if want := []byte{0xf0}; !bytes.Equal(lo, want) {
		t.Fatalf("last bucket lo = %x, want %x", lo, want)
	}
	if hi != nil {
		t.Fatalf("last bucket hi = %x, want nil", hi)
	}
	// A short key equal to a padded boundary must land in the bucket the
	// trimmed boundary assigns it to.
	if b := BucketOf(bits, []byte{0x10}); b != 1 {
		t.Fatalf("BucketOf(0x10) = %d, want 1", b)
	}
	if b := BucketOf(bits, []byte{0x0f, 0xff}); b != 0 {
		t.Fatalf("BucketOf(0x0fff) = %d, want 0", b)
	}
}

func TestDivergenceWalk(t *testing.T) {
	a, b := newMapScan(), newMapScan()
	for i := 0; i < 1000; i++ {
		k, v := fmt.Sprintf("key-%05d", i), fmt.Sprintf("val-%d", i)
		a.put(k, v)
		b.put(k, v)
	}
	// Diverge k keys on b.
	divergent := map[uint32]bool{}
	for i := 0; i < 5; i++ {
		k := fmt.Sprintf("key-%05d", i*137)
		b.put(k, "stale")
		divergent[BucketOf(DefaultBits, []byte(k))] = true
	}
	sa, err := BuildSnapshot(DefaultBits, a.scan, 128)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := BuildSnapshot(DefaultBits, b.scan, 128)
	if err != nil {
		t.Fatal(err)
	}
	// BFS walk exactly as the anti-entropy follower does.
	var leaves []uint32
	queue := []uint32{1}
	visited := 0
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		visited++
		ha, _ := sa.Node(id)
		hb, _ := sb.Node(id)
		if ha == hb {
			continue
		}
		if sa.IsLeaf(id) {
			leaves = append(leaves, id)
			continue
		}
		queue = append(queue, 2*id, 2*id+1)
	}
	if len(leaves) != len(divergent) {
		t.Fatalf("walk found %d divergent leaves, want %d", len(leaves), len(divergent))
	}
	for _, id := range leaves {
		if !divergent[sa.LeafBucket(id)] {
			t.Fatalf("leaf %d not actually divergent", id)
		}
	}
	// O(divergence): visits bounded by ~2 * leaves * depth, far below the
	// 2048-node full tree.
	if visited > 2*len(divergent)*(DefaultBits+1)+1 {
		t.Fatalf("walk visited %d nodes for %d divergent leaves", visited, len(divergent))
	}
}

func TestEmptyTree(t *testing.T) {
	m := newMapScan()
	s, err := BuildSnapshot(4, m.scan, 16)
	if err != nil {
		t.Fatal(err)
	}
	if s.Root() != (Hash{}) {
		t.Fatalf("empty tree root = %x, want zero", s.Root())
	}
}

func TestLeafSpanScanEquivalence(t *testing.T) {
	// Per-leaf hashRange over spans must agree with the bucketed full pass,
	// including short keys that sit exactly on padded boundaries.
	m := newMapScan()
	m.put(string([]byte{0x10}), "edge") // equals bucket-1 boundary at bits=4
	m.put(string([]byte{0x0f, 0xff}), "below")
	for i := 0; i < 300; i++ {
		m.put(fmt.Sprintf("k%03d", i), "v")
	}
	const bits = 4
	all, err := hashAllLeaves(bits, m.scan, 32)
	if err != nil {
		t.Fatal(err)
	}
	for b := uint32(0); b < 1<<bits; b++ {
		lo, hi := LeafSpan(bits, b)
		h, err := hashRange(m.scan, lo, hi, 32)
		if err != nil {
			t.Fatal(err)
		}
		if h != all[b] {
			t.Fatalf("bucket %d: per-leaf hash != full-pass hash", b)
		}
	}
}
