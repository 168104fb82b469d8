// Package btree implements the in-memory B-tree index HyperDB keeps over
// the NVMe tier (§3.6): each entry maps a user key to its location in zone
// storage. Keys are ordered bytewise so range scans see keys in order.
//
// The tree is not internally synchronised; HyperDB wraps it in the owning
// partition's lock, matching the paper's shared-nothing design.
package btree

import (
	"bytes"
	"encoding/binary"
)

const (
	degree   = 32           // minimum children per internal node
	maxItems = 2*degree - 1 // maximum items per node
	minItems = degree - 1   // minimum items per non-root node
)

// item carries its key's Prefix inline so a descent orders items by integer
// compares on memory it has already loaded; the key bytes, each in their
// own allocation, are read only on a prefix tie.
type item[V any] struct {
	pfx uint64
	key []byte
	val V
}

// Prefix returns k's first 8 bytes as a big-endian integer, zero-padded.
// Prefix(a) < Prefix(b) implies a < b bytewise; equal prefixes decide nothing.
func Prefix(k []byte) uint64 {
	if len(k) >= 8 {
		return binary.BigEndian.Uint64(k)
	}
	var b [8]byte
	copy(b[:], k)
	return binary.BigEndian.Uint64(b[:])
}

type node[V any] struct {
	items    []item[V]
	children []*node[V] // nil for leaves
}

func (n *node[V]) leaf() bool { return len(n.children) == 0 }

// search returns the index of the first item with key >= k and whether an
// exact match sits at that index. p must be Prefix(k).
func (n *node[V]) search(p uint64, k []byte) (int, bool) {
	lo, hi := 0, len(n.items)
	for lo < hi {
		mid := (lo + hi) / 2
		it := &n.items[mid]
		if it.pfx < p || (it.pfx == p && bytes.Compare(it.key, k) < 0) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(n.items) && n.items[lo].pfx == p && bytes.Equal(n.items[lo].key, k)
}

// Map is an ordered map from []byte keys to V.
type Map[V any] struct {
	root *node[V]
	size int
}

// New returns an empty tree.
func New[V any]() *Map[V] { return &Map[V]{} }

// Len returns the number of entries.
func (t *Map[V]) Len() int { return t.size }

// Get returns the value for key k.
func (t *Map[V]) Get(k []byte) (V, bool) {
	var zero V
	p := Prefix(k)
	n := t.root
	for n != nil {
		i, ok := n.search(p, k)
		if ok {
			return n.items[i].val, true
		}
		if n.leaf() {
			return zero, false
		}
		n = n.children[i]
	}
	return zero, false
}

// Ref returns a pointer to the stored value for k, or nil if absent. It
// lets an update-in-place caller pay one descent instead of Get+Set and
// skip re-cloning the key. The pointer is invalidated by the next
// structural change (any Set or Delete); callers must hold whatever lock
// guards the tree for as long as they use it.
func (t *Map[V]) Ref(k []byte) *V {
	p := Prefix(k)
	n := t.root
	for n != nil {
		i, ok := n.search(p, k)
		if ok {
			return &n.items[i].val
		}
		if n.leaf() {
			return nil
		}
		n = n.children[i]
	}
	return nil
}

// Set inserts or replaces the value for key k. The key slice is stored as
// given; callers that reuse buffers must clone first.
func (t *Map[V]) Set(k []byte, v V) {
	it := item[V]{pfx: Prefix(k), key: k, val: v}
	if t.root == nil {
		t.root = &node[V]{items: []item[V]{it}}
		t.size = 1
		return
	}
	if len(t.root.items) >= maxItems {
		old := t.root
		t.root = &node[V]{children: []*node[V]{old}}
		t.root.splitChild(0)
	}
	if t.root.insert(it) {
		t.size++
	}
}

// splitChild splits the full child at index i, hoisting its median.
func (n *node[V]) splitChild(i int) {
	child := n.children[i]
	mid := len(child.items) / 2
	median := child.items[mid]

	right := &node[V]{items: append([]item[V]{}, child.items[mid+1:]...)}
	if !child.leaf() {
		right.children = append([]*node[V]{}, child.children[mid+1:]...)
		child.children = child.children[:mid+1]
	}
	child.items = child.items[:mid]

	n.items = append(n.items, item[V]{})
	copy(n.items[i+1:], n.items[i:])
	n.items[i] = median

	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
}

// insert adds it below n (which must not be full). Returns true if the tree
// grew (false = replaced existing).
func (n *node[V]) insert(it item[V]) bool {
	i, ok := n.search(it.pfx, it.key)
	if ok {
		n.items[i].val = it.val
		return false
	}
	if n.leaf() {
		n.items = append(n.items, item[V]{})
		copy(n.items[i+1:], n.items[i:])
		n.items[i] = it
		return true
	}
	if len(n.children[i].items) >= maxItems {
		n.splitChild(i)
		if c := bytes.Compare(it.key, n.items[i].key); c > 0 {
			i++
		} else if c == 0 {
			n.items[i].val = it.val
			return false
		}
	}
	return n.children[i].insert(it)
}

// Delete removes key k, reporting whether it was present.
func (t *Map[V]) Delete(k []byte) bool {
	if t.root == nil {
		return false
	}
	deleted := t.root.delete(Prefix(k), k)
	if len(t.root.items) == 0 && !t.root.leaf() {
		t.root = t.root.children[0]
	}
	if len(t.root.items) == 0 && t.root.leaf() {
		t.root = nil
	}
	if deleted {
		t.size--
	}
	return deleted
}

func (n *node[V]) delete(p uint64, k []byte) bool {
	i, ok := n.search(p, k)
	if n.leaf() {
		if !ok {
			return false
		}
		n.items = append(n.items[:i], n.items[i+1:]...)
		return true
	}
	if ok {
		// Replace with predecessor from the left subtree, then delete it there.
		pred := n.children[i].max()
		n.items[i] = pred
		n.ensureChild(i)
		// The item may have moved during rebalancing; re-resolve.
		j, _ := n.search(pred.pfx, pred.key)
		return n.children[j].delete(pred.pfx, pred.key)
	}
	n.ensureChild(i)
	j, _ := n.search(p, k)
	return n.children[j].delete(p, k)
}

func (n *node[V]) max() item[V] {
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	return n.items[len(n.items)-1]
}

// ensureChild guarantees children[i] has > minItems items before descending,
// borrowing from a sibling or merging as needed.
func (n *node[V]) ensureChild(i int) {
	if i >= len(n.children) {
		i = len(n.children) - 1
	}
	child := n.children[i]
	if len(child.items) > minItems {
		return
	}
	// Borrow from left sibling.
	if i > 0 && len(n.children[i-1].items) > minItems {
		left := n.children[i-1]
		child.items = append([]item[V]{n.items[i-1]}, child.items...)
		n.items[i-1] = left.items[len(left.items)-1]
		left.items = left.items[:len(left.items)-1]
		if !left.leaf() {
			child.children = append([]*node[V]{left.children[len(left.children)-1]}, child.children...)
			left.children = left.children[:len(left.children)-1]
		}
		return
	}
	// Borrow from right sibling.
	if i < len(n.children)-1 && len(n.children[i+1].items) > minItems {
		right := n.children[i+1]
		child.items = append(child.items, n.items[i])
		n.items[i] = right.items[0]
		right.items = right.items[1:]
		if !right.leaf() {
			child.children = append(child.children, right.children[0])
			right.children = right.children[1:]
		}
		return
	}
	// Merge with a sibling.
	if i > 0 {
		i--
	}
	left, right := n.children[i], n.children[i+1]
	left.items = append(left.items, n.items[i])
	left.items = append(left.items, right.items...)
	left.children = append(left.children, right.children...)
	n.items = append(n.items[:i], n.items[i+1:]...)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
}

// Ascend visits every entry with lo <= key < hi in order (nil bounds are
// open). Return false from fn to stop early. fn must not mutate the tree —
// collect keys and apply changes after the walk.
func (t *Map[V]) Ascend(lo, hi []byte, fn func(k []byte, v V) bool) {
	if t.root != nil {
		t.root.ascend(lo, hi, fn)
	}
}

func (n *node[V]) ascend(lo, hi []byte, fn func(k []byte, v V) bool) bool {
	start := 0
	if lo != nil {
		start, _ = n.search(Prefix(lo), lo)
	}
	for i := start; i <= len(n.items); i++ {
		if !n.leaf() {
			if !n.children[i].ascend(lo, hi, fn) {
				return false
			}
		}
		if i == len(n.items) {
			break
		}
		k := n.items[i].key
		if hi != nil && bytes.Compare(k, hi) >= 0 {
			return false
		}
		if lo != nil && bytes.Compare(k, lo) < 0 {
			continue
		}
		if !fn(k, n.items[i].val) {
			return false
		}
	}
	return true
}

// Min returns the smallest key, or nil when empty.
func (t *Map[V]) Min() []byte {
	if t.root == nil {
		return nil
	}
	n := t.root
	for !n.leaf() {
		n = n.children[0]
	}
	return n.items[0].key
}

// Max returns the largest key, or nil when empty.
func (t *Map[V]) Max() []byte {
	if t.root == nil {
		return nil
	}
	return t.root.max().key
}
