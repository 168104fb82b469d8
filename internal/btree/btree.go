// Package btree implements the in-memory B-tree index HyperDB keeps over
// the NVMe tier (§3.6): each entry maps a user key to its location in zone
// storage. Keys are ordered bytewise so range scans see keys in order.
//
// The tree is not internally synchronised; HyperDB wraps it in the owning
// partition's lock, matching the paper's shared-nothing design.
package btree

import (
	"bytes"
	"cmp"
	"encoding/binary"
)

const (
	degree   = 32           // minimum children per internal node
	maxItems = 2*degree - 1 // maximum items per node
	minItems = degree - 1   // minimum items per non-root node
)

// item holds no pointer, so the collector never scans the items and a key
// costs no allocation of its own. A key of up to 8 bytes is its Prefix and
// length; a longer one keeps the klen-8 bytes past the prefix in its tree's
// tail arena, and a descent reads them only on a prefix tie.
type item[V any] struct {
	pfx  uint64
	klen uint32
	tail uint32 // offset into Map.tails; 0 for a short key
	val  V
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

// Map is an ordered map from []byte keys to V.
type Map[V any] struct {
	root *node[V]
	size int
	// tails holds the bytes past the first 8 of every long key back to back
	// after a reserved byte; dead counts deleted keys' bytes left in it.
	tails []byte
	dead  int
}

// New returns an empty tree.
func New[V any]() *Map[V] { return &Map[V]{tails: []byte{0}} }

// Len returns the number of entries.
func (t *Map[V]) Len() int { return t.size }

// compare orders it against key k, whose Prefix is p. On a prefix tie a key
// of at most 8 bytes is the zero-padded prefix of the other, so length
// decides; two longer keys compare their tails.
func (t *Map[V]) compare(it *item[V], p uint64, k []byte) int {
	switch {
	case it.pfx != p:
		return cmp.Compare(it.pfx, p)
	case it.klen <= 8 || len(k) <= 8:
		return cmp.Compare(int(it.klen), len(k))
	}
	return bytes.Compare(t.tails[it.tail:it.tail+it.klen-8], k[8:])
}

// search returns the index of the first item of n with key >= k and whether
// an exact match sits at that index. p must be Prefix(k).
func (t *Map[V]) search(n *node[V], p uint64, k []byte) (int, bool) {
	lo, hi := 0, len(n.items)
	for lo < hi {
		mid := (lo + hi) / 2
		it := &n.items[mid]
		if it.pfx < p || (it.pfx == p && t.compare(it, p, k) < 0) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(n.items) && t.compare(&n.items[lo], p, k) == 0
}

// Get returns the value for key k.
func (t *Map[V]) Get(k []byte) (V, bool) {
	if v := t.Ref(k); v != nil {
		return *v, true
	}
	var zero V
	return zero, false
}

// Ref returns a pointer to the stored value for k, or nil if absent. It
// lets an update-in-place caller pay one descent instead of Get+Set. The
// pointer is invalidated by the next structural change (any Set or Delete);
// callers must hold whatever lock guards the tree for as long as they use it.
func (t *Map[V]) Ref(k []byte) *V {
	p := Prefix(k)
	for n := t.root; n != nil; {
		i, ok := t.search(n, p, k)
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

// Set inserts or replaces the value for key k. The tree copies what it keeps
// of k, so the caller may reuse it.
func (t *Map[V]) Set(k []byte, v V) {
	p := Prefix(k)
	if t.root == nil {
		t.root = &node[V]{items: []item[V]{t.newItem(p, k, v)}}
		t.size = 1
		return
	}
	if len(t.root.items) >= maxItems {
		old := t.root
		t.root = &node[V]{children: []*node[V]{old}}
		t.root.splitChild(0)
	}
	if t.insert(t.root, p, k, v) {
		t.size++
	}
}

// newItem is the item for a key new to the tree, with its tail copied in.
func (t *Map[V]) newItem(p uint64, k []byte, v V) item[V] {
	it := item[V]{pfx: p, klen: uint32(len(k)), val: v}
	if len(k) > 8 {
		it.tail = uint32(len(t.tails))
		t.tails = append(t.tails, k[8:]...)
	}
	return it
}

// compact rewrites the tail arena with the live tails in one tree walk;
// Delete calls it once the dead bytes outnumber the live ones and the items.
func (t *Map[V]) compact() {
	arena := make([]byte, 1, len(t.tails)-t.dead)
	var walk func(n *node[V])
	walk = func(n *node[V]) {
		for i := range n.items {
			if it := &n.items[i]; it.klen > 8 {
				at := len(arena)
				arena = append(arena, t.tails[it.tail:it.tail+it.klen-8]...)
				it.tail = uint32(at)
			}
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	if t.root != nil {
		walk(t.root)
	}
	t.tails, t.dead = arena, 0
}

// splitChild splits the full child at index i, hoisting its median.
func (n *node[V]) splitChild(i int) {
	child := n.children[i]
	mid := len(child.items) / 2
	median := child.items[mid]

	right := &node[V]{items: fit(child.items[mid+1:], len(child.items)-mid-1)}
	if !child.leaf() {
		right.children = fit(child.children[mid+1:], len(child.children)-mid-1)
		child.children = trim(child.children[:mid+1])
	}
	child.items = trim(child.items[:mid])
	n.items = insertAt(n.items, i, median)
	n.children = insertAt(n.children, i+1, right)
}

// fit copies s into a new array of the smallest allocator size class that
// holds need elements. A node's arrays are refitted as it fills (insertAt),
// splits and empties (trim), so each holds what its node holds, not what
// append's doubling left it.
func fit[T any](s []T, need int) []T {
	out := append([]T(nil), make([]T, need)...)
	return out[:copy(out, s)]
}

// insertAt inserts x at s[i]. A full s is refitted with an eighth more
// room: a leaf then moves 4 times between two splits, where growing one
// slot at a time moved it 6 times to hold 3 % fewer bytes per item.
func insertAt[T any](s []T, i int, x T) []T {
	if len(s) == cap(s) {
		s = fit(s, len(s)+len(s)/8+1)
	}
	s = s[:len(s)+1]
	copy(s[i+1:], s[i:])
	s[i] = x
	return s
}

// removeAt deletes s[i] in place and trims s.
func removeAt[T any](s []T, i int) []T { return trim(append(s[:i], s[i+1:]...)) }

// trim refits s once its capacity exceeds len + len/4 + 2. A fit leaves the
// capacity within that bound at every size class, so a node losing items is
// refitted about once per quarter of them.
func trim[T any](s []T) []T {
	if cap(s) > len(s)+len(s)/4+2 {
		return fit(s, len(s))
	}
	return s
}

// insert adds k below n (which must not be full). Returns true if the tree
// grew (false = replaced existing).
func (t *Map[V]) insert(n *node[V], p uint64, k []byte, v V) bool {
	i, ok := t.search(n, p, k)
	if ok {
		n.items[i].val = v
		return false
	}
	if n.leaf() {
		n.items = insertAt(n.items, i, t.newItem(p, k, v))
		return true
	}
	if len(n.children[i].items) >= maxItems {
		n.splitChild(i)
		if c := t.compare(&n.items[i], p, k); c < 0 {
			i++
		} else if c == 0 {
			n.items[i].val = v
			return false
		}
	}
	return t.insert(n.children[i], p, k, v)
}

// Delete removes key k, reporting whether it was present.
func (t *Map[V]) Delete(k []byte) bool {
	if t.root == nil {
		return false
	}
	gone, deleted := t.delete(t.root, Prefix(k), k, false)
	if len(t.root.items) == 0 && !t.root.leaf() {
		t.root = t.root.children[0]
	}
	if len(t.root.items) == 0 && t.root.leaf() {
		t.root = nil
	}
	if deleted {
		t.size--
		if t.dead += max(int(gone.klen)-8, 0); t.dead > len(t.tails)-1-t.dead && t.dead > t.size {
			t.compact()
		}
	}
	return deleted
}

// delete removes k — or, with last set, the largest key — from below n and
// returns its item. Each child is topped up before the descent into it, so
// the node an item leaves never falls below minItems. An internal item is
// replaced by its predecessor, which keeps its own tail.
func (t *Map[V]) delete(n *node[V], p uint64, k []byte, last bool) (item[V], bool) {
	i, ok := len(n.items), false
	if !last {
		i, ok = t.search(n, p, k)
	} else if n.leaf() {
		i, ok = i-1, true
	}
	if n.leaf() {
		if !ok {
			return item[V]{}, false
		}
		gone := n.items[i]
		n.items = removeAt(n.items, i)
		return gone, true
	}
	if len(n.children[i].items) <= minItems {
		// Borrowing or merging moves items across n: resolve k again.
		n.ensureChild(i)
		return t.delete(n, p, k, last)
	}
	if ok {
		gone := n.items[i]
		n.items[i], _ = t.delete(n.children[i], 0, nil, true)
		return gone, true
	}
	return t.delete(n.children[i], p, k, last)
}

// ensureChild guarantees children[i] has > minItems items before descending,
// borrowing from a sibling or merging as needed.
func (n *node[V]) ensureChild(i int) {
	child := n.children[i]
	if len(child.items) > minItems {
		return
	}
	// Borrow from left sibling.
	if i > 0 && len(n.children[i-1].items) > minItems {
		left := n.children[i-1]
		child.items = insertAt(child.items, 0, n.items[i-1])
		n.items[i-1] = left.items[len(left.items)-1]
		left.items = removeAt(left.items, len(left.items)-1)
		if !left.leaf() {
			child.children = insertAt(child.children, 0, left.children[len(left.children)-1])
			left.children = removeAt(left.children, len(left.children)-1)
		}
		return
	}
	// Borrow from right sibling.
	if i < len(n.children)-1 && len(n.children[i+1].items) > minItems {
		right := n.children[i+1]
		child.items = insertAt(child.items, len(child.items), n.items[i])
		n.items[i] = right.items[0]
		right.items = removeAt(right.items, 0)
		if !right.leaf() {
			child.children = insertAt(child.children, len(child.children), right.children[0])
			right.children = removeAt(right.children, 0)
		}
		return
	}
	// Merge with a sibling.
	if i > 0 {
		i--
	}
	left, right := n.children[i], n.children[i+1]
	left.items = append(append(fit(left.items, len(left.items)+1+len(right.items)), n.items[i]), right.items...)
	left.children = append(fit(left.children, len(left.children)+len(right.children)), right.children...)
	n.items = removeAt(n.items, i)
	n.children = removeAt(n.children, i+1)
}

// Ascend visits every entry with lo <= key < hi in order (nil bounds are
// open). Return false from fn to stop early. The keys fn gets are built in an
// arena of this call: immutable, and valid after the walk. fn must not mutate
// the tree — collect keys and apply changes after the walk.
func (t *Map[V]) Ascend(lo, hi []byte, fn func(k []byte, v V) bool) {
	if t.root != nil {
		(&walk[V]{t: t, lo: lo, hi: hi, plo: Prefix(lo), phi: Prefix(hi), fn: fn}).ascend(t.root)
	}
}

// walk is one Ascend call: its bounds and its key arena.
type walk[V any] struct {
	t        *Map[V]
	lo, hi   []byte
	plo, phi uint64
	fn       func(k []byte, v V) bool
	arena    []byte
}

func (w *walk[V]) ascend(n *node[V]) bool {
	start := 0
	if w.lo != nil {
		start, _ = w.t.search(n, w.plo, w.lo)
	}
	for i := start; i <= len(n.items); i++ {
		if !n.leaf() {
			if !w.ascend(n.children[i]) {
				return false
			}
		}
		if i == len(n.items) {
			break
		}
		it := &n.items[i]
		if w.hi != nil && w.t.compare(it, w.phi, w.hi) >= 0 {
			return false
		}
		if w.lo != nil && w.t.compare(it, w.plo, w.lo) < 0 {
			continue
		}
		// A full arena is replaced, never grown: the keys handed out keep
		// the old one.
		if w.arena == nil || cap(w.arena)-len(w.arena) < int(it.klen) {
			w.arena = make([]byte, 0, max(int(it.klen), min(2*cap(w.arena), 64<<10), 256))
		}
		at := len(w.arena)
		w.arena = w.t.appendKey(w.arena, it)
		if !w.fn(w.arena[at:len(w.arena):len(w.arena)], it.val) {
			return false
		}
	}
	return true
}

// appendKey appends the key of it, rebuilt from prefix, length and tail, to dst.
func (t *Map[V]) appendKey(dst []byte, it *item[V]) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], it.pfx)
	return append(append(dst, b[:min(it.klen, 8)]...), t.tails[it.tail:it.tail+max(it.klen, 8)-8]...)
}

// Min returns a copy of the smallest key, or nil when empty.
func (t *Map[V]) Min() (k []byte) {
	t.Ascend(nil, nil, func(key []byte, _ V) bool { k = key; return false })
	return k
}

// Max returns a copy of the largest key, or nil when empty.
func (t *Map[V]) Max() []byte {
	if t.root == nil {
		return nil
	}
	n := t.root
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	it := &n.items[len(n.items)-1]
	return t.appendKey(make([]byte, 0, it.klen), it)
}
