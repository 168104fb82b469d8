package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// model is the reference the tree is checked against: entries in a slice
// kept sorted by bytes.Compare, which never looks at a prefix.
type model struct {
	t   testing.TB
	m   *Map[uint64]
	ref []entry
	seq uint64 // source of distinct values
	// maxHeight is the tallest the tree has been at a check.
	maxHeight int
}

type entry struct {
	k []byte
	v uint64
}

func newModel(t testing.TB) *model { return &model{t: t, m: New[uint64]()} }

// find returns the index of the first entry with key >= k and whether it is k.
func (h *model) find(k []byte) (int, bool) {
	i := sort.Search(len(h.ref), func(i int) bool { return bytes.Compare(h.ref[i].k, k) >= 0 })
	return i, i < len(h.ref) && bytes.Equal(h.ref[i].k, k)
}

func (h *model) set(k []byte) {
	h.seq++
	h.m.Set(bytes.Clone(k), h.seq)
	i, ok := h.find(k)
	if !ok {
		h.ref = append(h.ref, entry{})
		copy(h.ref[i+1:], h.ref[i:])
		h.ref[i].k = bytes.Clone(k)
	}
	h.ref[i].v = h.seq
	h.fits()
	h.get(k)
}

func (h *model) delete(k []byte) {
	i, want := h.find(k)
	if got := h.m.Delete(k); got != want {
		h.t.Fatalf("Delete(%q) = %v, model says %v", k, got, want)
	}
	if want {
		h.ref = append(h.ref[:i], h.ref[i+1:]...)
	}
	h.fits()
	h.get(k)
}

// fits checks the capacity rule on every node: no array holds more than
// len + len/4 + 2 slots, so neither growth nor a split, borrow or merge
// leaves a node paying for items it does not hold.
func (h *model) fits() {
	var walk func(n *node[uint64])
	walk = func(n *node[uint64]) {
		if l, c := len(n.items), cap(n.items); c > l+l/4+2 {
			h.t.Fatalf("node holds %d items in a %d-item array", l, c)
		}
		if l, c := len(n.children), cap(n.children); c > l+l/4+2 {
			h.t.Fatalf("node holds %d children in a %d-child array", l, c)
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	if h.m.root != nil {
		walk(h.m.root)
	}
}

// get checks Get and Ref for k, then rewrites a present value through the
// Ref pointer the way an update-in-place caller does.
func (h *model) get(k []byte) {
	i, want := h.find(k)
	v, ok := h.m.Get(k)
	p := h.m.Ref(k)
	if ok != want || (p != nil) != want {
		h.t.Fatalf("Get(%q) present=%v, Ref present=%v, model says %v", k, ok, p != nil, want)
	}
	if !want {
		return
	}
	if v != h.ref[i].v || *p != v {
		h.t.Fatalf("Get(%q) = %d, *Ref = %d, model says %d", k, v, *p, h.ref[i].v)
	}
	h.seq++
	*p = h.seq
	h.ref[i].v = h.seq
}

// ascend checks Ascend(lo, hi) stopped after limit entries (0 = no limit).
func (h *model) ascend(lo, hi []byte, limit int) {
	var want []entry
	for _, e := range h.ref {
		if lo != nil && bytes.Compare(e.k, lo) < 0 {
			continue
		}
		if hi != nil && bytes.Compare(e.k, hi) >= 0 {
			break
		}
		want = append(want, e)
		if len(want) == limit {
			break
		}
	}
	n := 0
	h.m.Ascend(lo, hi, func(k []byte, v uint64) bool {
		if n >= len(want) {
			h.t.Fatalf("Ascend(%q, %q) visited %q beyond the model's %d entries", lo, hi, k, len(want))
		}
		if !bytes.Equal(k, want[n].k) || v != want[n].v {
			h.t.Fatalf("Ascend(%q, %q) entry %d = %q:%d, model says %q:%d", lo, hi, n, k, v, want[n].k, want[n].v)
		}
		n++
		return n != limit
	})
	if n != len(want) {
		h.t.Fatalf("Ascend(%q, %q) visited %d entries, model says %d", lo, hi, n, len(want))
	}
}

// check compares the whole tree with the model and walks its structure in
// key order: every item's pfx, klen and tail describe the model's key at its
// position (a moved or hoisted item keeps them), the long keys' tails lie in
// the arena without overlap and every other arena byte is counted dead,
// node fill is within B-tree bounds and all leaves sit at one depth.
func (h *model) check() {
	if h.m.Len() != len(h.ref) {
		h.t.Fatalf("Len = %d, model has %d", h.m.Len(), len(h.ref))
	}
	h.ascend(nil, nil, 0)
	var min, max []byte
	if len(h.ref) > 0 {
		min, max = h.ref[0].k, h.ref[len(h.ref)-1].k
	}
	for _, end := range []struct {
		name      string
		got, want []byte
	}{{"Min", h.m.Min(), min}, {"Max", h.m.Max(), max}} {
		if !bytes.Equal(end.got, end.want) || (end.got == nil) != (end.want == nil) {
			h.t.Fatalf("%s = %q, model says %q", end.name, end.got, end.want)
		}
	}
	if h.m.root == nil {
		h.checkTails(nil)
		return
	}
	leafDepth, pos, held := -1, 0, [][2]int{}
	var walk func(n *node[uint64], depth int)
	walk = func(n *node[uint64], depth int) {
		if len(n.items) > maxItems || (n != h.m.root && len(n.items) < minItems) {
			h.t.Fatalf("node at depth %d holds %d items", depth, len(n.items))
		}
		if !n.leaf() && len(n.children) != len(n.items)+1 {
			h.t.Fatalf("node with %d items has %d children", len(n.items), len(n.children))
		}
		for i := range n.items {
			if !n.leaf() {
				walk(n.children[i], depth+1)
			}
			it, k := n.items[i], h.ref[pos].k
			pos++
			if it.pfx != Prefix(k) || it.klen != uint32(len(k)) || (it.tail != 0) != (len(k) > 8) {
				h.t.Fatalf("item for %q carries pfx %016x klen %d tail %d; its Prefix is %016x", k, it.pfx, it.klen, it.tail, Prefix(k))
			}
			if len(k) > 8 {
				if end := int(it.tail) + len(k) - 8; end > len(h.m.tails) || !bytes.Equal(h.m.tails[it.tail:end], k[8:]) {
					h.t.Fatalf("item for %q holds tail [%d, %d) of a %d-byte arena", k, it.tail, end, len(h.m.tails))
				}
				held = append(held, [2]int{int(it.tail), int(it.tail) + len(k) - 8})
			}
		}
		if n.leaf() {
			if leafDepth < 0 {
				leafDepth = depth
			}
			if depth != leafDepth {
				h.t.Fatalf("leaves at depths %d and %d", leafDepth, depth)
			}
			return
		}
		walk(n.children[len(n.items)], depth+1)
	}
	walk(h.m.root, 1)
	h.checkTails(held)
	if leafDepth > h.maxHeight {
		h.maxHeight = leafDepth
	}
}

// checkTails checks the tail arena against the spans the long keys' items
// hold: they start past the reserved byte and do not overlap, their bytes
// are as many as the model's long keys' tails, and the rest of the arena is
// what the tree counts dead.
func (h *model) checkTails(held [][2]int) {
	long := 0
	for _, e := range h.ref {
		if len(e.k) > 8 {
			long += len(e.k) - 8
		}
	}
	slices.SortFunc(held, func(a, b [2]int) int { return a[0] - b[0] })
	live, end := 0, 1
	for _, s := range held {
		if s[0] < end {
			h.t.Fatalf("tail [%d, %d) overlaps the reserved byte or the tail before it", s[0], s[1])
		}
		live, end = live+s[1]-s[0], s[1]
	}
	if live != long || len(h.m.tails)-1-h.m.dead != live {
		h.t.Fatalf("arena of %d bytes, %d dead, holds %d live tail bytes; the model's long keys have %d", len(h.m.tails), h.m.dead, live, long)
	}
}

// tieKeys are the shapes a prefix-first compare can get wrong: long runs of
// keys that share all 8 prefix bytes and differ only past them (in tail and
// in length), keys shorter than 8 bytes whose zero padding makes distinct
// keys' prefixes equal ("a", "a\x00", "a\x00\x00", …; the empty key and runs
// of zero bytes), all-0xFF keys, and plain random 8-byte keys around them.
func tieKeys() [][]byte {
	rng := rand.New(rand.NewSource(20))
	var keys [][]byte
	for g := 0; g < 12; g++ {
		pfx := make([]byte, 8)
		rng.Read(pfx)
		if g == 0 {
			pfx = bytes.Repeat([]byte{0xFF}, 8)
		}
		keys = append(keys, pfx)
		// 400 keys per run: a run spans several leaves, so separators hoisted
		// into internal nodes sit inside it.
		for i := 0; i < 400; i++ {
			tail := make([]byte, 1+rng.Intn(16))
			rng.Read(tail)
			switch i % 8 {
			case 0:
				tail = make([]byte, 1+i/8%9)
			case 4:
				tail = bytes.Repeat([]byte{0xFF}, 1+i/8%9)
			}
			keys = append(keys, append(bytes.Clone(pfx), tail...))
		}
	}
	for _, head := range []string{"", "a", "ab", "\xff", "\xff\xff\xff"} {
		for pad := 0; pad <= 12; pad++ {
			keys = append(keys, append([]byte(head), make([]byte, pad)...))
		}
	}
	for i := 0; i < 1500; i++ {
		k := make([]byte, 8)
		rng.Read(k)
		keys = append(keys, k[:1+rng.Intn(8)])
	}
	slices.SortFunc(keys, bytes.Compare)
	return slices.CompactFunc(keys, bytes.Equal)
}

// decimalKeys is the key set the package's first reference-model test used.
func decimalKeys() [][]byte {
	keys := make([][]byte, 5000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("%05d", i))
	}
	return keys
}

// TestAgainstReferenceModel drives Set/Get/Ref/Delete/Ascend/Min/Max against
// the sorted-slice model: grow until the tree is three levels deep, shrink
// until it has merged back to nothing, grow again.
func TestAgainstReferenceModel(t *testing.T) {
	for _, tc := range []struct {
		name string
		keys [][]byte
	}{
		{"decimal", decimalKeys()},
		{"ties", tieKeys()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newModel(t)
			rng := rand.New(rand.NewSource(77))
			pick := func() []byte { return tc.keys[rng.Intn(len(tc.keys))] }
			// Len moves by at most one per op, so each phase ends exactly at its
			// target: grow to it setting 95 % of the time, shrink to empty at 15 %.
			for _, target := range []int{len(tc.keys) * 4 / 5, 0, len(tc.keys) / 2, 0} {
				grow, setPct := target > 0, 15
				if grow {
					setPct = 95
				}
				for op := 0; h.m.Len() != target; op++ {
					switch r := rng.Intn(100); {
					case r < 4:
						lo, hi := pick(), pick()
						if bytes.Compare(lo, hi) > 0 && r > 0 { // r == 0 keeps inverted bounds: an empty walk
							lo, hi = hi, lo
						}
						h.ascend(lo, hi, rng.Intn(3)*rng.Intn(50))
					case r < 6:
						h.ascend(pick(), nil, 1+rng.Intn(100))
					case r < 8:
						h.ascend(nil, pick(), 0)
					case r < 12:
						h.get(pick())
					case r < 12+setPct*88/100:
						h.set(pick())
					case grow:
						h.delete(pick()) // present or not
					default:
						// A shrink phase must reach empty: delete a present key.
						h.delete(h.ref[rng.Intn(len(h.ref))].k)
					}
					if op%2000 == 0 {
						h.check()
					}
				}
				h.check()
			}
			if h.maxHeight < 3 {
				t.Fatalf("tree never grew past %d levels; splits above the leaves went unexercised", h.maxHeight)
			}
		})
	}
}

// Fuzz op stream: one byte picks the operation, then one or two keys. A key
// is a length byte and that many literal bytes, or — high bit set — a
// two-byte index into tieKeys, so a short input can reach deep into a tie
// run of the preloaded tree.
const (
	fuzzSet = iota
	fuzzDelete
	fuzzGet
	fuzzAscend
	fuzzAscendFrom
	fuzzAscendTo
	fuzzOps
)

func fuzzKey(in *[]byte, pool [][]byte) []byte {
	b := *in
	if len(b) == 0 {
		return []byte{}
	}
	n := int(b[0])
	b = b[1:]
	if n&0x80 != 0 && len(b) >= 2 {
		*in = b[2:]
		return pool[int(binary.BigEndian.Uint16(b))%len(pool)]
	}
	if n &= 0x1F; n > len(b) {
		n = len(b)
	}
	*in = b[n:]
	return b[:n:n]
}

func fuzzLiteral(kind byte, keys ...string) []byte {
	out := []byte{kind}
	for _, k := range keys {
		out = append(append(out, byte(len(k))), k...)
	}
	return out
}

// FuzzMapAgainstModel runs a fuzzer-chosen op stream against the same model,
// on an empty tree or (first byte odd) one preloaded with every tieKeys key.
func FuzzMapAgainstModel(f *testing.F) {
	pool := tieKeys()
	seed := []byte{0}
	for _, k := range []string{"a", "a\x00", "a\x00\x00", "", "\x00", "\xff\xff\xff\xff\xff\xff\xff\xff", "\xff\xff\xff\xff\xff\xff\xff\xff\xff", "prefix00tail-1", "prefix00tail-2", "prefix00"} {
		seed = append(seed, fuzzLiteral(fuzzSet, k)...)
	}
	seed = append(seed, fuzzLiteral(fuzzDelete, "a\x00")...)
	seed = append(seed, fuzzLiteral(fuzzGet, "a\x00\x00")...)
	seed = append(seed, fuzzLiteral(fuzzAscend, "a", "prefix00tail-2")...)
	seed = append(seed, fuzzLiteral(fuzzAscendFrom, "prefix00t")...)
	seed = append(seed, fuzzLiteral(fuzzAscendTo, "a\x00\x00\x00")...)
	f.Add(seed)
	// Against the preloaded tree: delete through a tie run by pool index.
	deep := []byte{1}
	for i := 0; i < 300; i++ {
		deep = append(deep, fuzzDelete, 0x80, byte((1000+i)>>8), byte(1000+i))
	}
	deep = append(deep, fuzzAscend, 0x80, 0, 100, 0x80, 1, 100)
	f.Add(deep)
	f.Add([]byte{1, fuzzAscendFrom, 8, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, fuzzDelete, 0, fuzzSet, 0})

	f.Fuzz(func(t *testing.T, in []byte) {
		h := newModel(t)
		if len(in) > 0 && in[0]&1 != 0 {
			// pool is sorted and duplicate-free: it is the model as it stands.
			for _, k := range pool {
				h.seq++
				h.m.Set(k, h.seq)
				h.ref = append(h.ref, entry{k, h.seq})
			}
		}
		if len(in) > 0 {
			in = in[1:]
		}
		for len(in) > 0 {
			kind := in[0] % fuzzOps
			in = in[1:]
			k := fuzzKey(&in, pool)
			switch kind {
			case fuzzSet:
				h.set(k)
			case fuzzDelete:
				h.delete(k)
			case fuzzGet:
				h.get(k)
			case fuzzAscend:
				h.ascend(k, fuzzKey(&in, pool), 0)
			case fuzzAscendFrom:
				h.ascend(k, nil, 64)
			case fuzzAscendTo:
				h.ascend(nil, k, 0)
			}
		}
		h.check()
	})
}
