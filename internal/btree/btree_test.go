package btree

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
)

func TestSetGetDelete(t *testing.T) {
	m := New[int]()
	for i := 0; i < 1000; i++ {
		m.Set([]byte(fmt.Sprintf("%04d", i)), i)
	}
	if m.Len() != 1000 {
		t.Fatalf("len = %d", m.Len())
	}
	for i := 0; i < 1000; i++ {
		v, ok := m.Get([]byte(fmt.Sprintf("%04d", i)))
		if !ok || v != i {
			t.Fatalf("get %d = %d %v", i, v, ok)
		}
	}
	for i := 0; i < 1000; i += 2 {
		if !m.Delete([]byte(fmt.Sprintf("%04d", i))) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if m.Len() != 500 {
		t.Fatalf("len after deletes = %d", m.Len())
	}
	for i := 0; i < 1000; i++ {
		_, ok := m.Get([]byte(fmt.Sprintf("%04d", i)))
		if ok != (i%2 == 1) {
			t.Fatalf("key %d presence = %v", i, ok)
		}
	}
	if m.Delete([]byte("0000")) {
		t.Fatal("double delete returned true")
	}
}

func TestOverwrite(t *testing.T) {
	m := New[string]()
	m.Set([]byte("k"), "v1")
	m.Set([]byte("k"), "v2")
	if m.Len() != 1 {
		t.Fatalf("len = %d", m.Len())
	}
	if v, _ := m.Get([]byte("k")); v != "v2" {
		t.Fatalf("v = %s", v)
	}
}

func TestAscendRange(t *testing.T) {
	m := New[int]()
	for i := 0; i < 100; i++ {
		m.Set([]byte(fmt.Sprintf("%03d", i)), i)
	}
	var got []int
	m.Ascend([]byte("010"), []byte("020"), func(k []byte, v int) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 10 || got[0] != 10 || got[9] != 19 {
		t.Fatalf("got %v", got)
	}
	// Early stop.
	got = nil
	m.Ascend(nil, nil, func(k []byte, v int) bool {
		got = append(got, v)
		return len(got) < 5
	})
	if len(got) != 5 {
		t.Fatalf("early stop got %d", len(got))
	}
	// Unbounded walks all, in order.
	got = nil
	m.Ascend(nil, nil, func(k []byte, v int) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 100 || !sort.IntsAreSorted(got) {
		t.Fatalf("full ascend = %d entries sorted=%v", len(got), sort.IntsAreSorted(got))
	}
}

func TestMinMax(t *testing.T) {
	m := New[int]()
	if m.Min() != nil || m.Max() != nil {
		t.Fatal("empty tree min/max should be nil")
	}
	for _, k := range []string{"m", "c", "z", "a", "q"} {
		m.Set([]byte(k), 0)
	}
	if string(m.Min()) != "a" || string(m.Max()) != "z" {
		t.Fatalf("min=%q max=%q", m.Min(), m.Max())
	}
}

func TestQuickSetThenGet(t *testing.T) {
	m := New[int]()
	i := 0
	prop := func(key []byte) bool {
		if len(key) == 0 {
			return true
		}
		i++
		m.Set(append([]byte(nil), key...), i)
		v, ok := m.Get(key)
		return ok && v == i
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeSequentialAndReverse(t *testing.T) {
	// Sequential insert then reverse delete stresses rebalancing.
	m := New[int]()
	const n = 50000
	for i := 0; i < n; i++ {
		m.Set(keyOf(i), i)
	}
	for i := n - 1; i >= 0; i-- {
		if !m.Delete(keyOf(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if m.Len() != 0 {
		t.Fatalf("len = %d", m.Len())
	}
}

func keyOf(i int) []byte {
	b := make([]byte, 8)
	for j := 7; j >= 0; j-- {
		b[j] = byte(i)
		i >>= 8
	}
	return b
}

func BenchmarkBTreeSet(b *testing.B) {
	m := New[int]()
	for i := 0; i < b.N; i++ {
		m.Set(keyOf(i), i)
	}
}

func TestBytesKeysNotAliased(t *testing.T) {
	m := New[int]()
	k := []byte("mutable")
	m.Set(bytes.Clone(k), 1)
	k[0] = 'X'
	if _, ok := m.Get([]byte("mutable")); !ok {
		t.Fatal("stored key should be intact")
	}
}

// TestHandedOutKeysOutliveTailReuse keeps the keys Ascend, Min and Max hand
// out, then deletes their entries, which rewrites the tail arena, and sets
// new long keys into the rewritten arena: the kept keys must not change.
func TestHandedOutKeysOutliveTailReuse(t *testing.T) {
	m := New[int]()
	long := func(i int) []byte { return []byte(fmt.Sprintf("prefix%02d-tail-%06d", i%7, i)) }
	for i := 0; i < 500; i++ {
		m.Set(long(i), i)
		m.Set(keyOf(i), i)
	}
	var kept, want [][]byte
	m.Ascend(nil, nil, func(k []byte, _ int) bool {
		kept = append(kept, k)
		want = append(want, bytes.Clone(k))
		return true
	})
	kept = append(kept, m.Min(), m.Max())
	want = append(want, bytes.Clone(m.Min()), bytes.Clone(m.Max()))
	grown := len(m.tails)
	for i := 0; i < 500; i++ {
		m.Delete(long(i))
		m.Delete(keyOf(i))
	}
	for i := 0; i < 500; i++ {
		m.Set(long(1000+i), i)
	}
	if len(m.tails) > grown {
		t.Fatalf("tail arena grew from %d to %d bytes: deletes never rewrote it", grown, len(m.tails))
	}
	for i := range kept {
		if !bytes.Equal(kept[i], want[i]) {
			t.Fatalf("handed-out key %d changed from %q to %q", i, want[i], kept[i])
		}
	}
}

// mallocsPerCall counts the heap allocations n calls of f make, divided in
// floating point: testing.AllocsPerRun divides in integers, so it reads any
// rate below one per call as 0.
func mallocsPerCall(n int, f func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// TestSetAllocatesNoKey: a key's bytes cost Set no allocation of their own —
// an 8-byte key lives inside its item, a longer key's tail goes into the
// tree's arena — so a new 24-byte key allocates no more per Set than a new
// 8-byte key inserted in the same order, whose allocations are the nodes'.
// A lookup allocates nothing.
func TestSetAllocatesNoKey(t *testing.T) {
	const n = 20000
	short, long := make([][]byte, n), make([][]byte, n)
	for i := range short {
		short[i] = keyOf(i)
		long[i] = append(keyOf(i), "-sixteen-bytes--"...)
	}
	perSet := func(keys [][]byte) float64 {
		m := New[[3]uint64]()
		return mallocsPerCall(n, func(i int) { m.Set(keys[i], [3]uint64{}) })
	}
	a8, a24 := perSet(short), perSet(long)
	t.Logf("Set of a new key: %.4f allocations per call at 8 bytes, %.4f at 24", a8, a24)
	if a24-a8 >= 0.05 {
		t.Fatalf("Set of a new 24-byte key: %.4f allocations per call, %.4f more than an 8-byte key's; want < 0.05 more", a24, a24-a8)
	}
	m := New[[3]uint64]()
	for _, k := range short {
		m.Set(k, [3]uint64{})
	}
	k := keyOf(777)
	// The count is the process's, so another goroutine's stray allocation
	// shows as a fraction; one per lookup would show as 1.
	if a := mallocsPerCall(1000, func(int) { m.Get(k); m.Ref(k) }); a >= 0.05 {
		t.Fatalf("Get+Ref: %.4f allocations per call, want 0", a)
	}
}
