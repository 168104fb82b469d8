package block

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"hyperdb/internal/keys"
)

func ik(user string, seq uint64) keys.InternalKey {
	return keys.InternalKey{User: []byte(user), Seq: seq, Kind: keys.KindSet}
}

func TestBuildIterate(t *testing.T) {
	b := NewBuilder(4)
	var want []string
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%03d", i)
		want = append(want, k)
		b.Add(ik(k, uint64(i)), []byte("val-"+k))
	}
	if b.Count() != 100 {
		t.Fatalf("count = %d", b.Count())
	}
	data := b.Finish()
	it, err := NewIter(data)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for it.First(); it.Valid(); it.Next() {
		if string(it.Key().User) != want[i] {
			t.Fatalf("entry %d: got %q want %q", i, it.Key().User, want[i])
		}
		if string(it.Value()) != "val-"+want[i] {
			t.Fatalf("entry %d: wrong value %q", i, it.Value())
		}
		if it.Key().Seq != uint64(i) {
			t.Fatalf("entry %d: seq = %d", i, it.Key().Seq)
		}
		i++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if i != 100 {
		t.Fatalf("iterated %d entries", i)
	}
}

func TestPrefixCompressionShrinks(t *testing.T) {
	long := NewBuilder(16)
	flat := 0
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("very/long/common/prefix/key-%06d", i)
		long.Add(ik(k, 1), []byte("v"))
		flat += len(k) + 8 + 1
	}
	if got := len(long.Finish()); got >= flat {
		t.Fatalf("prefix compression ineffective: %d >= %d", got, flat)
	}
}

func TestSeekGE(t *testing.T) {
	b := NewBuilder(4)
	for i := 0; i < 50; i++ {
		b.Add(ik(fmt.Sprintf("k%03d", i*2), 1), nil) // even keys only
	}
	it, err := NewIter(b.Finish())
	if err != nil {
		t.Fatal(err)
	}
	// Exact hit.
	it.SeekGE(keys.MakeSearchKey([]byte("k020"), keys.MaxSeq))
	if !it.Valid() || string(it.Key().User) != "k020" {
		t.Fatalf("seek exact: %v", it.Key())
	}
	// Between keys: lands on next.
	it.SeekGE(keys.MakeSearchKey([]byte("k021"), keys.MaxSeq))
	if !it.Valid() || string(it.Key().User) != "k022" {
		t.Fatalf("seek between: %v", it.Key())
	}
	// Before first.
	it.SeekGE(keys.MakeSearchKey([]byte("a"), keys.MaxSeq))
	if !it.Valid() || string(it.Key().User) != "k000" {
		t.Fatalf("seek before: %v", it.Key())
	}
	// Past last.
	it.SeekGE(keys.MakeSearchKey([]byte("z"), keys.MaxSeq))
	if it.Valid() {
		t.Fatal("seek past end should be invalid")
	}
}

func TestSeekGEVersions(t *testing.T) {
	// Multiple versions of one key: seek at a snapshot lands on the newest
	// version visible.
	b := NewBuilder(16)
	b.Add(keys.InternalKey{User: []byte("k"), Seq: 30, Kind: keys.KindSet}, []byte("v30"))
	b.Add(keys.InternalKey{User: []byte("k"), Seq: 20, Kind: keys.KindDelete}, nil)
	b.Add(keys.InternalKey{User: []byte("k"), Seq: 10, Kind: keys.KindSet}, []byte("v10"))
	it, _ := NewIter(b.Finish())

	it.SeekGE(keys.MakeSearchKey([]byte("k"), keys.MaxSeq))
	if !it.Valid() || it.Key().Seq != 30 {
		t.Fatalf("snapshot max: %v", it.Key())
	}
	it.SeekGE(keys.MakeSearchKey([]byte("k"), 25))
	if !it.Valid() || it.Key().Seq != 20 || it.Key().Kind != keys.KindDelete {
		t.Fatalf("snapshot 25: %v", it.Key())
	}
	it.SeekGE(keys.MakeSearchKey([]byte("k"), 15))
	if !it.Valid() || it.Key().Seq != 10 {
		t.Fatalf("snapshot 15: %v", it.Key())
	}
}

func TestEmptyValues(t *testing.T) {
	b := NewBuilder(0)
	b.Add(ik("a", 1), nil)
	b.Add(ik("b", 2), []byte{})
	it, err := NewIter(b.Finish())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for it.First(); it.Valid(); it.Next() {
		if len(it.Value()) != 0 {
			t.Fatalf("value = %q", it.Value())
		}
		n++
	}
	if n != 2 {
		t.Fatalf("n = %d", n)
	}
}

func TestBuilderReset(t *testing.T) {
	b := NewBuilder(4)
	b.Add(ik("x", 1), []byte("v"))
	b.Finish()
	b.Reset()
	if b.Count() != 0 || b.FirstUserKey() != nil {
		t.Fatal("reset incomplete")
	}
	b.Add(ik("a", 1), []byte("v"))
	it, err := NewIter(b.Finish())
	if err != nil {
		t.Fatal(err)
	}
	it.First()
	if !it.Valid() || string(it.Key().User) != "a" {
		t.Fatal("reuse after reset broken")
	}
}

// TestAddAllocatesOnlyTheBounds: a reused builder encodes each key into a
// buffer it keeps, so a block of 16 entries costs two allocations (the
// first and last user keys, which outlive Reset), and its bytes are a
// fresh builder's.
func TestAddAllocatesOnlyTheBounds(t *testing.T) {
	var ks []keys.InternalKey
	for i := 0; i < 16; i++ {
		ks = append(ks, ik(fmt.Sprintf("user/key-%04d", i*37), uint64(100-i)))
	}
	fill := func(b *Builder) {
		b.Reset()
		for _, k := range ks {
			b.Add(k, []byte("value"))
		}
	}
	b, fresh := NewBuilder(4), NewBuilder(4)
	fill(b)
	if a := testing.AllocsPerRun(100, func() { fill(b) }); a > 2 {
		t.Fatalf("a 16-entry block: %.0f allocations, want 2", a)
	}
	fill(fresh)
	if !bytes.Equal(b.Finish(), fresh.Finish()) {
		t.Fatal("a reused builder's block differs from a fresh builder's")
	}
}

func TestMalformedBlocks(t *testing.T) {
	for _, data := range [][]byte{nil, {1}, {0, 0, 0, 99}, bytes.Repeat([]byte{7}, 12)} {
		if _, err := NewIter(data); err == nil {
			// A 12-byte garbage block may parse as a handle but must fail
			// during iteration instead.
			it, _ := NewIter(data)
			if it != nil {
				for it.First(); it.Valid(); it.Next() {
				}
				if it.Err() == nil {
					t.Fatalf("malformed block %v accepted silently", data)
				}
			}
		}
	}
}

func TestFirstLastUserKey(t *testing.T) {
	b := NewBuilder(4)
	b.Add(ik("aaa", 1), nil)
	b.Add(ik("mmm", 1), nil)
	b.Add(ik("zzz", 1), nil)
	if string(b.FirstUserKey()) != "aaa" || string(b.LastUserKey()) != "zzz" {
		t.Fatalf("bounds = %q..%q", b.FirstUserKey(), b.LastUserKey())
	}
}

func TestRandomizedRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(300)
		ks := make([]string, 0, n)
		seen := map[string]bool{}
		for len(ks) < n {
			k := fmt.Sprintf("%x", rng.Int63())
			if !seen[k] {
				seen[k] = true
				ks = append(ks, k)
			}
		}
		sort.Strings(ks)
		b := NewBuilder(1 + rng.Intn(20))
		vals := map[string][]byte{}
		for _, k := range ks {
			v := make([]byte, rng.Intn(64))
			rng.Read(v)
			vals[k] = v
			b.Add(ik(k, uint64(rng.Intn(1000))), v)
		}
		it, err := NewIter(b.Finish())
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		for it.First(); it.Valid(); it.Next() {
			if string(it.Key().User) != ks[i] {
				t.Fatalf("trial %d entry %d: %q != %q", trial, i, it.Key().User, ks[i])
			}
			if !bytes.Equal(it.Value(), vals[ks[i]]) {
				t.Fatalf("trial %d entry %d: value mismatch", trial, i)
			}
			i++
		}
		if i != n {
			t.Fatalf("trial %d: %d/%d entries", trial, i, n)
		}
		// Seek every key.
		for _, k := range ks {
			it.SeekGE(keys.MakeSearchKey([]byte(k), keys.MaxSeq))
			if !it.Valid() || string(it.Key().User) != k {
				t.Fatalf("trial %d: seek %q failed", trial, k)
			}
		}
	}
}

func TestCountHelper(t *testing.T) {
	b := NewBuilder(4)
	for i := 0; i < 37; i++ {
		b.Add(ik(fmt.Sprintf("k%02d", i), 1), nil)
	}
	n, err := Count(b.Finish())
	if err != nil || n != 37 {
		t.Fatalf("count = %d err=%v", n, err)
	}
}
