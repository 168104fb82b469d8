package bloom

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNoFalseNegatives(t *testing.T) {
	f := New(1000, 10)
	for i := 0; i < 1000; i++ {
		f.Add([]byte(fmt.Sprintf("key-%d", i)))
	}
	for i := 0; i < 1000; i++ {
		if !f.Contains([]byte(fmt.Sprintf("key-%d", i))) {
			t.Fatalf("false negative for key-%d", i)
		}
	}
}

func TestFalsePositiveRate(t *testing.T) {
	// The paper's configuration: 10 bits/key keeps FP under 1%.
	f := New(10000, 10)
	for i := 0; i < 10000; i++ {
		f.Add([]byte(fmt.Sprintf("in-%d", i)))
	}
	fp := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		if f.Contains([]byte(fmt.Sprintf("out-%d", i))) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 0.02 {
		t.Fatalf("false positive rate %.4f exceeds 2%% (paper target <1%%)", rate)
	}
}

func TestInsertedCountsDistinct(t *testing.T) {
	f := New(100, 10)
	f.Add([]byte("a"))
	f.Add([]byte("a")) // duplicate: no bits flip
	f.Add([]byte("b"))
	if f.Inserted() != 2 {
		t.Fatalf("inserted = %d, want 2", f.Inserted())
	}
}

func TestFull(t *testing.T) {
	f := New(10, 10)
	for i := 0; !f.Full(); i++ {
		f.Add([]byte(fmt.Sprintf("k%d", i)))
		if i > 100 {
			t.Fatal("filter never filled")
		}
	}
	if f.Inserted() < 10 {
		t.Fatalf("full at %d inserts, capacity 10", f.Inserted())
	}
}

func TestMarshalRoundtrip(t *testing.T) {
	f := New(500, 10)
	for i := 0; i < 300; i++ {
		f.Add([]byte(fmt.Sprintf("key-%d", i)))
	}
	g, err := Unmarshal(f.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if g.Inserted() != f.Inserted() || g.Capacity() != f.Capacity() {
		t.Fatal("metadata lost in roundtrip")
	}
	for i := 0; i < 300; i++ {
		if !g.Contains([]byte(fmt.Sprintf("key-%d", i))) {
			t.Fatalf("roundtrip lost key-%d", i)
		}
	}
}

func TestUnmarshalMalformed(t *testing.T) {
	// A well-framed filter that claims zero bits, or a hash count New never
	// produces, would divide by zero or spin when probed.
	zeroBits := New(100, 10).Marshal()
	copy(zeroBits[0:8], make([]byte, 8))
	manyHashes := New(100, 10).Marshal()
	manyHashes[8+3] = 0xff
	for _, data := range [][]byte{nil, {1, 2}, make([]byte, 33), make([]byte, 40), zeroBits, manyHashes} {
		if _, err := Unmarshal(data); err == nil {
			t.Fatalf("expected error for %d bytes", len(data))
		}
	}
}

func TestReset(t *testing.T) {
	f := New(100, 10)
	f.Add([]byte("x"))
	f.Reset()
	if f.Inserted() != 0 {
		t.Fatal("reset did not clear inserted")
	}
	if f.FillRatio() != 0 {
		t.Fatal("reset did not clear bits")
	}
}

func TestFillRatioGrows(t *testing.T) {
	f := New(1000, 10)
	prev := f.FillRatio()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5; i++ {
		for j := 0; j < 200; j++ {
			b := make([]byte, 8)
			rng.Read(b)
			f.Add(b)
		}
		cur := f.FillRatio()
		if cur <= prev {
			t.Fatalf("fill ratio did not grow: %f -> %f", prev, cur)
		}
		prev = cur
	}
	if prev > 0.6 {
		t.Fatalf("fill ratio %f too high for capacity inserts", prev)
	}
}

func TestQuickAddedAlwaysContained(t *testing.T) {
	f := New(4096, 10)
	prop := func(key []byte) bool {
		f.Add(key)
		return f.Contains(key)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTinyAndDegenerateSizes(t *testing.T) {
	f := New(0, 0) // clamped to minimums
	f.Add([]byte("k"))
	if !f.Contains([]byte("k")) {
		t.Fatal("degenerate filter lost its key")
	}
}

// TestHashVariantsMatchKeyVariants: AddHash/ContainsHash with Hash64 must
// behave identically to Add/Contains — the hotness tracker hashes each key
// once and routes the same 64-bit value to every probe.
func TestHashVariantsMatchKeyVariants(t *testing.T) {
	byKey, byHash := New(1024, 10), New(1024, 10)
	for i := 0; i < 2000; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		if byKey.Add(key) != byHash.AddHash(Hash64(key)) {
			t.Fatalf("Add/AddHash disagree on %q", key)
		}
	}
	for i := 0; i < 4000; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		if byKey.Contains(key) != byHash.ContainsHash(Hash64(key)) {
			t.Fatalf("Contains/ContainsHash disagree on %q", key)
		}
	}
	if byKey.Inserted() != byHash.Inserted() {
		t.Fatalf("insert counters diverged: %d vs %d", byKey.Inserted(), byHash.Inserted())
	}
}

// TestReduceMatchesModulo checks the divide-free reduction against % at the
// edges of its range: x from 0 to 2^32-1, and filter sizes that are small,
// odd, prime, powers of two and the largest it covers, and past it, where
// it divides.
func TestReduceMatchesModulo(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := []uint32{0, 1, 2, 63, 64, 65, 1<<31 - 1, 1 << 31, 1<<32 - 2, 1<<32 - 1}
	for i := 0; i < 200; i++ {
		xs = append(xs, rng.Uint32())
	}
	for _, nbits := range []uint64{1, 2, 63, 64, 65, 97, 1000, 1009, 65537, 1000003, 1 << 31, 1<<31 + 11, 4294967291, 1<<32 - 1, 1 << 32, 1<<40 + 7} {
		f := &Filter{nbits: nbits, mod: multiplier(nbits)}
		for _, x := range xs {
			if got, want := f.reduce(x), uint64(x)%nbits; got != want {
				t.Fatalf("reduce(%d) over %d bits = %d, want %d", x, nbits, got, want)
			}
		}
	}
}

// TestMarshalMatchesModuloReference: a filter of 10 k keys sets the bits a
// reference that probes with % sets, so filters written before the
// divide-free probe read the same.
func TestMarshalMatchesModuloReference(t *testing.T) {
	f := New(10000, 10)
	ref := make([]uint64, len(f.bits))
	var inserted uint64
	for i := 0; i < 10000; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		f.Add(k)
		h := Hash64(k)
		h1, h2 := uint32(h), uint32(h>>32)
		changed := false
		for j := uint32(0); j < f.hashes; j++ {
			pos := uint64(h1+j*h2) % f.nbits
			if ref[pos/64]&(1<<(pos%64)) == 0 {
				ref[pos/64] |= 1 << (pos % 64)
				changed = true
			}
		}
		if changed {
			inserted++
		}
	}
	want := (&Filter{bits: ref, nbits: f.nbits, hashes: f.hashes, inserted: inserted, capacity: f.capacity}).Marshal()
	if !bytes.Equal(f.Marshal(), want) {
		t.Fatal("the filter's bits differ from the % reference's")
	}
}
