// Package bloom implements the standard Bloom filters HyperDB uses in two
// roles: per-block membership filters inside (semi-)SSTable metadata blocks,
// and the access-window filters inside the cascading hotness discriminator
// (§3.3). The discriminator needs to know when a filter window is "full",
// so Filter tracks the number of inserts.
package bloom

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Filter is a standard Bloom filter with double hashing. Not safe for
// concurrent use; callers shard or lock.
type Filter struct {
	bits     []uint64
	nbits    uint64
	mod      uint64 // reduce's multiplier for nbits; 0 when nbits >= 2^32
	hashes   uint32
	inserted uint64
	capacity uint64
}

// New creates a filter sized for n expected items at bitsPerKey bits each.
// The paper uses 10 bits/key, keeping the false-positive rate under 1%.
func New(n int, bitsPerKey int) *Filter {
	if n < 1 {
		n = 1
	}
	if bitsPerKey < 1 {
		bitsPerKey = 1
	}
	nbits := uint64(n * bitsPerKey)
	if nbits < 64 {
		nbits = 64
	}
	// k = ln2 * bits/key is the optimal hash count.
	k := uint32(float64(bitsPerKey) * math.Ln2)
	if k < 1 {
		k = 1
	}
	if k > 30 {
		k = 30
	}
	return &Filter{
		bits:     make([]uint64, (nbits+63)/64),
		nbits:    nbits,
		mod:      multiplier(nbits),
		hashes:   k,
		capacity: uint64(n),
	}
}

// multiplier is reduce's ceil(2^64/nbits), or 0 where reduce must divide.
func multiplier(nbits uint64) uint64 {
	if nbits >= 1<<32 {
		return 0
	}
	return ^uint64(0)/nbits + 1
}

// reduce returns x % nbits: for nbits below 2^32 it is exactly the high word
// of (mod*x mod 2^64) * nbits (Lemire et al., "Faster Remainder by Direct
// Computation"), with no divide.
func (f *Filter) reduce(x uint32) uint64 {
	if f.mod == 0 {
		return uint64(x) % f.nbits
	}
	hi, _ := bits.Mul64(f.mod*uint64(x), f.nbits)
	return hi
}

// Hash64 is the FNV-1a key hash every probe derives from. It is exported
// so hot paths can hash a key once and share the result between the stripe
// choice and the filter probes (AddHash/ContainsHash), instead of rescanning
// the key per structure.
func Hash64(key []byte) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime
	}
	return h
}

// Add inserts key. Returns true if any bit flipped 0→1, i.e. the key was
// (probably) not present before — this is how the discriminator counts the
// distinct insertions filling a window.
func (f *Filter) Add(key []byte) bool { return f.AddHash(Hash64(key)) }

// AddHash is Add for a key already hashed with Hash64.
func (f *Filter) AddHash(h uint64) bool {
	h1, h2 := uint32(h), uint32(h>>32)
	changed := false
	for i := uint32(0); i < f.hashes; i++ {
		pos := f.reduce(h1 + i*h2)
		word, bit := pos/64, uint64(1)<<(pos%64)
		if f.bits[word]&bit == 0 {
			f.bits[word] |= bit
			changed = true
		}
	}
	if changed {
		f.inserted++
	}
	return changed
}

// Contains reports whether key is (probably) in the filter.
func (f *Filter) Contains(key []byte) bool { return f.ContainsHash(Hash64(key)) }

// ContainsHash is Contains for a key already hashed with Hash64.
func (f *Filter) ContainsHash(h uint64) bool {
	h1, h2 := uint32(h), uint32(h>>32)
	for i := uint32(0); i < f.hashes; i++ {
		pos := f.reduce(h1 + i*h2)
		if f.bits[pos/64]&(uint64(1)<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

// Inserted returns the number of Add calls that flipped at least one bit —
// an (under-)estimate of distinct keys inserted.
func (f *Filter) Inserted() uint64 { return f.inserted }

// Capacity returns the design capacity n.
func (f *Filter) Capacity() uint64 { return f.capacity }

// Full reports whether the filter has absorbed its design capacity; the
// hotness tracker seals a window filter when this trips.
func (f *Filter) Full() bool { return f.inserted >= f.capacity }

// SizeBytes returns the bit-array footprint.
func (f *Filter) SizeBytes() int64 { return int64(len(f.bits) * 8) }

// FillRatio returns the fraction of set bits; useful to assert the FP rate
// stayed in budget.
func (f *Filter) FillRatio() float64 {
	var set int
	for _, w := range f.bits {
		set += popcount(w)
	}
	return float64(set) / float64(f.nbits)
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// Reset clears all bits and the insert counter, reusing the allocation.
func (f *Filter) Reset() {
	for i := range f.bits {
		f.bits[i] = 0
	}
	f.inserted = 0
}

// Marshal serialises the filter: nbits, hashes, inserted, capacity, words.
func (f *Filter) Marshal() []byte {
	out := make([]byte, 0, 32+len(f.bits)*8)
	var tmp [8]byte
	for _, v := range []uint64{f.nbits, uint64(f.hashes), f.inserted, f.capacity} {
		binary.LittleEndian.PutUint64(tmp[:], v)
		out = append(out, tmp[:]...)
	}
	for _, w := range f.bits {
		binary.LittleEndian.PutUint64(tmp[:], w)
		out = append(out, tmp[:]...)
	}
	return out
}

// Unmarshal reconstructs a filter serialised by Marshal.
func Unmarshal(data []byte) (*Filter, error) {
	if len(data) < 32 || (len(data)-32)%8 != 0 {
		return nil, fmt.Errorf("bloom: malformed filter of %d bytes", len(data))
	}
	f := &Filter{
		nbits:    binary.LittleEndian.Uint64(data[0:]),
		hashes:   uint32(binary.LittleEndian.Uint64(data[8:])),
		inserted: binary.LittleEndian.Uint64(data[16:]),
		capacity: binary.LittleEndian.Uint64(data[24:]),
	}
	// New never makes a filter outside these bounds; bytes that claim one
	// are damaged, and probing them would divide by zero or spin.
	if f.nbits == 0 || f.hashes < 1 || f.hashes > 30 {
		return nil, fmt.Errorf("bloom: filter claims %d bits, %d hashes", f.nbits, f.hashes)
	}
	f.mod = multiplier(f.nbits)
	words := (len(data) - 32) / 8
	if uint64(words*64) < f.nbits {
		return nil, fmt.Errorf("bloom: filter claims %d bits but carries %d", f.nbits, words*64)
	}
	f.bits = make([]uint64, words)
	for i := range f.bits {
		f.bits[i] = binary.LittleEndian.Uint64(data[32+i*8:])
	}
	return f, nil
}
