package cache

// sketch is a count-min frequency sketch: sketchRows rows of 4-bit
// saturating counters, sixteen to a word. Adding a key bumps one counter in
// each row; its estimate is the least of the four, which is never below the
// number of times it was added since the last aging step and exceeds it only
// when every one of its counters is shared with other keys. Every sample
// additions every counter is halved (TinyLFU's reset), so an estimate
// describes the recent past and a key that was hot an hour ago fades.
//
// It has no clock and draws no random numbers: two sketches fed one stream
// hold the same counters.
type sketch struct {
	words     []uint64 // the rows one after another, width/16 words each
	widthBits uint     // log2 of the counters in a row
	additions int
	sample    int
}

const (
	sketchRows = 4
	// sketchMaxWidth caps a row at 8 192 counters: 16 KiB a shard, what a
	// 640 KiB shard — the benchmark's 10 MiB cache, where the sketch was
	// sized — gets from the fortieth rule. A larger shard keeps it: a wider
	// sketch was measured only at that cache, where doubling it to 512 KiB
	// doubled tiered-read's extra device reads for 1 % fewer on resident-rw
	// (DESIGN.md).
	sketchMaxWidth = 8192
	// sketchObject is the charge the sample is sized for: a short key and a
	// value of 100-odd bytes, plus entryOverhead.
	sketchObject = 256
	// sketchSample is how many additions, per object the shard could hold,
	// the sketch takes before it ages.
	sketchSample = 30
)

// rowSeeds are the odd multipliers that turn one hash into four row
// indexes: two keys that share a counter in one row rarely share one in the
// next.
var rowSeeds = [sketchRows]uint32{0x9E3779B1, 0x85EBCA77, 0xC2B2AE3D, 0x27D4EB2F}

// newSketch sizes the sketch of a shard of capacity bytes: the widest power
// of two of counters a row that keeps it within a fortieth of the shard, at
// least 16 (one word a row) and at most sketchMaxWidth.
func newSketch(capacity int64) sketch {
	bits := uint(4)
	for w := int64(1) << (bits + 1); w <= sketchMaxWidth && 2*w*40 <= capacity; w <<= 1 {
		bits++
	}
	return sketch{
		words:     make([]uint64, sketchRows<<bits/16),
		widthBits: bits,
		sample:    max(int(sketchSample*capacity/sketchObject), 1),
	}
}

// bytes is what the sketch costs the heap, and the shard's budget.
func (k *sketch) bytes() int64 { return int64(8 * len(k.words)) }

// index is the position of row r's counter for hash h among all the
// sketch's counters. The hash's low bits chose the shard and are the same for
// all its keys, so only the rest is used.
func (k *sketch) index(h uint32, r int) int {
	return int((h/nShards)*rowSeeds[r]>>(32-k.widthBits)) + r<<k.widthBits
}

// counter locates row r's counter for hash h: a word and a shift within it.
func (k *sketch) counter(h uint32, r int) (int, uint) {
	i := k.index(h, r)
	return i / 16, uint(i%16) * 4
}

// add counts one access to the key with hash h, and ages the sketch every
// sample additions.
func (k *sketch) add(h uint32) {
	for r := 0; r < sketchRows; r++ {
		w, sh := k.counter(h, r)
		if k.words[w]>>sh&15 != 15 {
			k.words[w] += 1 << sh
		}
	}
	if k.additions++; k.additions == k.sample {
		k.additions = 0
		for i, w := range k.words {
			k.words[i] = w >> 1 & 0x7777777777777777
		}
	}
}

// estimate is the least of the key's counters.
func (k *sketch) estimate(h uint32) uint64 {
	est := uint64(15)
	for r := 0; r < sketchRows; r++ {
		w, sh := k.counter(h, r)
		est = min(est, k.words[w]>>sh&15)
	}
	return est
}
