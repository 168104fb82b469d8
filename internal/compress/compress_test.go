package compress

import (
	"bytes"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

func roundTrip(t *testing.T, c Codec, src []byte) []byte {
	t.Helper()
	payload := Encode(nil, c, src)
	got, err := Decode(payload, len(src)+1)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("round trip mismatch: %d bytes in, %d out", len(src), len(got))
	}
	return payload
}

func TestRoundTripNone(t *testing.T) {
	for _, src := range [][]byte{nil, {}, []byte("x"), []byte("hello world")} {
		p := roundTrip(t, None, src)
		if len(p) != len(src)+1 || p[0] != byte(None) {
			t.Fatalf("none payload framing wrong: %v", p)
		}
	}
}

func TestRoundTripLZ(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("a"),
		[]byte("abcabcabcabcabcabcabcabc"),
		bytes.Repeat([]byte{0}, 4096),
		bytes.Repeat([]byte("user0000012345 field value padding "), 200),
		[]byte(strings.Repeat("ab", 3) + "unique tail bytes here"),
	}
	rng := rand.New(rand.NewSource(7))
	rnd := make([]byte, 8192)
	rng.Read(rnd)
	cases = append(cases, rnd)
	// Compressible-with-long-matches case: repeated 1KiB page.
	page := make([]byte, 1024)
	rng.Read(page)
	cases = append(cases, bytes.Repeat(page, 8))
	for i, src := range cases {
		p := roundTrip(t, LZ, src)
		if !Codec(p[0]).Valid() {
			t.Fatalf("case %d: invalid tag %d", i, p[0])
		}
	}
}

func TestCompressibleShrinks(t *testing.T) {
	src := bytes.Repeat([]byte("hyperdb-value-padding-0123456789 "), 128)
	p := Encode(nil, LZ, src)
	if p[0] != byte(LZ) {
		t.Fatalf("compressible input stored raw")
	}
	if len(p) >= len(src)/2 {
		t.Fatalf("weak compression: %d -> %d", len(src), len(p))
	}
}

func TestIncompressibleFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := make([]byte, 4096)
	rng.Read(src)
	p := Encode(nil, LZ, src)
	if p[0] != byte(None) {
		t.Fatalf("incompressible input kept tag %d, want fallback to None", p[0])
	}
	if len(p) != len(src)+1 {
		t.Fatalf("fallback payload size %d, want %d", len(p), len(src)+1)
	}
}

func TestDecodeAllocationCap(t *testing.T) {
	src := bytes.Repeat([]byte("abcd"), 1024)
	p := Encode(nil, LZ, src)
	if _, err := Decode(p, len(src)-1); err == nil {
		t.Fatalf("decode accepted payload above the allocation cap")
	}
	raw := Encode(nil, None, src)
	if _, err := Decode(raw, len(src)-1); err == nil {
		t.Fatalf("raw decode accepted payload above the allocation cap")
	}
}

func TestDecodeMalformed(t *testing.T) {
	good := Encode(nil, LZ, bytes.Repeat([]byte("abcd"), 64))
	cases := map[string][]byte{
		"empty":              {},
		"unknown tag":        {9, 1, 2, 3},
		"truncated length":   {1},
		"truncated checksum": {1, 4, 0xff},
		"literal past input": {1, 8, 0, 0, 0, 0, 254},
		"zero distance":      {1, 8, 0, 0, 0, 0, 1, 0},
		"distance too far":   {1, 8, 0, 0, 0, 0, 0x06, 'a', 'b', 'c', 'd', 1, 9},
		"short output":       {1, 200, 0, 0, 0, 0, 0, 'x'},
		"truncated stream":   good[:len(good)-3],
	}
	// Corrupt a literal byte: declared length and framing stay intact, so
	// only the checksum catches it.
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0xff
	cases["checksum mismatch"] = flipped
	for name, p := range cases {
		if _, err := Decode(p, 1<<20); err == nil {
			t.Errorf("%s: decode accepted malformed payload", name)
		}
	}
}

func TestPolicyCodecFor(t *testing.T) {
	p := Policy{Codec: LZ, MinLevel: 2}
	if got := p.CodecFor(1); got != None {
		t.Fatalf("level 1 got %v, want None", got)
	}
	if got := p.CodecFor(2); got != LZ {
		t.Fatalf("level 2 got %v, want LZ", got)
	}
	if (Policy{}).CodecFor(3) != None {
		t.Fatalf("zero policy must be None everywhere")
	}
}

func TestParse(t *testing.T) {
	for s, want := range map[string]Codec{"": None, "off": None, "none": None, "on": LZ, "lz": LZ} {
		got, err := Parse(s)
		if err != nil || got != want {
			t.Fatalf("Parse(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := Parse("zstd"); err == nil {
		t.Fatalf("Parse accepted unknown codec")
	}
}

// TestDecodeIntoReusesDst: a block decoded into a buffer with room for it
// allocates nothing — stored raw or LZ — and the bytes are the block's even
// where the buffer held another block's; a short buffer is replaced.
func TestDecodeIntoReusesDst(t *testing.T) {
	blocks := engineBlocks(8)
	var payloads [][]byte
	for i, blk := range blocks {
		payloads = append(payloads, Encode(nil, []Codec{None, LZ}[i%2], blk))
	}
	dst := make([]byte, 0, 64<<10)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const rounds = 1000
	for i := 0; i < rounds; i++ {
		out, err := DecodeInto(dst, payloads[i%len(payloads)], 1<<20)
		if err != nil || !bytes.Equal(out, blocks[i%len(blocks)]) {
			t.Fatalf("round %d: %d bytes, %v", i, len(out), err)
		}
		if &out[:1][0] != &dst[:1][0] {
			t.Fatalf("round %d: decoded outside the buffer it was handed", i)
		}
	}
	runtime.ReadMemStats(&after)
	if a := float64(after.Mallocs-before.Mallocs) / rounds; a >= 0.05 {
		t.Fatalf("DecodeInto with room: %.3f allocations per block, want 0", a)
	}
	if out, err := DecodeInto(make([]byte, 0, 16), payloads[1], 1<<20); err != nil || !bytes.Equal(out, blocks[1]) {
		t.Fatalf("into a short buffer: %d bytes, %v", len(out), err)
	}
}
