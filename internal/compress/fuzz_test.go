package compress

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"testing"

	"hyperdb/internal/block"
	"hyperdb/internal/keys"
)

// FuzzDecode is the compressed-block decode contract: no payload panics,
// allocation stays under the cap, and every Encode output round-trips.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 0, 0, 0, 0})
	f.Add(Encode(nil, None, []byte("seed")))
	f.Add(Encode(nil, LZ, bytes.Repeat([]byte("seed value "), 64)))
	f.Add(Encode(nil, LZ, bytes.Repeat([]byte{0}, 512)))
	f.Add([]byte{1, 255, 255, 255, 255, 127}) // huge declared rawLen
	f.Fuzz(func(t *testing.T, p []byte) {
		const cap = 1 << 16
		out, err := Decode(p, cap) // must never panic
		if err == nil && len(out) > cap {
			t.Fatalf("decode produced %d bytes past cap %d", len(out), cap)
		}
		// Treat the input as raw data too: encoding must round-trip.
		for _, c := range []Codec{None, LZ} {
			enc := Encode(nil, c, p)
			dec, err := Decode(enc, len(p)+1)
			if err != nil {
				t.Fatalf("codec %v: decode of fresh encode failed: %v", c, err)
			}
			if !bytes.Equal(dec, p) {
				t.Fatalf("codec %v: round trip mismatch", c)
			}
		}
	})
}

// decodeLZReference is the decoder decodeLZ replaced, kept as the reference
// it is held to: every token appended byte by byte, every check in the same
// order.
func decodeLZReference(p []byte, maxRaw int) ([]byte, error) {
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
	out := make([]byte, 0, int(rawLen))
	for len(p) > 0 {
		t := p[0]
		p = p[1:]
		if t&1 == 0 {
			n := int(t>>1) + 1
			if n > len(p) {
				return nil, fmt.Errorf("compress: lz literal run past input")
			}
			if uint64(len(out)+n) > rawLen {
				return nil, fmt.Errorf("compress: lz output exceeds declared length")
			}
			out = append(out, p[:n]...)
			p = p[n:]
			continue
		}
		length := int(t>>1) + lzMinMatch
		dist, n := binary.Uvarint(p)
		if n <= 0 {
			return nil, fmt.Errorf("compress: truncated lz distance")
		}
		p = p[n:]
		if dist == 0 || dist > uint64(len(out)) {
			return nil, fmt.Errorf("compress: lz distance %d out of range", dist)
		}
		if uint64(len(out)+length) > rawLen {
			return nil, fmt.Errorf("compress: lz output exceeds declared length")
		}
		j := len(out) - int(dist)
		for k := 0; k < length; k++ {
			out = append(out, out[j+k])
		}
	}
	if uint64(len(out)) != rawLen {
		return nil, fmt.Errorf("compress: lz decoded %d bytes, declared %d", len(out), rawLen)
	}
	if crc32.ChecksumIEEE(out) != sum {
		return nil, fmt.Errorf("compress: lz checksum mismatch")
	}
	return out, nil
}

// engineBlocks returns n data blocks shaped like the capacity tier's: about
// 4 KiB of ascending 8-byte keys with internal-key trailers and 128-byte
// values that describe themselves as the benchmark's do — an id, a version,
// a filler in which every other word repeats, a checksum.
func engineBlocks(n int) [][]byte {
	var blocks [][]byte
	bb := block.NewBuilder(0)
	value := make([]byte, 128)
	for id := uint64(1); len(blocks) < n; id++ {
		binary.LittleEndian.PutUint64(value, id)
		binary.LittleEndian.PutUint32(value[8:], uint32(id%7))
		word := (id<<32 | id%7) * 0x9e3779b97f4a7c15
		for off, i := 12, uint64(0); off+8 <= 124; off, i = off+8, i+1 {
			w := word
			if i&1 == 1 {
				w = (word + i) * 0xbf58476d1ce4e5b9
			}
			binary.LittleEndian.PutUint64(value[off:], w)
		}
		binary.LittleEndian.PutUint32(value[124:], crc32.ChecksumIEEE(value[:124]))
		key := binary.BigEndian.AppendUint64(nil, id*7919)
		bb.Add(keys.InternalKey{User: key, Seq: id, Kind: keys.KindSet}, value)
		if bb.SizeEstimate() >= 4096 {
			blocks = append(blocks, bb.Finish())
			bb.Reset()
		}
	}
	return blocks
}

// FuzzDecodeMatchesReference: whatever the payload, decodeLZ returns the
// reference decoder's bytes or the reference decoder's error.
func FuzzDecodeMatchesReference(f *testing.F) {
	for _, b := range engineBlocks(3) {
		f.Add(Encode(nil, LZ, b)[1:])
	}
	f.Add(Encode(nil, LZ, bytes.Repeat([]byte("abcdefg"), 100))[1:])         // distances under 8
	f.Add(encodeLZ(nil, []byte("abcdabcdabcd-0123456789-efgefgefgefg"))[1:]) // short, near matches
	f.Add(Encode(nil, LZ, bytes.Repeat([]byte{0}, 600))[1:])                 // distance 1, long runs
	f.Add([]byte{8, 0, 0, 0, 0, 0x0e, 'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 0x01, 0x80})
	f.Fuzz(func(t *testing.T, p []byte) {
		const cap = 1 << 16
		want, wantErr := decodeLZReference(p, cap)
		// Into a new buffer, and into a reused one that holds other bytes.
		for _, dst := range [][]byte{nil, bytes.Repeat([]byte{0xa5}, cap+lzSlack)} {
			got, err := decodeLZ(dst, p, cap)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || !bytes.Equal(got, want) {
				t.Fatalf("decodeLZ into %d bytes = %d bytes, %v; reference %d bytes, %v", len(dst), len(got), err, len(want), wantErr)
			}
		}
	})
}

// BenchmarkDecode prices decoding one engine-shaped 4 KiB block, with the
// reference decoder beside it.
func BenchmarkDecode(b *testing.B) {
	var payloads [][]byte
	raw := 0
	for _, blk := range engineBlocks(64) {
		payloads = append(payloads, Encode(nil, LZ, blk))
		raw += len(blk)
	}
	for _, d := range []struct {
		name   string
		decode func([]byte, int) ([]byte, error)
	}{{"words", func(p []byte, max int) ([]byte, error) { return decodeLZ(nil, p, max) }}, {"reference", decodeLZReference}} {
		b.Run(d.name, func(b *testing.B) {
			b.SetBytes(int64(raw / len(payloads)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := d.decode(payloads[i%len(payloads)][1:], 1<<16); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
