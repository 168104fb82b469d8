package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"testing"
)

// tokenEdges are the header-varint values worth pinning: zero (the plain
// op), one byte, the widest ten-byte encodings.
var tokenEdges = []uint64{0, 1, 1 << 63, math.MaxUint64}

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Op: OpPing, ID: 1},
		{Op: OpPut, ID: 42, Payload: AppendPutReq(nil, []byte("k"), []byte("v"))},
		{Op: OpGet, Status: StatusNotFound, ID: 1 << 60},
		{Op: OpStats, ID: 7, Payload: bytes.Repeat([]byte("x"), 4096)},
	}
	for _, f := range frames {
		for _, seq := range tokenEdges {
			for _, epoch := range tokenEdges {
				f.Seq, f.Epoch = seq, epoch
				buf := AppendFrame(nil, f)
				want := 4 + fixedLen + len(binary.AppendUvarint(nil, seq)) + len(binary.AppendUvarint(nil, epoch)) + len(f.Payload) + 4
				if len(buf) != want {
					t.Fatalf("frame with token %d@%d and %d payload bytes encoded to %d bytes, want %d", seq, epoch, len(f.Payload), len(buf), want)
				}
				got, n, err := DecodeFrame(buf, 0)
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				if n != len(buf) {
					t.Fatalf("consumed %d of %d", n, len(buf))
				}
				// And through the stream reader.
				rf, err := ReadFrame(bytes.NewReader(buf), 0)
				if err != nil {
					t.Fatalf("ReadFrame: %v", err)
				}
				for _, g := range []Frame{got, rf} {
					if g.Op != f.Op || g.Status != f.Status || g.ID != f.ID || g.Seq != seq || g.Epoch != epoch || !bytes.Equal(g.Payload, f.Payload) {
						t.Fatalf("round trip mismatch: %+v vs %+v", g, f)
					}
				}
			}
		}
	}
}

// reframe wraps a hand-built body (op through payload) in a length prefix
// and a valid CRC, so a test reaches the header parser behind the checksum.
func reframe(body []byte) []byte {
	buf := binary.BigEndian.AppendUint32(nil, uint32(len(body)+4))
	buf = append(buf, body...)
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(body))
}

// TestFrameTokenMalformed: a header varint that is truncated, overflows or
// is padded fails the frame with ErrBadPayload from both decoders, behind a
// valid CRC, and never panics.
func TestFrameTokenMalformed(t *testing.T) {
	fixed := []byte{byte(OpGet), 0, 0, 0, 0, 0, 0, 0, 0, 9}
	over := bytes.Repeat([]byte{0xff}, 10)
	over = append(over, 0x01) // eleven groups: past uint64
	for name, tail := range map[string][]byte{
		"seq continues into the crc":   {0x80, 0x80, 0x80, 0x80, 0x80, 0x80},
		"epoch continues into the crc": {5, 0x80, 0x80, 0x80, 0x80, 0x80},
		"seq overflows":                append(over, 0, 0, 0),
		"epoch overflows":              append([]byte{5}, over...),
		"seq padded":                   {0x80, 0x00, 0, 1, 'k', 0},
		"epoch padded":                 {0, 0x81, 0x00, 1, 'k', 0},
	} {
		buf := reframe(append(append([]byte(nil), fixed...), tail...))
		if _, n, err := DecodeFrame(buf, 0); !errors.Is(err, ErrBadPayload) || n != 0 {
			t.Errorf("%s: DecodeFrame = %d, %v, want ErrBadPayload", name, n, err)
		}
		if _, err := ReadFrame(bytes.NewReader(buf), 0); !errors.Is(err, ErrBadPayload) {
			t.Errorf("%s: ReadFrame = %v, want ErrBadPayload", name, err)
		}
	}
	// A body too short to hold both token bytes is refused by length alone.
	if _, _, err := DecodeFrame(reframe(append(fixed, 0)), 0); !errors.Is(err, ErrFrameTooSmall) {
		t.Errorf("one-token body: %v, want ErrFrameTooSmall", err)
	}
	// A frame cut inside its token is simply incomplete.
	good := AppendFrame(nil, Frame{Op: OpGet, ID: 9, Seq: 1 << 63, Epoch: 7, Payload: AppendKeyReq(nil, []byte("k"))})
	if _, _, err := DecodeFrame(good[:4+fixedLen+3], 0); !errors.Is(err, ErrTruncated) {
		t.Errorf("cut inside the token: %v, want ErrTruncated", err)
	}
}

func TestDecodeFrameMultiple(t *testing.T) {
	buf := AppendFrame(nil, Frame{Op: OpPing, ID: 1})
	buf = AppendFrame(buf, Frame{Op: OpPing, ID: 2})
	f1, n1, err := DecodeFrame(buf, 0)
	if err != nil || f1.ID != 1 {
		t.Fatalf("first: %v %+v", err, f1)
	}
	f2, n2, err := DecodeFrame(buf[n1:], 0)
	if err != nil || f2.ID != 2 {
		t.Fatalf("second: %v %+v", err, f2)
	}
	if n1+n2 != len(buf) {
		t.Fatalf("consumed %d, want %d", n1+n2, len(buf))
	}
}

func TestDecodeFrameMalformed(t *testing.T) {
	good := AppendFrame(nil, Frame{Op: OpPut, ID: 9, Payload: []byte("payload")})

	cases := []struct {
		name string
		buf  []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short prefix", good[:3], ErrTruncated},
		{"truncated body", good[:len(good)-2], ErrTruncated},
		{"tiny declared length", binary.BigEndian.AppendUint32(nil, 5), ErrFrameTooSmall},
		{"huge declared length", binary.BigEndian.AppendUint32(nil, MaxFrame+1), ErrFrameTooLarge},
	}
	for _, tc := range cases {
		if _, _, err := DecodeFrame(tc.buf, 0); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}

	// Flipped payload bit fails the CRC.
	bad := append([]byte(nil), good...)
	bad[len(bad)-6] ^= 0x40
	if _, _, err := DecodeFrame(bad, 0); !errors.Is(err, ErrBadCRC) {
		t.Errorf("corrupt payload: got %v, want ErrBadCRC", err)
	}
	if _, err := ReadFrame(bytes.NewReader(bad), 0); !errors.Is(err, ErrBadCRC) {
		t.Errorf("ReadFrame corrupt payload: got %v, want ErrBadCRC", err)
	}

	// A caller-supplied cap below the frame size rejects before allocating.
	if _, _, err := DecodeFrame(good, 16); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("small cap: got %v, want ErrFrameTooLarge", err)
	}

	// Stream EOF semantics: clean boundary vs mid-frame.
	if _, err := ReadFrame(bytes.NewReader(nil), 0); err != io.EOF {
		t.Errorf("empty stream: got %v, want io.EOF", err)
	}
	if _, err := ReadFrame(bytes.NewReader(good[:7]), 0); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("mid-frame EOF: got %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestPayloadRoundTrips(t *testing.T) {
	k, v := []byte("key"), []byte("value bytes")
	if gk, gv, err := DecodePutReq(AppendPutReq(nil, k, v)); err != nil || !bytes.Equal(gk, k) || !bytes.Equal(gv, v) {
		t.Fatalf("put: %v %q %q", err, gk, gv)
	}
	if gk, err := DecodeKeyReq(AppendKeyReq(nil, k)); err != nil || !bytes.Equal(gk, k) {
		t.Fatalf("key: %v %q", err, gk)
	}

	ops := []BatchOp{
		{Key: []byte("a"), Value: []byte("1")},
		{Key: []byte("b"), Delete: true},
		{Key: []byte("c"), Value: nil},
	}
	got, err := DecodeBatchReq(AppendBatchReq(nil, ops))
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(got) != len(ops) {
		t.Fatalf("batch count %d, want %d", len(got), len(ops))
	}
	for i := range ops {
		if !bytes.Equal(got[i].Key, ops[i].Key) || got[i].Delete != ops[i].Delete || !bytes.Equal(got[i].Value, ops[i].Value) {
			t.Fatalf("batch[%d] = %+v, want %+v", i, got[i], ops[i])
		}
	}

	keys := [][]byte{[]byte("k1"), []byte("k2")}
	gk, err := DecodeMGetReq(AppendMGetReq(nil, keys))
	if err != nil || len(gk) != 2 || !bytes.Equal(gk[0], keys[0]) || !bytes.Equal(gk[1], keys[1]) {
		t.Fatalf("mget req: %v %q", err, gk)
	}

	vals := [][]byte{[]byte("v1"), nil, {}}
	gv, err := DecodeMGetResp(AppendMGetResp(nil, vals))
	if err != nil || len(gv) != 3 {
		t.Fatalf("mget resp: %v %d", err, len(gv))
	}
	if !bytes.Equal(gv[0], vals[0]) || gv[1] != nil || gv[2] == nil || len(gv[2]) != 0 {
		t.Fatalf("mget resp values: %q", gv)
	}

	start, limit, err := DecodeScanReq(AppendScanReq(nil, []byte("s"), 77))
	if err != nil || !bytes.Equal(start, []byte("s")) || limit != 77 {
		t.Fatalf("scan req: %v %q %d", err, start, limit)
	}
	if start, limit, err = DecodeScanReq(AppendScanReq(nil, nil, 0)); err != nil || len(start) != 0 || limit != 0 {
		t.Fatalf("scan req empty start: %v %q %d", err, start, limit)
	}

	kvs := []KV{{Key: []byte("a"), Value: []byte("1")}, {Key: []byte("b"), Value: nil}}
	gkv, err := DecodeScanResp(AppendScanResp(nil, kvs))
	if err != nil || len(gkv) != 2 || !bytes.Equal(gkv[0].Key, kvs[0].Key) || !bytes.Equal(gkv[1].Key, kvs[1].Key) {
		t.Fatalf("scan resp: %v %+v", err, gkv)
	}
}

func TestPayloadMalformed(t *testing.T) {
	// Empty keys are rejected everywhere a key is required.
	if _, _, err := DecodePutReq(AppendPutReq(nil, nil, []byte("v"))); err == nil {
		t.Error("put with empty key decoded")
	}
	if _, err := DecodeKeyReq(AppendKeyReq(nil, nil)); err == nil {
		t.Error("get with empty key decoded")
	}
	// Trailing bytes are rejected.
	if _, err := DecodeKeyReq(append(AppendKeyReq(nil, []byte("k")), 0xff)); err == nil {
		t.Error("trailing bytes accepted")
	}
	// A declared count far beyond the payload errors instead of allocating.
	huge := binary.AppendUvarint(nil, 1<<40)
	if _, err := DecodeBatchReq(huge); err == nil {
		t.Error("huge batch count decoded")
	}
	if _, err := DecodeMGetReq(huge); err == nil {
		t.Error("huge mget count decoded")
	}
	// Key length beyond MaxKeyLen is rejected without reading the key.
	big := binary.AppendUvarint(nil, MaxKeyLen+1)
	if _, err := DecodeKeyReq(big); err == nil {
		t.Error("oversized key length decoded")
	}
}

// TestBeginFinishFrameMatchesAppendFrame: encoding a payload in place
// between BeginFrame and FinishFrame yields byte-for-byte the frame
// AppendFrame builds from a separately encoded payload, at any offset in a
// reused buffer.
func TestBeginFinishFrameMatchesAppendFrame(t *testing.T) {
	k, v := []byte("key"), bytes.Repeat([]byte("v"), 300)
	hdr := Frame{Op: OpPut, ID: 99, Seq: 1 << 40, Epoch: 3}
	want := hdr
	want.Payload = AppendPutReq(nil, k, v)
	wantBuf := AppendFrame(nil, want)
	buf := AppendFrame(nil, Frame{Op: OpPing, ID: 1}) // an earlier frame in the same buffer
	start := len(buf)
	buf = BeginFrame(buf, hdr)
	buf = AppendPutReq(buf, k, v)
	buf = FinishFrame(buf, start)
	if !bytes.Equal(buf[start:], wantBuf) {
		t.Fatalf("in-place frame differs from AppendFrame:\n got %x\nwant %x", buf[start:], wantBuf)
	}
	if f, n, err := DecodeFrame(buf[start:], 0); err != nil || n != len(wantBuf) || f.ID != 99 || f.Seq != 1<<40 || f.Epoch != 3 {
		t.Fatalf("decode in-place frame: %+v %d %v", f, n, err)
	}
	empty := FinishFrame(BeginFrame(nil, Frame{Op: OpStats, ID: 7}), 0)
	if !bytes.Equal(empty, AppendFrame(nil, Frame{Op: OpStats, ID: 7})) {
		t.Fatalf("empty in-place frame differs: %x", empty)
	}
}

// TestReadFrameOwnsItsPayload pins ReadFrame's ownership rule: consecutive
// frames off one stream never share backing memory, so a decoded key or
// value survives later reads untouched, and a payload's capacity stops at
// its end, so growing a decoded field cannot reach the bytes beside it.
func TestReadFrameOwnsItsPayload(t *testing.T) {
	var stream []byte
	stream = AppendFrame(stream, Frame{Op: OpPut, ID: 1, Payload: AppendPutReq(nil, []byte("k1"), []byte("first"))})
	stream = AppendFrame(stream, Frame{Op: OpPut, ID: 2, Payload: AppendPutReq(nil, []byte("k2"), []byte("again"))})
	r := bytes.NewReader(stream)
	f1, err := ReadFrame(r, 0)
	if err != nil {
		t.Fatalf("first: %v", err)
	}
	k1, v1, err := DecodePutReq(f1.Payload)
	if err != nil {
		t.Fatalf("decode first: %v", err)
	}
	f2, err := ReadFrame(r, 0)
	if err != nil {
		t.Fatalf("second: %v", err)
	}
	for i := range f2.Payload {
		f2.Payload[i] = 0xEE // scribbling on the second frame must not reach the first
	}
	if string(k1) != "k1" || string(v1) != "first" {
		t.Fatalf("first frame's fields changed after the second read: %q %q", k1, v1)
	}
	if cap(f1.Payload) != len(f1.Payload) {
		t.Fatalf("payload cap %d runs past its len %d (into the CRC)", cap(f1.Payload), len(f1.Payload))
	}
	if cap(k1) != len(k1) || cap(v1) != len(v1) {
		t.Fatalf("decoded fields not capped: key %d/%d value %d/%d", len(k1), cap(k1), len(v1), cap(v1))
	}
	_ = append(k1, 'X') // reallocates; must not overwrite the value that follows the key
	if string(v1) != "first" {
		t.Fatalf("appending to the key clobbered the value: %q", v1)
	}
}

// countingReader hands out its chunks one Read at a time and counts the
// calls, so a test can see whether a buffered reader went to its source.
type countingReader struct {
	chunks [][]byte
	reads  int
}

func (r *countingReader) Read(p []byte) (int, error) {
	r.reads++
	if len(r.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.chunks[0])
	if r.chunks[0] = r.chunks[0][n:]; len(r.chunks[0]) == 0 {
		r.chunks = r.chunks[1:]
	}
	return n, nil
}

// TestBufferedSeesOnlyWholeFrames: Buffered is true exactly when the next
// frame is whole in the buffer, and asking never reads from the source.
func TestBufferedSeesOnlyWholeFrames(t *testing.T) {
	f1 := AppendFrame(nil, Frame{Op: OpPut, ID: 1, Payload: AppendPutReq(nil, []byte("k"), []byte("v"))})
	f2 := AppendFrame(nil, Frame{Op: OpGet, ID: 2, Payload: AppendKeyReq(nil, []byte("k"))})
	f3 := AppendFrame(nil, Frame{Op: OpPing, ID: 3})
	// The first chunk holds f1, f2 and the first two bytes of f3's length;
	// the second the rest of f3.
	first := append(append(append([]byte(nil), f1...), f2...), f3[:2]...)
	src := &countingReader{chunks: [][]byte{first, f3[2:]}}
	br := bufio.NewReader(src)
	if Buffered(br) || src.reads != 0 {
		t.Fatalf("empty buffer: Buffered true or %d source reads", src.reads)
	}
	want := []struct {
		id       uint64
		buffered bool // whether the frame after this one is whole in the buffer
	}{{1, true}, {2, false}, {3, false}}
	for _, w := range want {
		f, err := ReadFrame(br, 0)
		if err != nil || f.ID != w.id {
			t.Fatalf("frame %d: %+v %v", w.id, f, err)
		}
		reads := src.reads
		if got := Buffered(br); got != w.buffered {
			t.Fatalf("after frame %d: Buffered = %v, want %v", w.id, got, w.buffered)
		}
		if src.reads != reads {
			t.Fatalf("Buffered read from the source after frame %d", w.id)
		}
	}
}
