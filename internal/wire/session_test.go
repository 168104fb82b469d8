package wire

import (
	"bytes"
	"errors"
	"testing"
)

// The session token rides in the frame header, so "session codec" means a
// frame whose Seq/Epoch are set around the ordinary payload codecs. These
// tests pin what the retired v2 payload codecs used to: the token survives
// beside every read and write payload, refusals carry a position, and
// nothing malformed near the token decodes.

// roundTrip encodes f and decodes it through both decoders, which must agree.
func roundTrip(t *testing.T, f Frame) Frame {
	t.Helper()
	buf := AppendFrame(nil, f)
	got, n, err := DecodeFrame(buf, 0)
	if err != nil || n != len(buf) {
		t.Fatalf("DecodeFrame(%+v): %d, %v", f, n, err)
	}
	rf, err := ReadFrame(bytes.NewReader(buf), 0)
	if err != nil || rf.Seq != got.Seq || rf.Epoch != got.Epoch || !bytes.Equal(rf.Payload, got.Payload) {
		t.Fatalf("ReadFrame disagrees: %+v vs %+v (%v)", rf, got, err)
	}
	return got
}

func TestSessionReadReqRoundTrip(t *testing.T) {
	key, minSeq, epoch := []byte("some-key"), uint64(123456), uint64(0xdead)
	f := roundTrip(t, Frame{Op: OpGet, ID: 1, Seq: minSeq, Epoch: epoch, Payload: AppendKeyReq(nil, key)})
	gk, err := DecodeKeyReq(f.Payload)
	if err != nil || !bytes.Equal(gk, key) || f.Seq != minSeq || f.Epoch != epoch {
		t.Fatalf("gated GET round trip: %q %d %d %v", gk, f.Seq, f.Epoch, err)
	}

	keyList := [][]byte{[]byte("a"), []byte("bb"), []byte("ccc")}
	f = roundTrip(t, Frame{Op: OpMGet, ID: 2, Seq: minSeq, Epoch: epoch, Payload: AppendMGetReq(nil, keyList)})
	mk, err := DecodeMGetReq(f.Payload)
	if err != nil || f.Seq != minSeq || f.Epoch != epoch || len(mk) != 3 || !bytes.Equal(mk[2], []byte("ccc")) {
		t.Fatalf("gated MGET round trip: %v %d %d %v", mk, f.Seq, f.Epoch, err)
	}

	f = roundTrip(t, Frame{Op: OpScan, ID: 3, Seq: minSeq, Epoch: epoch, Payload: AppendScanReq(nil, []byte("start"), 77)})
	st, lim, err := DecodeScanReq(f.Payload)
	if err != nil || !bytes.Equal(st, []byte("start")) || lim != 77 || f.Seq != minSeq || f.Epoch != epoch {
		t.Fatalf("gated SCAN round trip: %q %d %d %d %v", st, lim, f.Seq, f.Epoch, err)
	}

	// Epoch 0 — "no lineage claim" — round-trips like any other value.
	f = roundTrip(t, Frame{Op: OpGet, ID: 4, Seq: 5, Payload: AppendKeyReq(nil, key)})
	if f.Seq != 5 || f.Epoch != 0 {
		t.Fatalf("epoch-0 gate round trip: %d %d", f.Seq, f.Epoch)
	}
}

func TestSessionRespRoundTrip(t *testing.T) {
	// A write's response and a NOT_READY refusal are a position and nothing
	// else: the payload stays empty.
	for _, st := range []Status{StatusOK, StatusNotReady, StatusNotFound} {
		f := roundTrip(t, Frame{Op: OpGet, Status: st, ID: 1, Seq: 42, Epoch: 9})
		if f.Status != st || f.Seq != 42 || f.Epoch != 9 || len(f.Payload) != 0 {
			t.Fatalf("bare position under %s: %+v", st, f)
		}
	}

	// A GET hit is the value itself, not a copy behind a prefix — an empty
	// value included (a present key may hold no bytes).
	f := roundTrip(t, Frame{Op: OpGet, Status: StatusOK, ID: 2, Seq: 9, Epoch: 3, Payload: []byte("value")})
	if f.Seq != 9 || f.Epoch != 3 || !bytes.Equal(f.Payload, []byte("value")) {
		t.Fatalf("GET resp: %+v", f)
	}
	f = roundTrip(t, Frame{Op: OpGet, Status: StatusOK, ID: 2, Seq: 3, Epoch: 1})
	if f.Seq != 3 || f.Epoch != 1 || len(f.Payload) != 0 {
		t.Fatalf("GET empty resp: %+v", f)
	}

	f = roundTrip(t, Frame{Op: OpMGet, Status: StatusOK, ID: 3, Seq: 8, Epoch: 2, Payload: AppendMGetResp(nil, [][]byte{[]byte("x"), nil, {}})})
	vals, err := DecodeMGetResp(f.Payload)
	if err != nil || f.Seq != 8 || f.Epoch != 2 || len(vals) != 3 || vals[1] != nil || vals[2] == nil {
		t.Fatalf("MGET resp: %d %d %v %v", f.Seq, f.Epoch, vals, err)
	}

	f = roundTrip(t, Frame{Op: OpScan, Status: StatusOK, ID: 4, Seq: 15, Epoch: 4, Payload: AppendScanResp(nil, []KV{{Key: []byte("k"), Value: []byte("v")}})})
	kvs, err := DecodeScanResp(f.Payload)
	if err != nil || f.Seq != 15 || f.Epoch != 4 || len(kvs) != 1 || !bytes.Equal(kvs[0].Key, []byte("k")) {
		t.Fatalf("SCAN resp: %d %d %v %v", f.Seq, f.Epoch, kvs, err)
	}

	f = roundTrip(t, Frame{Op: OpIncr, Status: StatusOK, ID: 5, Seq: 7, Epoch: 17, Payload: AppendIncrResp(nil, -42)})
	if v, err := DecodeIncrResp(f.Payload); err != nil || v != -42 || f.Seq != 7 || f.Epoch != 17 {
		t.Fatalf("INCR resp: %d %d %d %v", f.Seq, f.Epoch, v, err)
	}
}

// TestSessionCodecsStrict exercises the malformed-input contract around the
// token: it is not part of the payload, so a token followed by a missing,
// short or over-long payload still fails the payload decoder — never a
// panic, never bytes of one read as the other. (Malformed token varints
// themselves are TestFrameTokenMalformed's.)
func TestSessionCodecsStrict(t *testing.T) {
	gated := func(op Op, payload []byte) []byte {
		return roundTrip(t, Frame{Op: op, ID: 1, Seq: 7, Epoch: 1, Payload: payload}).Payload
	}
	// Token present but the inner payload is missing.
	if _, err := DecodeKeyReq(gated(OpGet, nil)); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("gated GET with no key: %v", err)
	}
	if _, err := DecodeMGetReq(gated(OpMGet, nil)); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("gated MGET with no count: %v", err)
	}
	if _, _, err := DecodeScanReq(gated(OpScan, nil)); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("gated SCAN with no start: %v", err)
	}
	// A payload that is itself a truncated varint (0x80 declares a
	// continuation that never comes) is not rescued by the header's varints.
	cont := []byte{0x80}
	if _, err := DecodeKeyReq(gated(OpGet, cont)); err == nil {
		t.Fatal("truncated GET key length accepted")
	}
	if _, err := DecodeMGetResp(gated(OpMGet, cont)); err == nil {
		t.Fatal("truncated MGET resp accepted")
	}
	if _, err := DecodeScanResp(gated(OpScan, cont)); err == nil {
		t.Fatal("truncated SCAN resp accepted")
	}
	// Trailing bytes after the payload are still rejected.
	if _, err := DecodeKeyReq(gated(OpGet, append(AppendKeyReq(nil, []byte("k")), 'x'))); err == nil {
		t.Fatal("gated GET with trailing bytes accepted")
	}
	if _, _, err := DecodeScanReq(gated(OpScan, append(AppendScanReq(nil, []byte("s"), 1), 'x'))); err == nil {
		t.Fatal("gated SCAN with trailing bytes accepted")
	}
	if _, err := DecodeMGetReq(gated(OpMGet, append(AppendMGetReq(nil, [][]byte{[]byte("k")}), 'x'))); err == nil {
		t.Fatal("gated MGET with trailing bytes accepted")
	}
}

// TestSessionOpsRetired: the seven v2 op codes and the five cluster ops
// are gone, not aliased — the twelve bytes past the new opMax name no op,
// and the ops that moved down into the freed range kept their names.
func TestSessionOpsRetired(t *testing.T) {
	if opMax != OpTreeDiff+1 || OpTreeDiff != 15 {
		t.Fatalf("opMax = %d, OpTreeDiff = %d; want 16 and 15 (21 and 20 before the cluster ops went, 28 and 27 before the v2 ops)", opMax, OpTreeDiff)
	}
	for op := opMax; op < opMax+12; op++ {
		if op.Valid() {
			t.Fatalf("retired op byte %d still valid", op)
		}
		if s := op.String(); s[:3] != "Op(" {
			t.Fatalf("retired op byte %d still named %q", op, s)
		}
	}
	for op := OpPing; op < opMax; op++ {
		if s := op.String(); len(s) == 0 || s[0] == 'O' || s[len(s)-1] == '2' {
			t.Fatalf("op %d named %q", op, s)
		}
	}
	if StatusNotReady.String() != "not ready" {
		t.Fatalf("StatusNotReady = %q", StatusNotReady.String())
	}
}
