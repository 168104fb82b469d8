package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

func TestIncrRoundTrips(t *testing.T) {
	for _, delta := range []int64{0, 1, -1, 12345, -987654321, math.MaxInt64, math.MinInt64} {
		k, d, err := DecodeIncrReq(AppendIncrReq(nil, []byte("ctr"), delta))
		if err != nil || !bytes.Equal(k, []byte("ctr")) || d != delta {
			t.Fatalf("incr req delta=%d: %v %q %d", delta, err, k, d)
		}
		v, err := DecodeIncrResp(AppendIncrResp(nil, delta))
		if err != nil || v != delta {
			t.Fatalf("incr resp %d: %v %d", delta, err, v)
		}
	}
}

func TestIncrMalformed(t *testing.T) {
	if _, _, err := DecodeIncrReq(AppendIncrReq(nil, nil, 1)); !errors.Is(err, ErrBadPayload) {
		t.Error("empty key decoded")
	}
	// Missing delta after the key.
	if _, _, err := DecodeIncrReq(AppendKeyReq(nil, []byte("k"))); !errors.Is(err, ErrBadPayload) {
		t.Error("missing delta decoded")
	}
	// Truncated delta varint (continuation bit set at the end).
	if _, _, err := DecodeIncrReq(append(AppendKeyReq(nil, []byte("k")), 0x80)); !errors.Is(err, ErrBadPayload) {
		t.Error("truncated delta decoded")
	}
	// Trailing bytes after the delta.
	if _, _, err := DecodeIncrReq(append(AppendIncrReq(nil, []byte("k"), 7), 0)); !errors.Is(err, ErrBadPayload) {
		t.Error("trailing bytes decoded")
	}
	// An 11-byte varint overflows int64.
	over := append(AppendKeyReq(nil, []byte("k")),
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)
	if _, _, err := DecodeIncrReq(over); !errors.Is(err, ErrBadPayload) {
		t.Error("overflowing delta decoded")
	}
	if _, err := DecodeIncrResp(nil); !errors.Is(err, ErrBadPayload) {
		t.Error("empty incr resp decoded")
	}
	if _, err := DecodeIncrResp(append(AppendIncrResp(nil, 7), 0)); !errors.Is(err, ErrBadPayload) {
		t.Error("incr resp with trailing bytes decoded")
	}
}

func TestBatchMergeRoundTrip(t *testing.T) {
	ops := []BatchOp{
		{Key: []byte("a"), Value: []byte("1")},
		{Key: []byte("c"), Merge: true, Delta: -77},
		{Key: []byte("b"), Delete: true},
		{Key: []byte("d"), Merge: true, Delta: math.MaxInt64},
	}
	got, err := DecodeBatchReq(AppendBatchReq(nil, ops))
	if err != nil {
		t.Fatalf("batch with merges: %v", err)
	}
	if len(got) != len(ops) {
		t.Fatalf("count %d, want %d", len(got), len(ops))
	}
	for i := range ops {
		if !bytes.Equal(got[i].Key, ops[i].Key) || got[i].Delete != ops[i].Delete ||
			got[i].Merge != ops[i].Merge || got[i].Delta != ops[i].Delta {
			t.Fatalf("batch[%d] = %+v, want %+v", i, got[i], ops[i])
		}
	}

	// Merge ops propagate through repl frames unchanged.
	base, rops, err := DecodeReplFrame(AppendReplFrame(nil, 9, ops))
	if err != nil || base != 9 || len(rops) != len(ops) {
		t.Fatalf("repl frame with merges: %v base=%d n=%d", err, base, len(rops))
	}
	if !rops[1].Merge || rops[1].Delta != -77 {
		t.Fatalf("repl merge op lost: %+v", rops[1])
	}

	// Unknown kinds are still rejected.
	bad := []byte{1, 3, 1, 'k'}
	if _, err := DecodeBatchReq(bad); !errors.Is(err, ErrBadPayload) {
		t.Error("kind 3 decoded")
	}
	// A merge op with a truncated delta is rejected.
	trunc := []byte{1, 2, 1, 'k', 0xff}
	if _, err := DecodeBatchReq(trunc); !errors.Is(err, ErrBadPayload) {
		t.Error("truncated merge delta decoded")
	}
}
