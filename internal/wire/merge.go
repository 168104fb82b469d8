package wire

import (
	"encoding/binary"
	"fmt"
)

// INCR codecs. An INCR request names a counter key and a signed int64
// delta; the server folds concurrent deltas to the same key into one
// net-delta write and answers with the post-merge value; the response
// frame's token is the committed position, so sessions can gate follower
// reads on their own increments.

// --- INCR request: klen | key | varint delta (nothing may follow) ---

// AppendIncrReq encodes an INCR request payload.
func AppendIncrReq(dst, key []byte, delta int64) []byte {
	dst = appendBytes(dst, key)
	return binary.AppendVarint(dst, delta)
}

// DecodeIncrReq decodes an INCR payload; key aliases p.
func DecodeIncrReq(p []byte) (key []byte, delta int64, err error) {
	key, rest, err := getBytes(p, MaxKeyLen)
	if err != nil {
		return nil, 0, err
	}
	if len(key) == 0 {
		return nil, 0, fmt.Errorf("%w: empty key", ErrBadPayload)
	}
	delta, rest, err = getVarint(rest)
	if err != nil {
		return nil, 0, err
	}
	if len(rest) != 0 {
		return nil, 0, fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, len(rest))
	}
	return key, delta, nil
}

// --- INCR response: varint post-merge value ---

// AppendIncrResp encodes an INCR success response.
func AppendIncrResp(dst []byte, value int64) []byte {
	return binary.AppendVarint(dst, value)
}

// DecodeIncrResp decodes an INCR success response.
func DecodeIncrResp(p []byte) (int64, error) {
	value, rest, err := getVarint(p)
	if err != nil {
		return 0, err
	}
	if len(rest) != 0 {
		return 0, fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, len(rest))
	}
	return value, nil
}
