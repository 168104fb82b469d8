package wire

import (
	"encoding/binary"
	"fmt"

	"hyperdb/internal/engine"
)

// MaxKeyLen bounds a single key on the wire. The engine has no hard key
// limit, but the protocol refuses absurd keys before they allocate.
const MaxKeyLen = 64 << 10

// appendBytes appends a varint length prefix followed by b.
func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// getUvarint consumes one varint from p, returning the value and the rest.
func getUvarint(p []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, ErrBadPayload
	}
	return v, p[n:], nil
}

// getVarint consumes one signed (zig-zag) varint from p.
func getVarint(p []byte) (int64, []byte, error) {
	v, n := binary.Varint(p)
	if n <= 0 {
		return 0, nil, ErrBadPayload
	}
	return v, p[n:], nil
}

// getBytes consumes one length-prefixed byte string. The result aliases p,
// capped at its own length (see ReadFrame's ownership rule). maxLen of 0
// means "bounded only by the remaining payload".
func getBytes(p []byte, maxLen int) ([]byte, []byte, error) {
	n, rest, err := getUvarint(p)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(rest)) || (maxLen > 0 && n > uint64(maxLen)) {
		return nil, nil, ErrBadPayload
	}
	return rest[:n:n], rest[n:], nil
}

// --- PUT: klen | key | value (value runs to the end of the payload) ---

// AppendPutReq encodes a PUT request payload.
func AppendPutReq(dst, key, value []byte) []byte {
	dst = appendBytes(dst, key)
	return append(dst, value...)
}

// DecodePutReq decodes a PUT payload into key and value slices aliasing p.
func DecodePutReq(p []byte) (key, value []byte, err error) {
	key, value, err = getBytes(p, MaxKeyLen)
	if err != nil {
		return nil, nil, err
	}
	if len(key) == 0 {
		return nil, nil, fmt.Errorf("%w: empty key", ErrBadPayload)
	}
	return key, value, nil
}

// --- GET / DEL: klen | key (nothing may follow) ---

// AppendKeyReq encodes a single-key payload (GET, DEL).
func AppendKeyReq(dst, key []byte) []byte { return appendBytes(dst, key) }

// DecodeKeyReq decodes a single-key payload; trailing bytes are an error.
func DecodeKeyReq(p []byte) ([]byte, error) {
	key, rest, err := getBytes(p, MaxKeyLen)
	if err != nil {
		return nil, err
	}
	if len(key) == 0 {
		return nil, fmt.Errorf("%w: empty key", ErrBadPayload)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, len(rest))
	}
	return key, nil
}

// --- BATCH: count | per op: kind(0=put,1=del,2=merge) | klen | key |
//     [vlen | value]  (put) | [varint delta]  (merge) ---

// BatchOp is one write in a BATCH request: the engine's own op, so a decoded
// request is applied as it is. Value is ignored for deletes and merges; Delta
// is meaningful only when Merge is set. Merge and Delete are mutually
// exclusive (Delete wins on encode, matching the engine's LWW).
type BatchOp = engine.BatchOp

// AppendBatchReq encodes a BATCH request payload.
func AppendBatchReq(dst []byte, ops []BatchOp) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ops)))
	for _, op := range ops {
		switch {
		case op.Delete:
			dst = append(dst, 1)
			dst = appendBytes(dst, op.Key)
		case op.Merge:
			dst = append(dst, 2)
			dst = appendBytes(dst, op.Key)
			dst = binary.AppendVarint(dst, op.Delta)
		default:
			dst = append(dst, 0)
			dst = appendBytes(dst, op.Key)
			dst = appendBytes(dst, op.Value)
		}
	}
	return dst
}

// DecodeBatchReq decodes a BATCH payload. Key/Value slices alias p. The
// initial allocation is capped by the payload size, not the declared count.
func DecodeBatchReq(p []byte) ([]BatchOp, error) {
	count, rest, err := getUvarint(p)
	if err != nil {
		return nil, err
	}
	// Each op occupies at least 3 bytes (kind + klen + 1 key byte), so a
	// declared count beyond len(rest)/3+1 can never be satisfied.
	capHint := count
	if max := uint64(len(rest))/3 + 1; capHint > max {
		capHint = max
	}
	ops := make([]BatchOp, 0, capHint)
	for i := uint64(0); i < count; i++ {
		if len(rest) == 0 {
			return nil, ErrBadPayload
		}
		kind := rest[0]
		rest = rest[1:]
		if kind > 2 {
			return nil, fmt.Errorf("%w: batch op kind %d", ErrBadPayload, kind)
		}
		var op BatchOp
		op.Delete = kind == 1
		op.Merge = kind == 2
		op.Key, rest, err = getBytes(rest, MaxKeyLen)
		if err != nil {
			return nil, err
		}
		if len(op.Key) == 0 {
			return nil, fmt.Errorf("%w: empty key", ErrBadPayload)
		}
		switch kind {
		case 0:
			op.Value, rest, err = getBytes(rest, 0)
			if err != nil {
				return nil, err
			}
		case 2:
			op.Delta, rest, err = getVarint(rest)
			if err != nil {
				return nil, err
			}
		}
		ops = append(ops, op)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, len(rest))
	}
	return ops, nil
}

// --- MGET request: count | per key: klen | key ---

// AppendMGetReq encodes an MGET request payload.
func AppendMGetReq(dst []byte, keys [][]byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = appendBytes(dst, k)
	}
	return dst
}

// DecodeMGetReq decodes an MGET payload; key slices alias p.
func DecodeMGetReq(p []byte) ([][]byte, error) {
	count, rest, err := getUvarint(p)
	if err != nil {
		return nil, err
	}
	capHint := count
	if max := uint64(len(rest))/2 + 1; capHint > max {
		capHint = max
	}
	keys := make([][]byte, 0, capHint)
	for i := uint64(0); i < count; i++ {
		var k []byte
		k, rest, err = getBytes(rest, MaxKeyLen)
		if err != nil {
			return nil, err
		}
		if len(k) == 0 {
			return nil, fmt.Errorf("%w: empty key", ErrBadPayload)
		}
		keys = append(keys, k)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, len(rest))
	}
	return keys, nil
}

// --- MGET response: count | per value: present(1) | [vlen | value] ---

// AppendMGetResp encodes an MGET response; nil entries mean "absent".
func AppendMGetResp(dst []byte, vals [][]byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vals)))
	for _, v := range vals {
		if v == nil {
			dst = append(dst, 0)
			continue
		}
		dst = append(dst, 1)
		dst = appendBytes(dst, v)
	}
	return dst
}

// DecodeMGetResp decodes an MGET response; absent entries are nil. Value
// slices alias p.
func DecodeMGetResp(p []byte) ([][]byte, error) {
	count, rest, err := getUvarint(p)
	if err != nil {
		return nil, err
	}
	capHint := count
	if max := uint64(len(rest)) + 1; capHint > max {
		capHint = max
	}
	vals := make([][]byte, 0, capHint)
	for i := uint64(0); i < count; i++ {
		if len(rest) == 0 {
			return nil, ErrBadPayload
		}
		present := rest[0]
		rest = rest[1:]
		switch present {
		case 0:
			vals = append(vals, nil)
		case 1:
			var v []byte
			v, rest, err = getBytes(rest, 0)
			if err != nil {
				return nil, err
			}
			if v == nil {
				v = []byte{}
			}
			vals = append(vals, v)
		default:
			return nil, fmt.Errorf("%w: present byte %d", ErrBadPayload, present)
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, len(rest))
	}
	return vals, nil
}

// --- SCAN request: klen | start | limit ---

// AppendScanReq encodes a SCAN request payload. An empty start scans from
// the beginning of the keyspace.
func AppendScanReq(dst, start []byte, limit uint32) []byte {
	dst = appendBytes(dst, start)
	return binary.AppendUvarint(dst, uint64(limit))
}

// DecodeScanReq decodes a SCAN payload; start aliases p and may be empty.
func DecodeScanReq(p []byte) (start []byte, limit uint32, err error) {
	start, rest, err := getBytes(p, MaxKeyLen)
	if err != nil {
		return nil, 0, err
	}
	n, rest, err := getUvarint(rest)
	if err != nil {
		return nil, 0, err
	}
	if n > uint64(^uint32(0)) {
		return nil, 0, fmt.Errorf("%w: scan limit overflows uint32", ErrBadPayload)
	}
	if len(rest) != 0 {
		return nil, 0, fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, len(rest))
	}
	return start, uint32(n), nil
}

// --- SCAN response: count | per pair: klen | key | vlen | value ---

// KV is one SCAN result pair: the engine's own, so a scan result is encoded
// as it is.
type KV = engine.KV

// AppendScanResp encodes a SCAN response.
func AppendScanResp(dst []byte, kvs []KV) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(kvs)))
	for _, kv := range kvs {
		dst = appendBytes(dst, kv.Key)
		dst = appendBytes(dst, kv.Value)
	}
	return dst
}

// DecodeScanResp decodes a SCAN response; slices alias p.
func DecodeScanResp(p []byte) ([]KV, error) {
	count, rest, err := getUvarint(p)
	if err != nil {
		return nil, err
	}
	capHint := count
	if max := uint64(len(rest))/3 + 1; capHint > max {
		capHint = max
	}
	kvs := make([]KV, 0, capHint)
	for i := uint64(0); i < count; i++ {
		var kv KV
		kv.Key, rest, err = getBytes(rest, MaxKeyLen)
		if err != nil {
			return nil, err
		}
		kv.Value, rest, err = getBytes(rest, 0)
		if err != nil {
			return nil, err
		}
		kvs = append(kvs, kv)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, len(rest))
	}
	return kvs, nil
}
