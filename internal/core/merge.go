package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrNotCounter is returned when a merge lands on an existing value that is
// not a counter (anything but exactly 8 bytes). Counters are canonical
// 8-byte little-endian int64 values; a missing or deleted key merges
// against base 0.
var ErrNotCounter = errors.New("hyperdb: existing value is not a counter")

// CounterLen is the canonical encoded size of a counter value.
const CounterLen = 8

// EncodeCounter renders v in the canonical counter representation.
func EncodeCounter(v int64) []byte {
	var b [CounterLen]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	return b[:]
}

// DecodeCounter parses a canonical counter value. A nil/deleted value is
// not a counter here — callers map absence to base 0 before decoding.
func DecodeCounter(b []byte) (int64, error) {
	if len(b) != CounterLen {
		return 0, fmt.Errorf("%w (%d bytes)", ErrNotCounter, len(b))
	}
	return int64(binary.LittleEndian.Uint64(b)), nil
}

// SatAdd adds two int64s, saturating at the int64 range instead of
// wrapping. Merge folds and merge applies both use it, so folding deltas
// before the apply commits the same value as applying them one by one.
func SatAdd(a, b int64) int64 {
	s := a + b
	if b > 0 && s < a {
		return math.MaxInt64
	}
	if b < 0 && s > a {
		return math.MinInt64
	}
	return s
}

// counterBase resolves the pre-merge value of key from the partition's
// current state, read as Get reads it. A key found nowhere, or deleted,
// merges against 0.
func (db *DB) counterBase(p *partition, key []byte) (int64, error) {
	v, found, _, err := p.lookup(key)
	if err != nil || !found {
		return 0, err
	}
	return DecodeCounter(v)
}

// resolveMerges rewrites every merge op in the group to a plain put of its
// post-merge value, walking the group in slice order so an earlier put,
// delete, or merge to the same key in the same batch is what a later merge
// sees. Caller holds p.mergeMu so the read-modify-write against partition
// state is atomic with respect to other merging batches. ops[i].Value is
// mutated in place — WriteBatchSeq callers read post-merge values out of
// their own slice after the call.
func (db *DB) resolveMerges(p *partition, ops []BatchOp, idxs []int) error {
	// pending maps keys already written earlier in this group to their
	// in-batch value; nil means deleted (base 0 for a following merge).
	pending := make(map[string][]byte)
	for _, i := range idxs {
		op := &ops[i]
		switch {
		case op.Delete:
			pending[string(op.Key)] = nil
		case !op.Merge:
			pending[string(op.Key)] = op.Value
		default:
			var base int64
			if pv, ok := pending[string(op.Key)]; ok {
				if pv != nil {
					b, err := DecodeCounter(pv)
					if err != nil {
						return fmt.Errorf("merge %q: %w", op.Key, err)
					}
					base = b
				}
			} else {
				b, err := db.counterBase(p, op.Key)
				if err != nil {
					if errors.Is(err, ErrNotCounter) {
						return fmt.Errorf("merge %q: %w", op.Key, err)
					}
					return err
				}
				base = b
			}
			op.Value = EncodeCounter(SatAdd(base, op.Delta))
			pending[string(op.Key)] = op.Value
			db.mergeOps.Add(1)
		}
	}
	return nil
}

// Incr atomically adds delta to the counter at key and returns the
// post-merge value. A missing or deleted key starts from 0; an existing
// non-counter value fails with ErrNotCounter. The result saturates at the
// int64 range. Routed through WriteBatchSeq, so the increment replicates
// and coalesces exactly like any other merge op.
func (db *DB) Incr(key []byte, delta int64) (int64, error) {
	ops := []BatchOp{{Key: key, Merge: true, Delta: delta}}
	if _, err := db.WriteBatchSeq(ops); err != nil {
		return 0, err
	}
	return DecodeCounter(ops[0].Value)
}
