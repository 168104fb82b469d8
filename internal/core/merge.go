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

// resolveMerges rewrites every merge op in the group to a plain put of its
// post-merge value, walking the group in slice order so an earlier put,
// delete, or merge to the same key in the same batch is what a later merge
// sees. Caller holds p.writeMu, so no other write reaches the partition
// between a merge's read and its apply. ops[i].Value is mutated in place —
// WriteBatchSeq callers read post-merge values out of their own slice after
// the call.
func (db *DB) resolveMerges(p *partition, ops []BatchOp, idxs []int) error {
	// pending maps keys written earlier in the group to their in-batch
	// value, nil for a delete. It is built at the group's first merge, so a
	// group without one allocates nothing.
	var pending map[string][]byte
	note := func(op *BatchOp) {
		if op.Delete {
			pending[string(op.Key)] = nil
		} else {
			pending[string(op.Key)] = op.Value
		}
	}
	for gi, i := range idxs {
		op := &ops[i]
		if op.Merge {
			if pending == nil {
				pending = make(map[string][]byte)
				for _, j := range idxs[:gi] {
					note(&ops[j])
				}
			}
			base, err := db.mergeBase(p, pending, op.Key)
			if err != nil {
				return err
			}
			op.Value = EncodeCounter(SatAdd(base, op.Delta))
			db.mergeOps.Add(1)
		}
		if pending != nil {
			note(op)
		}
	}
	return nil
}

// mergeBase is the counter a merge of key adds to: the group's last earlier
// write to key if there is one, else key's value in the partition, read as
// Get reads it. A key found nowhere, or deleted, counts from 0.
func (db *DB) mergeBase(p *partition, pending map[string][]byte, key []byte) (int64, error) {
	v, ok := pending[string(key)]
	if ok && v == nil {
		return 0, nil
	}
	if !ok {
		var err error
		if v, ok, _, err = p.lookup(key); err != nil || !ok {
			return 0, err
		}
	}
	n, err := DecodeCounter(v)
	if err != nil {
		return 0, fmt.Errorf("merge %q: %w", key, err)
	}
	return n, nil
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
