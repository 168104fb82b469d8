// Package engine is the one contract the three storage engines — HyperDB
// (core), the RocksDB-style baseline (rocksish) and the PrismDB-style
// baseline (prismish) — implement natively, and the only thing the
// experiment harness and the crash-test harness know about them. It also
// holds the one background worker loop (Work) and error ledger (Errors)
// every engine's background threads run on. It is a leaf: it imports
// nothing from the module, so every engine and every driver can share its
// types without a conversion layer between them.
package engine

import "errors"

// ErrNotFound is returned by Get for missing or deleted keys, by every
// engine.
var ErrNotFound = errors.New("hyperdb: not found")

// KV is one scan result.
type KV struct {
	Key   []byte
	Value []byte
}

// BatchOp is one write in a WriteBatch: a put, a delete when Delete is set
// (Value is ignored), or a counter merge when Merge is set — Delta is added
// to the key's current counter value (missing key = 0, non-counter value =
// ErrNotCounter) and the op commits the post-merge value. After a
// successful WriteBatchSeq the engine has rewritten each merge op's Value
// to its canonical 8-byte post-merge encoding, so callers can read results
// out of their own slice. Merge and Delete are mutually exclusive. Only
// HyperDB has a merge operator; the baselines reject a Merge op.
type BatchOp struct {
	Key    []byte
	Value  []byte
	Delete bool
	Merge  bool
	Delta  int64
}

// Engine is the surface the harnesses drive.
type Engine interface {
	Put(key, value []byte) error
	// Get returns ErrNotFound for a missing or deleted key.
	Get(key []byte) ([]byte, error)
	Delete(key []byte) error
	// WriteBatch applies ops in slice order (last-write-wins duplicates).
	// Concurrent callers' ops apply per key in sequence order, the order
	// recovery and replicas replay: a key reads as its newest write.
	WriteBatch(ops []BatchOp) error
	// MultiGet returns values aligned with keys; nil marks a miss.
	MultiGet(keys [][]byte) ([][]byte, error)
	Scan(start []byte, limit int) ([]KV, error)
	// BackgroundStep runs one bounded round of background work (flush,
	// migration, compaction) on the caller's goroutine, so a test with the
	// workers off can land a crash inside those code paths deterministically.
	BackgroundStep() error
	// DrainBackground runs background work until the engine is quiescent.
	DrainBackground() error
	Close() error
}
