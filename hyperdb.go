// Package hyperdb is a key-value store for heterogeneous SSD storage,
// reproducing "HyperDB: a Novel Key Value Store for Reducing Background
// Traffic in Heterogeneous SSD Storage" (ICPP 2024).
//
// HyperDB spans two storage tiers. The performance tier (NVMe) holds a
// zone-based layout: objects with adjacent keys share a zone, zones map
// onto size-classed slot files at page granularity, and small objects
// update in place. The capacity tier (SATA) holds an LSM tree of
// semi-SSTables — sorted within blocks, appendable after persistence — and
// compacts with block-granularity preemptive compaction. A per-partition
// cascading-discriminator tracker classifies hot objects, which stay in (or
// get promoted to) the performance tier's hot zones; cold zones are demoted
// in batches chosen by a cost/benefit score.
//
// The storage devices are simulated (package internal/device): page-granular
// I/O with latency/bandwidth models scaled from the paper's Samsung PM9A3 +
// Intel D3-S4610 pair, and full traffic accounting. Every engine in this
// module — HyperDB and the RocksDB-style and PrismDB-style baselines — runs
// on the same simulator, so the paper's traffic and utilisation comparisons
// reproduce apples-to-apples.
//
// Basic usage:
//
//	db, err := hyperdb.Open(hyperdb.DefaultOptions())
//	if err != nil { ... }
//	defer db.Close()
//	db.Put([]byte("k"), []byte("v"))
//	v, err := db.Get([]byte("k"))
package hyperdb

import (
	"fmt"
	"time"

	"hyperdb/internal/core"
	"hyperdb/internal/device"
	"hyperdb/internal/merkle"
)

// ErrNotFound is returned by Get when a key does not exist or was deleted.
var ErrNotFound = core.ErrNotFound

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = core.ErrClosed

// ErrFollower is returned by foreground writes on a follower-mode DB.
var ErrFollower = core.ErrFollower

// ErrNotCounter is returned by Incr (and merge batch ops) when the key's
// existing value is not a canonical 8-byte counter.
var ErrNotCounter = core.ErrNotCounter

// DB is a HyperDB instance over a pair of simulated devices.
type DB struct {
	inner *core.DB
	nvme  *device.Device
	sata  *device.Device
}

// Open creates a DB. The zero Options get paper defaults (8 partitions,
// 64 MiB DRAM cache, T=10, k=2, T_clean=0.5, 1.5× space-amp limit).
func Open(opts Options) (*DB, error) {
	resolved, nvme, sata, err := opts.resolve()
	if err != nil {
		return nil, err
	}
	inner, err := core.Open(resolved)
	if err != nil {
		return nil, err
	}
	return &DB{inner: inner, nvme: nvme, sata: sata}, nil
}

// Recover reopens a DB from devices holding a previous instance's state
// (after Close or a simulated crash). The performance tier's index rebuilds
// by scanning slot files; the capacity tier reopens its self-describing
// semi-SSTables. Options must carry the original devices in NVMeDevice and
// SATADevice.
func Recover(opts Options) (*DB, error) {
	if opts.NVMeDevice == nil || opts.SATADevice == nil {
		return nil, fmt.Errorf("hyperdb: Recover requires the original devices")
	}
	resolved, nvme, sata, err := opts.resolve()
	if err != nil {
		return nil, err
	}
	inner, err := core.Recover(resolved)
	if err != nil {
		return nil, err
	}
	return &DB{inner: inner, nvme: nvme, sata: sata}, nil
}

// Put writes key=value. The write is durable on the performance tier when
// Put returns.
func (db *DB) Put(key, value []byte) error { return db.inner.Put(key, value) }

// Get returns the value for key, or ErrNotFound.
func (db *DB) Get(key []byte) ([]byte, error) { return db.inner.Get(key) }

// Delete removes key. Deleting an absent key is not an error.
func (db *DB) Delete(key []byte) error { return db.inner.Delete(key) }

// Incr atomically adds delta to the counter at key and returns the
// post-merge value. Missing and deleted keys count from 0; an existing
// non-counter value fails with ErrNotCounter; results saturate at the
// int64 range. Counters are stored as canonical 8-byte little-endian
// values readable through Get.
func (db *DB) Incr(key []byte, delta int64) (int64, error) { return db.inner.Incr(key, delta) }

// CounterLen is the length of a canonical counter encoding.
const CounterLen = core.CounterLen

// EncodeCounter renders v in the canonical 8-byte little-endian counter
// encoding merges operate on.
func EncodeCounter(v int64) []byte { return core.EncodeCounter(v) }

// DecodeCounter parses a canonical counter value; any other length fails
// with ErrNotCounter.
func DecodeCounter(b []byte) (int64, error) { return core.DecodeCounter(b) }

// SatAdd adds two deltas with saturation at the int64 range — the engine's
// merge arithmetic, exported so serving layers folding deltas commit
// exactly what the engine would.
func SatAdd(a, b int64) int64 { return core.SatAdd(a, b) }

// BatchOp is one write in a WriteBatch: a put, a delete when Delete is
// set, or a counter merge when Merge is set (Delta is applied to the key's
// current value; after a successful batch the op's Value holds the
// post-merge 8-byte encoding).
type BatchOp = core.BatchOp

// WriteBatch applies the ops with batched amortisation: keys are grouped per
// partition, each partition group takes the engine's locks once, and the
// whole batch draws one sequence block. Duplicate keys resolve in slice
// order (last write wins). Not atomic across partitions: on error a prefix
// of the batch may be applied.
func (db *DB) WriteBatch(ops []BatchOp) error { return db.inner.WriteBatch(ops) }

// WriteBatchSeq is WriteBatch returning the batch's last committed
// sequence — the session token a client gates follower reads on for
// read-your-writes.
func (db *DB) WriteBatchSeq(ops []BatchOp) (uint64, error) { return db.inner.WriteBatchSeq(ops) }

// MultiGet returns values positionally aligned with keys; missing or deleted
// keys yield nil entries. Lookups are grouped per partition and share page
// reads between keys on the same slot page.
func (db *DB) MultiGet(keys [][]byte) ([][]byte, error) { return db.inner.MultiGet(keys) }

// KV is one scan result.
type KV = core.KV

// Scan returns up to limit live key-value pairs with key >= start, in key
// order, merged across both tiers.
func (db *DB) Scan(start []byte, limit int) ([]KV, error) {
	return db.inner.Scan(start, limit)
}

// Close stops background workers. The simulated devices and their contents
// remain readable through Stats until the process exits.
func (db *DB) Close() error { return db.inner.Close() }

// Stats snapshots engine and device state.
func (db *DB) Stats() core.Stats { return db.inner.Stats() }

// IsHot reports whether the hotness discriminator currently classifies key
// as hot, without recording an access.
func (db *DB) IsHot(key []byte) bool { return db.inner.IsHot(key) }

// NVMe returns the performance-tier device (for harness inspection).
func (db *DB) NVMe() *device.Device { return db.nvme }

// SATA returns the capacity-tier device (for harness inspection).
func (db *DB) SATA() *device.Device { return db.sata }

// DrainBackground blocks until pending migrations and compactions settle.
// Benchmarks call it to separate load and measurement phases.
func (db *DB) DrainBackground() error { return db.inner.DrainBackground() }

// MigrationStep and CompactionStep drive one unit of background work on one
// partition; useful with Options.DisableBackground for deterministic tests.
func (db *DB) MigrationStep(partition int) error { return db.inner.MigrationStep(partition) }

// CompactionStep runs at most one compaction for a partition.
func (db *DB) CompactionStep(partition int) (bool, error) {
	return db.inner.CompactionStep(partition)
}

// IsFollower reports whether the DB is in follower (replica) mode.
func (db *DB) IsFollower() bool { return db.inner.IsFollower() }

// Promote flips a follower to primary. The caller must have stopped the
// replication applier first; promoting a primary is a no-op.
func (db *DB) Promote() { db.inner.Promote() }

// CommitSeq returns the highest sequence number the DB has allocated (or,
// on a follower, applied).
func (db *DB) CommitSeq() uint64 { return db.inner.CommitSeq() }

// ApplyReplicated applies one shipped replication log entry on a follower;
// op i carries sequence base+i. Entries must arrive in increasing base
// order.
func (db *DB) ApplyReplicated(ops []BatchOp, base uint64) error {
	return db.inner.ApplyReplicated(ops, base)
}

// ApplySnapshotChunk applies one streamed bootstrap chunk on a follower,
// tagging every pair with the snapshot's pinned sequence.
func (db *DB) ApplySnapshotChunk(ops []BatchOp, seq uint64) error {
	return db.inner.ApplySnapshotChunk(ops, seq)
}

// ReadableSeq returns the highest sequence whose effects are visible to
// readers on this node: the allocation counter on a primary, the fully
// applied replication position on a follower.
func (db *DB) ReadableSeq() uint64 { return db.inner.ReadableSeq() }

// WaitReadable blocks until ReadableSeq reaches min, the timeout elapses,
// or abort closes, reporting whether the position was reached. The serving
// layer parks gated session reads on it.
func (db *DB) WaitReadable(min uint64, timeout time.Duration, abort <-chan struct{}) bool {
	return db.inner.WaitReadable(min, timeout, abort)
}

// MultiGetSession and ScanSession are the session-read variants: alongside
// the result they return the node's readable sequence, sampled so that
// nothing the read observed is newer than the token.
func (db *DB) MultiGetSession(keys [][]byte) ([][]byte, uint64, error) {
	return db.inner.MultiGetSession(keys)
}

// ScanSession is Scan plus the session token.
func (db *DB) ScanSession(start []byte, limit int) ([]KV, uint64, error) {
	return db.inner.ScanSession(start, limit)
}

// MerkleTree returns the incremental anti-entropy tree, nil unless
// Options.AntiEntropy was set. The replication layer snapshots it to serve
// O(divergence) replica rejoin.
func (db *DB) MerkleTree() *merkle.Tree { return db.inner.MerkleTree() }

// Engine exposes the underlying core engine for advanced instrumentation.
func (db *DB) Engine() *core.DB { return db.inner }
