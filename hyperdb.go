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

import "hyperdb/internal/core"

// Errors the DB's methods return.
var (
	// ErrNotFound is returned by Get when a key does not exist or was deleted.
	ErrNotFound = core.ErrNotFound
	// ErrClosed is returned by operations on a closed DB.
	ErrClosed = core.ErrClosed
	// ErrFollower is returned by foreground writes on a follower-mode DB.
	ErrFollower = core.ErrFollower
	// ErrNotCounter is returned by Incr (and merge batch ops) when the key's
	// existing value is not a canonical 8-byte counter.
	ErrNotCounter = core.ErrNotCounter
)

// DB is a HyperDB instance over a pair of simulated devices: the engine
// itself, whose methods are documented in internal/core.
type DB = core.DB

// BatchOp is one write in a WriteBatch: a put, a delete when Delete is
// set, or a counter merge when Merge is set (Delta is applied to the key's
// current value; after a successful batch the op's Value holds the
// post-merge 8-byte encoding).
type BatchOp = core.BatchOp

// KV is one scan result.
type KV = core.KV

// Open opens a DB over the devices in opts — as they are: empty, or holding
// the state of a previous instance after Close or a simulated crash (pass the
// original devices in NVMeDevice and SATADevice), which Open recovers. The
// zero Options get paper defaults (8 partitions, 64 MiB DRAM cache, T=10,
// k=2, T_clean=0.5, 1.5× space-amp limit) and fresh devices.
func Open(opts Options) (*DB, error) { return core.Open(opts) }

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
