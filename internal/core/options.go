// Package core implements the HyperDB engine (§3): a shared-nothing array
// of partitions, each owning a zone group on the performance tier, a
// semi-SSTable LSM on the capacity tier, a cascading-discriminator hotness
// tracker, and background migration/compaction workers. Writes land
// directly in NVMe zone slots (durable in-place, KVell-style — no WAL);
// reads fall from the DRAM page cache through the zone index to the
// capacity tier, promoting hot objects back up.
package core

import (
	"math"
	"time"

	"hyperdb/internal/compress"
	"hyperdb/internal/device"
	"hyperdb/internal/hotness"
)

// Tee observes every committed foreground write for replication. Append is
// called under the engine's replication mutex immediately after the batch's
// sequence block is allocated — so calls arrive in strictly increasing base
// order — and before the batch is applied. Commit resolves the entry once
// the apply finishes; with ok=true it may block until downstream followers
// acknowledge (synchronous replication), with ok=false the entry is dropped
// (the batch failed and was never acknowledged to the client). Append gets
// its own copy of a foreground batch's op slice, so the caller's slice never
// escapes through this interface call and a one-op Put allocates nothing;
// the ops' key and value buffers are still the caller's, so an Append that
// keeps them copies them.
type Tee interface {
	Append(base uint64, ops []BatchOp) (token uint64)
	Commit(token uint64, ok bool)
}

// Options configures a DB.
type Options struct {
	// NVMe is the performance-tier device (required).
	NVMe *device.Device
	// SATA is the capacity-tier device (required).
	SATA *device.Device
	// Partitions is the shared-nothing partition count (paper: 8).
	Partitions int
	// CacheBytes sizes the one DRAM cache both tiers share (paper: 64 MiB),
	// which holds CacheBytes + CacheBytes/4: what the page cache and the zone
	// tier's value caches held between them when they were separate.
	CacheBytes int64
	// MigrationBatch is B: zone capacity == semi-SSTable file size (§3.6).
	MigrationBatch int64
	// HighWatermark starts demotion when NVMe usage crosses it.
	HighWatermark float64
	// LowWatermark stops demotion once NVMe usage falls below it.
	LowWatermark float64
	// HotZoneFraction is the share of a partition's NVMe budget the hot
	// zone may hold before eviction.
	HotZoneFraction float64
	// Tracker configures the per-partition cascading discriminator;
	// WindowCapacity 0 derives it from the NVMe object budget (§3.3).
	Tracker hotness.Config
	// Ratio is the LSM size ratio T (paper: 10).
	Ratio int
	// L1Segments is the file count at L1 per partition.
	L1Segments int
	// MaxLevels bounds LSM depth.
	MaxLevels int
	// CompactionDepth is k, the preemptive chase depth.
	CompactionDepth int
	// TClean is the full-compaction dirty threshold (paper: 0.5).
	TClean float64
	// SpaceAmpLimit flips victim selection to dirtiest-first (paper: 1.5).
	SpaceAmpLimit float64
	// PowerK is the victim sampling width (paper: 8).
	PowerK int
	// MirrorIndexToNVMe keeps semi-SSTable index backups on the
	// performance tier (§3.1). On by default via Open.
	MirrorIndexToNVMe bool
	// DisableBackground turns off the per-partition workers; tests and
	// benchmarks then drive migration/compaction explicitly.
	DisableBackground bool
	// BackgroundInterval is the idle poll period of the workers.
	BackgroundInterval time.Duration
	// PromoteQueue bounds pending promotions per partition (the in-memory
	// object cache of §3.5); overflow drops promotions best-effort.
	PromoteQueue int
	// AvgObjectSize seeds the tracker window estimate before data arrives.
	AvgObjectSize int
	// AntiEntropy maintains an incremental Merkle tree from every apply
	// path, enabling O(divergence) replica rejoin (package merkle + repl).
	AntiEntropy bool
	// CompressPolicy compresses capacity-tier data blocks from MinLevel
	// down; the zone tier (NVMe slots) always stays raw — cold data pays the
	// CPU, the hot path does not. Zero value disables compression.
	CompressPolicy compress.Policy
	// Follower opens the DB in replica mode: foreground writes are rejected
	// with ErrFollower and reads never enqueue promotions (promotion would
	// mint local sequences that could collide with the primary's). Writes
	// arrive only through ApplyReplicated/ApplySnapshotChunk until Promote
	// flips the node to primary.
	Follower bool
	// Tee, when non-nil, receives every committed foreground write (and, on
	// followers, every replicated apply) for log shipping to replicas.
	Tee Tee
}

func (o *Options) fill() {
	if o.Partitions <= 0 {
		o.Partitions = 8
	}
	if o.CacheBytes <= 0 {
		o.CacheBytes = 64 << 20
	}
	if o.MigrationBatch <= 0 {
		o.MigrationBatch = 2 << 20
	}
	if o.HighWatermark <= 0 || o.HighWatermark > 1 {
		o.HighWatermark = 0.85
	}
	if o.LowWatermark <= 0 || o.LowWatermark >= o.HighWatermark {
		o.LowWatermark = o.HighWatermark - 0.15
		if o.LowWatermark <= 0 {
			o.LowWatermark = o.HighWatermark / 2
		}
	}
	if o.HotZoneFraction <= 0 || o.HotZoneFraction >= 1 {
		o.HotZoneFraction = 0.25
	}
	if o.Ratio <= 1 {
		o.Ratio = 10
	}
	if o.L1Segments <= 0 {
		o.L1Segments = 2
	}
	if o.MaxLevels <= 0 {
		o.MaxLevels = 4
	}
	if o.CompactionDepth <= 0 {
		o.CompactionDepth = 2
	}
	if o.TClean <= 0 {
		o.TClean = 0.5
	}
	if o.SpaceAmpLimit <= 0 {
		o.SpaceAmpLimit = 1.5
	}
	if o.PowerK <= 0 {
		o.PowerK = 8
	}
	if o.BackgroundInterval <= 0 {
		o.BackgroundInterval = 2 * time.Millisecond
	}
	if o.PromoteQueue <= 0 {
		o.PromoteQueue = 1024
	}
	if o.AvgObjectSize <= 0 {
		o.AvgObjectSize = 160
	}
	if o.Tracker.WindowCapacity <= 0 {
		// §3.6 sizes the filters from "the estimated number of objects that
		// the partition can store"; with up to MaxFilters sealed windows in
		// the cascade, each window takes an equal share, so the cascade
		// collectively spans the partition's object budget and windows turn
		// over fast enough for hot classification to engage.
		//
		// Only MaxFilters is needed here; the full Tracker.Fill() runs inside
		// NewTracker *after* this derivation, so the defaults it derives from
		// WindowCapacity (the stripe count) see the real value rather than a
		// placeholder.
		mf := o.Tracker.MaxFilters
		if mf <= 0 {
			mf = 4
		}
		perPart := int64(1 << 24)
		if o.NVMe != nil && o.NVMe.Capacity() > 0 {
			perPart = o.NVMe.Capacity() / int64(o.Partitions)
		}
		w := perPart / int64(o.AvgObjectSize) / int64(mf)
		if w < 512 {
			w = 512
		}
		if w > math.MaxInt32 {
			w = math.MaxInt32
		}
		o.Tracker.WindowCapacity = int(w)
	}
}
