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

	"hyperdb/internal/device"
	"hyperdb/internal/hotness"
)

// Tee observes every committed foreground write for replication. Append is
// called under the engine's replication mutex, with the batch's partitions
// write-locked, immediately after the batch's sequence block is allocated —
// so calls arrive in strictly increasing base order — and before the batch
// is applied; it must not block. Commit resolves the entry once
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

// Engine constants no caller tunes.
const (
	// promoteQueue bounds pending promotions per partition (the in-memory
	// object cache of §3.5); overflow drops promotions best-effort.
	promoteQueue = 1024
	// avgObjectSize seeds the tracker window estimate before data arrives.
	avgObjectSize = 160
)

// Options configures Open. The zero value is the production engine: paper
// defaults, the §3.1 index mirror on, and fresh paper-profile devices.
type Options struct {
	// NVMeDevice is the performance tier; nil builds one of NVMeCapacity.
	NVMeDevice *device.Device
	// SATADevice is the capacity tier; nil builds one of SATACapacity.
	SATADevice *device.Device
	// NVMeCapacity sizes a built NVMe device (zero: 256 MiB).
	NVMeCapacity int64
	// SATACapacity sizes a built SATA device (zero: 8 GiB).
	SATACapacity int64
	// Unthrottled builds zero-latency devices (zero: paper-profile timing).
	Unthrottled bool
	// Partitions is the shared-nothing partition count (zero: 8, the paper's).
	Partitions int
	// CacheBytes sizes the shared DRAM cache, CacheBytes*5/4 in all (zero: 64 MiB, the paper's).
	CacheBytes int64
	// MigrationBatch is B, the zone and semi-SSTable size (§3.6; zero: 2 MiB).
	MigrationBatch int64
	// HighWatermark starts demotion when NVMe usage crosses it (zero: 0.85).
	HighWatermark float64
	// LowWatermark stops demotion below it (zero: HighWatermark - 0.15).
	LowWatermark float64
	// HotZoneFraction is each partition's hot-zone share of NVMe (zero: 0.25).
	HotZoneFraction float64
	// Tracker configures the hotness cascade (zero: windows sized from the NVMe tier, §3.3).
	Tracker hotness.Config
	// Ratio is the LSM size ratio T (zero: 10, the paper's).
	Ratio int
	// L1Segments is the per-partition file count at L1 (zero: 2).
	L1Segments int
	// MaxLevels bounds LSM depth (zero: 4).
	MaxLevels int
	// CompactionDepth is k, the preemptive chase depth (zero: 2).
	CompactionDepth int
	// TClean is the full-compaction dirty threshold (zero: 0.5, the paper's).
	TClean float64
	// SpaceAmpLimit flips victim selection to dirtiest-first (zero: 1.5, the paper's).
	SpaceAmpLimit float64
	// PowerK is the victim sampling width (zero: 8, the paper's).
	PowerK int
	// DisableIndexMirror drops §3.1's NVMe backup of LSM indexes (zero: mirrored).
	DisableIndexMirror bool
	// DisableBackground stops the workers; the caller steps the background (zero: workers run).
	DisableBackground bool
	// Compress names the SATA block codec, "on"/"lz" or "off"/"none"; others fail Open (zero: raw).
	Compress string
	// CompressMinLevel is the shallowest LSM level the codec applies to (zero: 1).
	CompressMinLevel int
	// AntiEntropy keeps a Merkle tree for O(divergence) replica rejoin (zero: off).
	AntiEntropy bool
	// Follower opens a replica that refuses writes until Promote (zero: primary).
	Follower bool
	// Tee receives every committed write for log shipping (zero: none).
	Tee Tee
}

func (o *Options) fill() {
	if o.NVMeDevice == nil {
		o.NVMeDevice = newDevice("nvme", o.NVMeCapacity, 256<<20, device.NVMeProfile, o.Unthrottled)
	}
	if o.SATADevice == nil {
		o.SATADevice = newDevice("sata", o.SATACapacity, 8<<30, device.SATAProfile, o.Unthrottled)
	}
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
	if o.CompressMinLevel <= 0 {
		o.CompressMinLevel = 1
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
		if o.NVMeDevice.Capacity() > 0 {
			perPart = o.NVMeDevice.Capacity() / int64(o.Partitions)
		}
		w := perPart / avgObjectSize / int64(mf)
		if w < 512 {
			w = 512
		}
		if w > math.MaxInt32 {
			w = math.MaxInt32
		}
		o.Tracker.WindowCapacity = int(w)
	}
}

// newDevice builds a simulated device of capacity (def when not positive):
// the paper profile, or a zero-latency one when unthrottled.
func newDevice(name string, capacity, def int64, profile func(int64) device.Profile, unthrottled bool) *device.Device {
	if capacity <= 0 {
		capacity = def
	}
	if unthrottled {
		return device.New(device.UnthrottledProfile(name, capacity))
	}
	return device.New(profile(capacity))
}
