package hyperdb

import (
	"time"

	"hyperdb/internal/compress"
	"hyperdb/internal/core"
	"hyperdb/internal/device"
	"hyperdb/internal/hotness"
)

// Options configures Open. Either provide pre-built devices (sharing them
// with a harness that reads their counters) or set capacities and let Open
// build paper-profile simulated devices.
type Options struct {
	// NVMeDevice and SATADevice, when non-nil, are used directly.
	NVMeDevice *device.Device
	SATADevice *device.Device

	// NVMeCapacity and SATACapacity size devices built by Open when the
	// device fields are nil. Defaults: 256 MiB NVMe, 8 GiB SATA.
	NVMeCapacity int64
	SATACapacity int64

	// Unthrottled builds zero-latency devices (unit tests).
	Unthrottled bool

	// Partitions is the shared-nothing partition count (paper: 8).
	Partitions int
	// CacheBytes sizes the shared DRAM cache (paper: 64 MiB); the engine
	// caches CacheBytes + CacheBytes/4, see core.Options.
	CacheBytes int64
	// MigrationBatch is B, the zone capacity and semi-SSTable file size.
	MigrationBatch int64
	// HighWatermark / LowWatermark bound the NVMe demotion hysteresis.
	HighWatermark float64
	LowWatermark  float64
	// HotZoneFraction is each partition's hot-zone share of NVMe.
	HotZoneFraction float64
	// Tracker overrides the hotness tracker configuration.
	Tracker hotness.Config
	// Ratio is the LSM size ratio T (paper: 10).
	Ratio int
	// L1Segments is the per-partition file count at L1.
	L1Segments int
	// MaxLevels bounds LSM depth.
	MaxLevels int
	// CompactionDepth is k, the preemptive block-compaction chase depth.
	CompactionDepth int
	// TClean is the dirty ratio forcing a full table compaction.
	TClean float64
	// SpaceAmpLimit switches victim selection to dirtiest-first.
	SpaceAmpLimit float64
	// PowerK is the power-of-k victim sampling width (paper: 8).
	PowerK int
	// DisableIndexMirror turns off §3.1's NVMe backup of LSM indexes.
	DisableIndexMirror bool
	// DisableBackground turns off background workers (drive migration and
	// compaction manually via MigrationStep/CompactionStep).
	DisableBackground bool
	// BackgroundInterval is the workers' idle poll period.
	BackgroundInterval time.Duration
	// AvgObjectSize seeds sizing estimates before data arrives.
	AvgObjectSize int
	// Compress names the capacity-tier block codec ("", "off" or "none"
	// disables; "on" or "lz" enables the built-in LZ codec). Only
	// semi-SSTable blocks at CompressMinLevel and deeper are compressed; the
	// NVMe zone tier always stays raw.
	Compress string
	// CompressMinLevel is the shallowest LSM level the codec applies to
	// (default 1: every capacity-tier level).
	CompressMinLevel int
	// AntiEntropy maintains an incremental Merkle tree over the keyspace so
	// a diverged replica can rejoin by fetching only divergent ranges
	// instead of a full snapshot.
	AntiEntropy bool
	// Follower opens the DB as a replication follower: foreground writes
	// return ErrFollower and the only write path is the replicated apply.
	Follower bool
	// Tee, when non-nil, receives every committed write for replication log
	// shipping (see internal/repl).
	Tee core.Tee
}

// DefaultOptions returns a laptop-scale configuration with paper-profile
// simulated devices: 256 MiB NVMe performance tier, 8 GiB SATA capacity
// tier.
func DefaultOptions() Options {
	return Options{}
}

// resolve builds devices as needed and maps to the engine's option set.
func (o Options) resolve() (core.Options, error) {
	codec, err := compress.Parse(o.Compress)
	if err != nil {
		return core.Options{}, err
	}
	minLevel := o.CompressMinLevel
	if minLevel <= 0 {
		minLevel = 1
	}
	nvme, sata := o.NVMeDevice, o.SATADevice
	if nvme == nil {
		capNVMe := o.NVMeCapacity
		if capNVMe <= 0 {
			capNVMe = 256 << 20
		}
		if o.Unthrottled {
			nvme = device.New(device.UnthrottledProfile("nvme", capNVMe))
		} else {
			nvme = device.New(device.NVMeProfile(capNVMe))
		}
	}
	if sata == nil {
		capSATA := o.SATACapacity
		if capSATA <= 0 {
			capSATA = 8 << 30
		}
		if o.Unthrottled {
			sata = device.New(device.UnthrottledProfile("sata", capSATA))
		} else {
			sata = device.New(device.SATAProfile(capSATA))
		}
	}
	return core.Options{
		NVMe:               nvme,
		SATA:               sata,
		Partitions:         o.Partitions,
		CacheBytes:         o.CacheBytes,
		MigrationBatch:     o.MigrationBatch,
		HighWatermark:      o.HighWatermark,
		LowWatermark:       o.LowWatermark,
		HotZoneFraction:    o.HotZoneFraction,
		Tracker:            o.Tracker,
		Ratio:              o.Ratio,
		L1Segments:         o.L1Segments,
		MaxLevels:          o.MaxLevels,
		CompactionDepth:    o.CompactionDepth,
		TClean:             o.TClean,
		SpaceAmpLimit:      o.SpaceAmpLimit,
		PowerK:             o.PowerK,
		MirrorIndexToNVMe:  !o.DisableIndexMirror,
		DisableBackground:  o.DisableBackground,
		BackgroundInterval: o.BackgroundInterval,
		AvgObjectSize:      o.AvgObjectSize,
		CompressPolicy:     compress.Policy{Codec: codec, MinLevel: minLevel},
		AntiEntropy:        o.AntiEntropy,
		Follower:           o.Follower,
		Tee:                o.Tee,
	}, nil
}
