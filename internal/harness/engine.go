// Package harness runs the paper's experiments: it builds any of the four
// engines (HyperDB, RocksDB-style, RocksDB-SC, PrismDB-style) over a fresh
// pair of simulated devices, loads a dataset, replays YCSB operation
// streams with concurrent clients, and reports throughput, latency
// percentiles, traffic volumes and utilisation — the raw series behind
// every figure.
package harness

import (
	"fmt"

	"hyperdb"
	"hyperdb/internal/baseline/prismish"
	"hyperdb/internal/baseline/rocksish"
	"hyperdb/internal/compress"
	"hyperdb/internal/device"
	"hyperdb/internal/engine"
	"hyperdb/internal/hotness"
)

// EngineKind names the four §4.1 systems.
type EngineKind string

// The four engines under test.
const (
	KindHyperDB   EngineKind = "hyperdb"
	KindRocksDB   EngineKind = "rocksdb"
	KindRocksDBSC EngineKind = "rocksdb-sc"
	KindPrismDB   EngineKind = "prismdb"
)

// AllKinds lists the engines in the paper's presentation order.
var AllKinds = []EngineKind{KindRocksDB, KindRocksDBSC, KindPrismDB, KindHyperDB}

// Label is the name figures print for the kind.
func (k EngineKind) Label() string {
	switch k {
	case KindHyperDB:
		return "HyperDB"
	case KindRocksDB:
		return "RocksDB"
	case KindRocksDBSC:
		return "RocksDB-SC"
	case KindPrismDB:
		return "PrismDB"
	}
	return string(k)
}

// Config sizes one experiment's devices and engine parameters. The defaults
// are the paper's setup scaled down ~400×: the paper loads 100 GiB and runs
// 100 M ops on 960 GB devices; we default to a 256 MiB dataset so every
// figure regenerates in seconds.
type Config struct {
	// NVMeCapacity and SATACapacity size the devices.
	NVMeCapacity int64
	SATACapacity int64
	// Unthrottled removes device timing (unit tests; traffic still counts).
	Unthrottled bool
	// BackgroundThreads for the baselines' compaction pools (paper: 8).
	BackgroundThreads int
	// Partitions for HyperDB (paper: 8).
	Partitions int
	// CacheBytes is the shared DRAM budget (paper: 64 MiB; scale it with
	// the dataset or DRAM serves everything and tiers stop mattering).
	CacheBytes int64
	// FileSize is the SSTable / migration batch size.
	FileSize int64
	// Ratio overrides the baselines' level size ratio (default 6).
	Ratio int
	// DisableBackground turns engines' workers off (deterministic tests).
	DisableBackground bool
	// Tracker overrides HyperDB's hotness-tracker configuration (zero =
	// paper defaults). Baseline engines ignore it.
	Tracker hotness.Config
	// Compress names the capacity-tier block codec for every engine (same
	// syntax as hyperdb.Options.Compress: "" / "off" disables, "on" / "lz"
	// enables). The zone tier and memtables stay raw either way.
	Compress string
}

// Fill applies scaled defaults.
func (c *Config) Fill() {
	if c.NVMeCapacity <= 0 {
		c.NVMeCapacity = 48 << 20
	}
	if c.SATACapacity <= 0 {
		c.SATACapacity = 4 << 30
	}
	if c.BackgroundThreads <= 0 {
		c.BackgroundThreads = 8
	}
	if c.Partitions <= 0 {
		c.Partitions = 8
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 8 << 20
	}
	if c.FileSize <= 0 {
		c.FileSize = 1 << 20
	}
	if c.Ratio <= 1 {
		c.Ratio = 6
	}
}

// Instance is a built engine plus its devices. Engine is what the runner
// drives; it is a *core.DB, *rocksish.DB or *prismish.DB, which figures that
// need one engine's own counters reach by a type switch.
type Instance struct {
	Engine engine.Engine
	NVMe   *device.Device
	SATA   *device.Device
	Kind   EngineKind
}

// newDevices builds the simulated device pair cfg describes.
func newDevices(cfg Config) (nvme, sata *device.Device) {
	if cfg.Unthrottled {
		return device.New(device.UnthrottledProfile("nvme", cfg.NVMeCapacity)),
			device.New(device.UnthrottledProfile("sata", cfg.SATACapacity))
	}
	return device.New(device.NVMeProfile(cfg.NVMeCapacity)), device.New(device.SATAProfile(cfg.SATACapacity))
}

// Build constructs a fresh engine of the given kind over new devices.
func Build(kind EngineKind, cfg Config) (*Instance, error) {
	cfg.Fill()
	if kind == KindHyperDB {
		return buildHyper(cfg, func(*hyperdb.Options) {})
	}
	codec, err := compress.Parse(cfg.Compress)
	if err != nil {
		return nil, err
	}
	policy := compress.Policy{Codec: codec, MinLevel: 1}
	nvme, sata := newDevices(cfg)
	inst := &Instance{NVMe: nvme, SATA: sata, Kind: kind}
	switch kind {
	case KindRocksDB, KindRocksDBSC:
		// Scale the memtable with the NVMe budget so the embedding
		// deployment can actually host its top levels there, like the
		// paper's RocksDB-with-db_paths setup.
		mem := min(max(cfg.NVMeCapacity/24, 128<<10), 64<<20)
		inst.Engine, err = rocksish.Open(rocksish.Options{
			NVMe:              nvme,
			SATA:              sata,
			SecondaryCache:    kind == KindRocksDBSC,
			MemtableBytes:     mem,
			CacheBytes:        cfg.CacheBytes,
			FileSize:          cfg.FileSize,
			L1Target:          4 * cfg.FileSize,
			Ratio:             cfg.Ratio,
			MaxLevels:         5,
			BackgroundThreads: cfg.BackgroundThreads,
			DisableBackground: cfg.DisableBackground,
			Compress:          policy,
		})
	case KindPrismDB:
		inst.Engine, err = prismish.Open(prismish.Options{
			NVMe:              nvme,
			SATA:              sata,
			CacheBytes:        cfg.CacheBytes,
			FileSize:          cfg.FileSize,
			L1Target:          4 * cfg.FileSize,
			Ratio:             cfg.Ratio,
			MaxLevels:         4,
			BackgroundThreads: cfg.BackgroundThreads,
			DisableBackground: cfg.DisableBackground,
			Compress:          policy,
		})
	default:
		return nil, fmt.Errorf("harness: unknown engine %q", kind)
	}
	if err != nil {
		return nil, err
	}
	return inst, nil
}

// buildHyper opens HyperDB, devices and all, from cfg's options after mut
// has adjusted them (the ablation study changes one at a time).
func buildHyper(cfg Config, mut func(*hyperdb.Options)) (*Instance, error) {
	opts := hyperdb.Options{
		NVMeCapacity:      cfg.NVMeCapacity,
		SATACapacity:      cfg.SATACapacity,
		Unthrottled:       cfg.Unthrottled,
		Partitions:        cfg.Partitions,
		CacheBytes:        cfg.CacheBytes,
		MigrationBatch:    cfg.FileSize,
		DisableBackground: cfg.DisableBackground,
		Tracker:           cfg.Tracker,
		Compress:          cfg.Compress,
	}
	mut(&opts)
	db, err := hyperdb.Open(opts)
	if err != nil {
		return nil, err
	}
	return &Instance{Engine: db, NVMe: db.NVMe(), SATA: db.SATA(), Kind: KindHyperDB}, nil
}
