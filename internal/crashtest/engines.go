package crashtest

import (
	"errors"

	"hyperdb/internal/baseline/prismish"
	"hyperdb/internal/baseline/rocksish"
	"hyperdb/internal/compress"
	"hyperdb/internal/core"
	"hyperdb/internal/device"
	"hyperdb/internal/engine"
)

// crashCompress is the codec policy every engine runs its crash cycles
// under: compressed capacity-tier blocks from L1 down, so torn writes land
// inside compressed payloads and recovery must fail them closed (drop the
// torn table, keep serving) rather than decode garbage. HyperDB names the
// same policy as Compress "lz" (its CompressMinLevel defaults to 1).
var crashCompress = compress.Policy{Codec: compress.LZ, MinLevel: 1}

// Config carries the two simulated devices a cycle runs against. Capacities
// are deliberately tiny so a short trace forces flushes, migrations and
// compactions — the windows the fault plan cuts into.
type Config struct {
	NVMe *device.Device
	SATA *device.Device
}

// incr adds delta to the counter at key (missing = base 0) and returns the
// post-merge value. Incr is not part of the engine contract — only HyperDB
// has a merge operator — so an engine that has one uses it, and the
// baselines emulate it with a read-modify-write: read the counter, add
// saturating, write the new encoding back. Not atomic, which is fine — the
// harness drives each engine single-threaded.
func incr(e engine.Engine, key []byte, delta int64) (int64, error) {
	if m, ok := e.(interface {
		Incr([]byte, int64) (int64, error)
	}); ok {
		return m.Incr(key, delta)
	}
	var base int64
	switch cur, err := e.Get(key); {
	case err == nil:
		if base, err = core.DecodeCounter(cur); err != nil {
			return 0, err
		}
	case errors.Is(err, engine.ErrNotFound):
	default:
		return 0, err
	}
	v := core.SatAdd(base, delta)
	if err := e.Put(key, core.EncodeCounter(v)); err != nil {
		return 0, err
	}
	return v, nil
}

// Factory opens an engine over whatever its devices hold — nothing on a
// fresh cycle, surviving state after a crash — plus the device capacities
// it is sized for.
type Factory struct {
	Name    string
	NVMeCap int64
	SATACap int64
	Open    func(Config) (engine.Engine, error)
}

// Factories returns the three engines under crash test: HyperDB and the two
// baselines. All run with background workers disabled — the trace's step ops
// drive flush/migration/compaction through BackgroundStep, which keeps every
// cycle deterministic for a given seed.
func Factories() []Factory {
	return []Factory{
		{
			Name:    "hyperdb",
			NVMeCap: 64 << 10,
			SATACap: 1 << 20,
			Open:    func(c Config) (engine.Engine, error) { return core.Open(hyperOpts(c)) },
		},
		{
			Name:    "rocksish",
			NVMeCap: 64 << 10,
			SATACap: 2 << 20,
			Open:    func(c Config) (engine.Engine, error) { return rocksish.Open(rocksOpts(c)) },
		},
		{
			Name:    "prismish",
			NVMeCap: 64 << 10,
			SATACap: 1 << 20,
			Open:    func(c Config) (engine.Engine, error) { return prismish.Open(prismOpts(c)) },
		},
	}
}

func hyperOpts(c Config) core.Options {
	return core.Options{
		NVMeDevice:        c.NVMe,
		SATADevice:        c.SATA,
		Partitions:        2,
		CacheBytes:        64 << 10,
		MigrationBatch:    8 << 10,
		MaxLevels:         3,
		DisableBackground: true,
		Compress:          "lz",
	}
}

func rocksOpts(c Config) rocksish.Options {
	return rocksish.Options{
		NVMe:              c.NVMe,
		SATA:              c.SATA,
		MemtableBytes:     2 << 10,
		CacheBytes:        64 << 10,
		FileSize:          4 << 10,
		L1Target:          8 << 10,
		Ratio:             4,
		MaxLevels:         3,
		DisableBackground: true,
		Compress:          crashCompress,
	}
}

func prismOpts(c Config) prismish.Options {
	return prismish.Options{
		NVMe:              c.NVMe,
		SATA:              c.SATA,
		CacheBytes:        64 << 10,
		HighWatermark:     0.6,
		LowWatermark:      0.4,
		BatchObjects:      24,
		FileSize:          4 << 10,
		L1Target:          8 << 10,
		Ratio:             4,
		MaxLevels:         3,
		DisableBackground: true,
		Compress:          crashCompress,
	}
}
