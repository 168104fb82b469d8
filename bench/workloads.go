package main

import (
	"fmt"

	"hyperdb"
)

// Engine configuration shared by every workload (the issue's common rules).
const (
	partitions     = 8
	cacheBytes     = 8 << 20
	migrationBatch = 1 << 20
	keySize        = 8
	valueSize      = 128
	recordBytes    = keySize + valueSize
	maxProcs       = 2
)

type mixEntry struct {
	kind  kind
	share float64
}

// workload is one named set of inputs plus the engine shape it runs on.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json, README).
	why string
	// served runs the requests through server + wire + client over loopback
	// TCP instead of calling hyperdb.DB directly.
	served bool
	// inline opens the engine with DisableBackground and drives migration
	// and compaction from the benchmark's own goroutine (driver.go).
	inline   bool
	nvme     int64
	compress string
	clients  int
	// records is the loaded dataset; opsPer10s the foreground calls measured
	// for -seconds 10 (other values scale it linearly).
	records   int
	opsPer10s int
	zipf      bool
	mix       []mixEntry
	// workersProbe makes the traced run replay the inputs once with the
	// production workers on and report workers.* (probes.go).
	workersProbe bool
}

func (w *workload) scans() bool {
	for _, m := range w.mix {
		if m.kind == kScan {
			return true
		}
	}
	return false
}

// options returns the engine options of the workload; workers overrides
// the inline driver with the production background workers (the traced
// run's workers.* probe).
func (w *workload) options(sz sizes, workers bool) hyperdb.Options {
	return hyperdb.Options{
		Unthrottled:       true,
		NVMeCapacity:      sz.nvme,
		Partitions:        partitions,
		CacheBytes:        cacheBytes,
		MigrationBatch:    sz.batch,
		Compress:          w.compress,
		DisableBackground: w.inline && !workers,
	}
}

// The sizes are the issue's, scaled down together (dataset, tier and op
// count) so that one run — three set-ups, the measured phase and the final
// sweep — ends in 22 to 28 s on a 2-core box: the driver makes 92 runs in
// 57 minutes. Every set-up takes over 2 s and every measured phase 10 to
// 13 s at -seconds 10.
var workloads = []*workload{
	{
		name: "resident-rw",
		why:  "82 MB in a 256 MiB NVMe tier, 10x the DRAM cache, zipf 50/50 get/update: only the foreground path works (hotness, zone, cache, device), so a hot-path change shows here and a background change must not",
		nvme: 256 << 20, clients: 1, records: 600_000, opsPer10s: 3_500_000, zipf: true,
		mix: []mixEntry{{kGet, 50}, {kUpdate, 50}},
	},
	{
		name: "tiered-write", inline: true,
		why:  "48 MB growing to 109 MB over a 32 MiB NVMe tier, 45/45/10 insert/update/get: demotion, L1 merge and compaction take two thirds of the wall time, the paper's headline regime",
		nvme: 32 << 20, clients: 1, records: 350_000, opsPer10s: 1_000_000,
		mix: []mixEntry{{kInsert, 45}, {kUpdate, 45}, {kGet, 10}},
	},
	{
		name: "tiered-read", inline: true, compress: "lz", workersProbe: true,
		why:  "41 MB over a 24 MiB NVMe tier, zipf 85/10/5 get/update/scan, LZ on: the tiered layers from the read side (bloom, index, block decode, promotion, scan merge), so a write gain paid for by reads shows",
		nvme: 24 << 20, clients: 1, records: 300_000, opsPer10s: 580_000, zipf: true,
		mix: []mixEntry{{kGet, 85}, {kUpdate, 10}, {kScan, 5}},
	},
	{
		name: "served-rw", served: true,
		why:  "resident-rw's dataset behind server, wire and client on loopback TCP, 2 closed-loop clients, 45/45/5/5 get/put/mget/batch: most of a request is spent outside the engine, so a serving change shows here",
		nvme: 256 << 20, clients: 2, records: 600_000, opsPer10s: 390_000, zipf: true,
		mix: []mixEntry{{kGet, 45}, {kUpdate, 45}, {kMGet, 5}, {kBatch, 5}},
	},
}

// workloadNames resolves the -workload flag: one name, or all four.
func workloadNames(sel string) []string {
	if sel != "all" {
		return []string{sel}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// sizes resolves the record and call counts of a run. scale < 1 shrinks the
// dataset, the op count, the NVMe tier and the migration batch together (the
// smoke test's -scale 0.01); the gated runs use scale 1.
type sizes struct {
	records, ops int
	nvme, batch  int64
}

func (w *workload) sizes(seconds int, scale float64) sizes {
	s := sizes{
		records: int(float64(w.records) * scale),
		ops:     int(float64(w.opsPer10s) * scale * float64(seconds) / 10),
		nvme:    w.nvme,
		batch:   migrationBatch,
	}
	if scale < 1 {
		// Small enough that 1 % of a tiered dataset still overflows the tier.
		s.nvme = int64(float64(w.nvme) * scale)
		s.batch = 32 << 10
		if min := int64(partitions) * 3 * s.batch; s.nvme < min {
			s.nvme = min
		}
	}
	s.records -= s.records % w.clients
	s.ops -= s.ops % w.clients
	if s.records < 64*w.clients {
		s.records = 64 * w.clients
	}
	if s.ops < 64*w.clients {
		s.ops = 64 * w.clients
	}
	return s
}
