package main

import (
	"hyperdb/internal/device"
	"hyperdb/internal/stats"
)

// metric is one reported number.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// endToEndDefs fixes the end-to-end metrics: name, unit, direction and the
// share of the parent's median by which a change may worsen it. README.md
// has the definitions, the measured noise, and why each bound is what it is.
var endToEndDefs = []struct {
	name, unit, better string
	bound              float64
}{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"p50_us", "us", "lower", 0.25},
	{"write_amp", "ratio", "lower", 0.15},
	{"bg_bytes_per_user_byte", "ratio", "lower", 0.15},
	{"space_amp", "ratio", "lower", 0.10},
	{"dev_reads_per_key", "ratio", "lower", 0.05},
	{"live_heap_mb", "MiB", "lower", 0.10},
}

// traffic is device traffic since Open relative to the user bytes acked
// since Open. Load is included on purpose: run-phase-only ratios on a
// read-mostly mix swing with single full compactions.
type traffic struct {
	user float64
	nvme stats.Snapshot
	sata stats.Snapshot
}

func (t traffic) per(bytes uint64) float64 { return ratio(float64(bytes), t.user) }

func (t traffic) writeAmp() float64 { return t.per(t.nvme.WriteBytes + t.sata.WriteBytes) }

// bgBytes is the paper's Fig. 11 quantity: bytes read and written by
// migration, flush and compaction on both tiers, per user byte.
func (t traffic) bgBytes() float64 {
	return t.per(t.nvme.BgReadBytes + t.nvme.BgWriteBytes + t.sata.BgReadBytes + t.sata.BgWriteBytes)
}

func fgReadOps(s stats.Snapshot) uint64 { return s.ReadOps - s.BgReadOps }

// endToEnd computes the end-to-end metrics of one untraced run, all but
// live_heap_mb, which the caller reads after releasing its own memory. The
// three times of the measured phase are totals over the whole phase, final
// quiesce included, as the clock and getrusage read them.
func endToEnd(x *instance, m *measured, setups []float64) map[string]float64 {
	tr := traffic{user: float64(x.userBytes), nvme: m.after.NVMe, sata: m.after.SATA}
	fgReads := fgReadOps(m.after.NVMe) + fgReadOps(m.after.SATA) - fgReadOps(m.before.NVMe) - fgReadOps(m.before.SATA)
	return map[string]float64{
		"setup_s":                median(setups),
		"ops_per_s":              m.opsPerSec(),
		"cpu_us_per_op":          m.cpuPerOp(),
		"p50_us":                 percentile(latencies(m.lat), 50),
		"write_amp":              tr.writeAmp(),
		"bg_bytes_per_user_byte": tr.bgBytes(),
		"space_amp":              mean(m.space),
		"dev_reads_per_key":      ratio(float64(fgReads), float64(m.lookups)),
	}
}

// layerSet collects per-layer metrics by name; perLayerDefs fixes their
// order and units, and a name a workload does not reach reads 0.
type layerSet map[string]float64

var perLayerDefs = []struct{ name, unit, better string }{
	// harness: separate machine noise from program change.
	{"bench.gen_s", "s", "lower"},
	{"bench.trace_overhead", "ratio", "higher"},
	{"calib.alu_us", "us", "lower"},
	{"calib.mem_us", "us", "lower"},
	// client / wire / server, served-rw only.
	{"client.get_us", "us", "lower"},
	{"client.put_us", "us", "lower"},
	{"client.mget_us", "us", "lower"},
	{"client.batch_us", "us", "lower"},
	{"server.engine_us_per_req", "us", "lower"},
	{"server.stack_us_per_req", "us", "lower"},
	{"wire.codec_us_per_req", "us", "lower"},
	{"wire.bytes_per_req", "B", "lower"},
	{"server.drain_depth", "count", "higher"},
	{"server.write_batch_ops", "count", "higher"},
	{"server.read_batch_ops", "count", "higher"},
	// core, the embedded workloads.
	{"core.get_us", "us", "lower"},
	{"core.put_us", "us", "lower"},
	{"core.scan_us", "us", "lower"},
	{"core.get_p99_us", "us", "lower"},
	{"core.put_p99_us", "us", "lower"},
	{"core.scan_p99_us", "us", "lower"},
	{"core.lat_samples", "count", "higher"},
	{"core.allocs_per_op", "count", "lower"},
	{"core.alloc_bytes_per_op", "B", "lower"},
	{"core.gc_cycles", "count", "lower"},
	{"core.gc_pause_ms", "ms", "lower"},
	{"core.fg_share", "ratio", "higher"},
	{"core.migration_share", "ratio", "lower"},
	{"core.compaction_share", "ratio", "lower"},
	{"core.bg_passes", "count", "lower"},
	{"core.migration_us_max", "us", "lower"},
	{"core.stalled_puts", "count", "lower"},
	{"core.promotions_dropped", "count", "lower"},
	{"hotness.record_ns", "ns", "lower"},
	{"hotness.hot_rate", "ratio", "higher"},
	{"hotness.memory_mb", "MiB", "lower"},
	{"hotness.seals", "count", "lower"},
	{"zone.inplace_ratio", "ratio", "higher"},
	{"zone.migrations", "count", "lower"},
	{"zone.objects_per_migration", "count", "higher"},
	{"zone.page_reads_per_migrated_object", "ratio", "lower"},
	{"zone.hot_evict_dropped", "count", "lower"},
	{"zone.hot_evict_relocated", "count", "lower"},
	{"zone.object_share", "ratio", "higher"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"lsm.l1_write_per_user_byte", "ratio", "lower"},
	{"lsm.l2_write_per_user_byte", "ratio", "lower"},
	{"lsm.l3_write_per_user_byte", "ratio", "lower"},
	{"lsm.compactions", "count", "lower"},
	{"lsm.full_rewrites", "count", "lower"},
	{"lsm.compaction_us", "us", "lower"},
	{"lsm.space_amp", "ratio", "lower"},
	{"lsm.tables", "count", "lower"},
	{"semisst.get_us", "us", "lower"},
	{"semisst.merge_us_per_entry", "us", "lower"},
	{"semisst.build_mb_per_s", "MB/s", "higher"},
	{"compress.ratio", "ratio", "higher"},
	{"compress.encode_mb_per_s", "MB/s", "higher"},
	{"compress.decode_mb_per_s", "MB/s", "higher"},
	// device: the three traffic metrics split by tier.
	{"device.nvme_write_per_user_byte", "ratio", "lower"},
	{"device.sata_write_per_user_byte", "ratio", "lower"},
	{"device.nvme_bg_read_per_user_byte", "ratio", "lower"},
	{"device.sata_bg_read_per_user_byte", "ratio", "lower"},
	{"device.nvme_bg_write_per_user_byte", "ratio", "lower"},
	{"device.sata_bg_write_per_user_byte", "ratio", "lower"},
	{"device.nvme_reads_per_key", "ratio", "lower"},
	{"device.sata_reads_per_key", "ratio", "lower"},
	{"device.nvme_used_mb", "MiB", "lower"},
	{"device.sata_used_mb", "MiB", "lower"},
	{"device.file_mb", "MiB", "lower"},
	// production workers, observed on tiered-read's inputs, not gated.
	{"workers.ops_per_s", "1/s", "higher"},
	{"workers.write_amp", "ratio", "lower"},
	{"workers.space_amp", "ratio", "lower"},
	{"workers.read_miss", "count", "lower"},
}

func (ls layerSet) metrics() []metric {
	out := make([]metric, 0, len(perLayerDefs))
	for _, d := range perLayerDefs {
		out = append(out, metric{d.name, ls[d.name], d.unit})
	}
	return out
}

const mib = 1 << 20

// engineLayers fills the metrics read off the engine's own counters and the
// measured phase's latency samples; they are exact in traced and untraced
// runs alike.
func (ls layerSet) engineLayers(x *instance, m *measured) {
	st := m.after
	tr := traffic{user: float64(x.userBytes), nvme: st.NVMe, sata: st.SATA}
	calls := float64(m.calls)

	if x.w.served {
		for name, k := range map[string]kind{"client.get_us": kGet, "client.put_us": kUpdate, "client.mget_us": kMGet, "client.batch_us": kBatch} {
			ls[name] = percentile(latencies(m.lat, k), 50)
		}
		ls["server.drain_depth"] = m.srvStats.MeanDrainDepth()
		ls["server.write_batch_ops"] = m.srvStats.MeanWriteBatch()
		ls["server.read_batch_ops"] = m.srvStats.MeanReadBatch()
	} else {
		gets, puts, scans := latencies(m.lat, kGet), latencies(m.lat, kUpdate, kInsert), latencies(m.lat, kScan)
		ls["core.get_us"], ls["core.get_p99_us"] = percentile(gets, 50), percentile(gets, 99)
		ls["core.put_us"], ls["core.put_p99_us"] = percentile(puts, 50), percentile(puts, 99)
		ls["core.scan_us"], ls["core.scan_p99_us"] = percentile(scans, 50), percentile(scans, 99)
		for _, p := range puts {
			if p*1e3 > float64(stallNs) {
				ls["core.stalled_puts"]++
			}
		}
	}
	ls["core.lat_samples"] = float64(len(m.lat))
	ls["core.allocs_per_op"] = float64(m.mem1.Mallocs-m.mem0.Mallocs) / calls
	ls["core.alloc_bytes_per_op"] = float64(m.mem1.TotalAlloc-m.mem0.TotalAlloc) / calls
	ls["core.gc_cycles"] = float64(m.mem1.NumGC - m.mem0.NumGC)
	ls["core.gc_pause_ms"] = float64(m.mem1.PauseTotalNs-m.mem0.PauseTotalNs) / 1e6
	ls["core.bg_passes"] = float64(m.passes)
	ls["core.promotions_dropped"] = float64(st.PromotionsDropped)

	var records, hot, seals uint64
	var mem int64
	for _, t := range st.Trackers {
		records, hot, seals, mem = records+t.Records, hot+t.HotHits, seals+t.Seals, mem+t.MemoryBytes
	}
	ls["hotness.hot_rate"] = ratio(float64(hot), float64(records))
	ls["hotness.memory_mb"] = float64(mem) / mib
	ls["hotness.seals"] = float64(seals)

	z := st.Zone
	ls["zone.inplace_ratio"] = ratio(float64(z.InPlaceUpdates), float64(z.InPlaceUpdates+z.Relocations))
	ls["zone.migrations"] = float64(z.Migrations)
	ls["zone.objects_per_migration"] = ratio(float64(z.MigratedObjects), float64(z.Migrations))
	ls["zone.page_reads_per_migrated_object"] = ratio(float64(z.MigrationPageReads), float64(z.MigratedObjects))
	ls["zone.hot_evict_dropped"] = float64(z.HotEvictDropped)
	ls["zone.hot_evict_relocated"] = float64(z.HotEvictRelocated)
	ls["zone.object_share"] = ratio(float64(z.Objects), float64(x.live))

	ls["cache.hit_ratio"] = ratio(float64(st.CacheHits-m.before.CacheHits),
		float64(st.CacheHits-m.before.CacheHits+st.CacheMisses-m.before.CacheMisses))

	var raw, stored uint64
	for i, l := range st.Levels {
		if i < 3 {
			ls["lsm.l"+string(rune('1'+i))+"_write_per_user_byte"] = tr.per(l.CompactWrite)
		}
		ls["lsm.compactions"] += float64(l.Compactions)
		ls["lsm.full_rewrites"] += float64(l.FullRewrites)
		ls["lsm.tables"] += float64(l.Tables)
		raw, stored = raw+l.RawBytes, stored+l.StoredBytes
	}
	ls["lsm.space_amp"] = st.SpaceAmp
	ls["compress.ratio"] = ratio(float64(raw), float64(stored))

	ls["device.nvme_write_per_user_byte"] = tr.per(st.NVMe.WriteBytes)
	ls["device.sata_write_per_user_byte"] = tr.per(st.SATA.WriteBytes)
	ls["device.nvme_bg_read_per_user_byte"] = tr.per(st.NVMe.BgReadBytes)
	ls["device.sata_bg_read_per_user_byte"] = tr.per(st.SATA.BgReadBytes)
	ls["device.nvme_bg_write_per_user_byte"] = tr.per(st.NVMe.BgWriteBytes)
	ls["device.sata_bg_write_per_user_byte"] = tr.per(st.SATA.BgWriteBytes)
	ls["device.nvme_reads_per_key"] = ratio(float64(fgReadOps(st.NVMe)-fgReadOps(m.before.NVMe)), float64(m.lookups))
	ls["device.sata_reads_per_key"] = ratio(float64(fgReadOps(st.SATA)-fgReadOps(m.before.SATA)), float64(m.lookups))
	ls["device.nvme_used_mb"] = float64(st.NVMeUsed) / mib
	ls["device.sata_used_mb"] = float64(st.SATAUsed) / mib
	ls["device.file_mb"] = float64(fileBytes(x)) / mib
}

// fileBytes is the size of every simulated file on both devices: memory the
// process holds on the engine's behalf, and part of live_heap_mb.
func fileBytes(x *instance) int64 {
	var n int64
	for _, dev := range []*device.Device{x.db.NVMe(), x.db.SATA()} {
		for _, name := range dev.List() {
			if f, err := dev.Open(name); err == nil {
				n += f.Size()
			}
		}
	}
	return n
}

// spanLayers fills the metrics that need spans: which of foreground,
// migration and compaction bounds ops_per_s, and how long the steps take.
func (ls layerSet) spanLayers(rec *recorder, m *measured) {
	wall := float64(m.wall)
	var fg uint64
	for _, n := range []spanName{spGet, spPut, spScan} {
		fg += rec.aggs[n].sumNs
	}
	ls["core.fg_share"] = float64(fg) / wall
	mig, migSum := rec.window(spMigrationStep, m.from, m.to)
	ls["core.migration_share"] = float64(migSum) / wall
	for _, d := range mig {
		if us := float64(d) / 1e3; us > ls["core.migration_us_max"] {
			ls["core.migration_us_max"] = us
		}
	}
	comp, compSum := rec.window(spCompactionStep, m.from, m.to)
	_, idleSum := rec.window(spCompactionIdle, m.from, m.to)
	ls["core.compaction_share"] = float64(compSum+idleSum) / wall
	us := make([]float64, len(comp))
	for i, d := range comp {
		us[i] = float64(d) / 1e3
	}
	ls["lsm.compaction_us"] = median(us)
}
