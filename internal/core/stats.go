package core

import (
	"fmt"
	"strings"

	"hyperdb/internal/hotness"
	"hyperdb/internal/stats"
	"hyperdb/internal/zone"
)

// LevelStats describes one LSM level aggregated across partitions.
type LevelStats struct {
	Level        int
	Tables       int
	LiveBytes    int64
	FileBytes    int64
	CompactReads uint64
	CompactWrite uint64
	Compactions  uint64
	FullRewrites uint64
	// RawBytes/StoredBytes are uncompressed vs on-device sizes of every
	// data block written at the level; raw/stored is the compression ratio
	// and raw-stored is the compaction traffic the codec saved.
	RawBytes    uint64
	StoredBytes uint64
	// IndexBytes is what the level wrote that was not a data block: index
	// blocks and footers, CompactWrite - StoredBytes. The two counters are
	// not read at one instant, so it is clamped at zero.
	IndexBytes uint64
}

// Stats is a point-in-time view of the engine for the experiment harness.
type Stats struct {
	// Device accounting.
	NVMe stats.Snapshot
	SATA stats.Snapshot
	// Capacity usage, and the memory the simulated devices' files hold:
	// each page's non-zero 32-byte granules, so held= on the STATS line
	// reads below used= by the zero bytes (slot padding) the pages hold.
	NVMeUsed     int64
	NVMeCapacity int64
	SATAUsed     int64
	NVMeHeld     int64
	SATAHeld     int64
	// Zone tier aggregates.
	Zone zone.Stats
	// Per-level LSM aggregates (index 0 = L1).
	Levels []LevelStats
	// DRAM cache: probes (pages, blocks and objects alike), object fills
	// admission refused and, in the bytes the cache charges, what it holds —
	// objects as against pages and blocks, the warm share (entries that were
	// hit, or are objects) and the frequency sketches.
	CacheHits        uint64
	CacheMisses      uint64
	CacheRejected    uint64
	CacheObjects     int
	CacheObjectBytes int64
	CacheWarmBytes   int64
	CacheSketchBytes int64
	CacheUsedBytes   int64
	CacheCapacity    int64
	// Promotions dropped on queue overflow.
	PromotionsDropped uint64
	// MergeOps counts counter merges resolved through the batch path.
	MergeOps uint64
	// BackgroundErrors counts migration and compaction passes the workers
	// abandoned on an error; LastBackgroundError is the newest, "" if none.
	BackgroundErrors    uint64
	LastBackgroundError string
	// SpaceAmp is file bytes over live bytes in the capacity tier.
	SpaceAmp float64
	// Trackers holds each partition's hotness-discriminator health snapshot
	// (index = partition).
	Trackers []hotness.Stats
}

// Stats snapshots the engine.
func (db *DB) Stats() Stats {
	s := Stats{
		NVMe:         db.opts.NVMeDevice.Counters().Snapshot(),
		SATA:         db.opts.SATADevice.Counters().Snapshot(),
		NVMeUsed:     db.opts.NVMeDevice.Used(),
		NVMeCapacity: db.opts.NVMeDevice.Capacity(),
		SATAUsed:     db.opts.SATADevice.Used(),
		NVMeHeld:     db.opts.NVMeDevice.Held(),
		SATAHeld:     db.opts.SATADevice.Held(),
	}
	cu := db.cache.Usage()
	s.CacheHits, s.CacheMisses, s.CacheRejected = cu.Hits, cu.Misses, cu.Rejected
	s.CacheObjects, s.CacheObjectBytes, s.CacheWarmBytes = cu.Objects, cu.ObjectBytes, cu.WarmBytes
	s.CacheSketchBytes = cu.SketchBytes
	s.CacheUsedBytes, s.CacheCapacity = cu.Used, cu.Capacity
	s.MergeOps = db.mergeOps.Load()
	var last error
	if s.BackgroundErrors, last = db.errs.Count(); last != nil {
		s.LastBackgroundError = last.Error()
	}

	maxLevels := db.opts.MaxLevels
	s.Levels = make([]LevelStats, maxLevels)
	var live, file int64
	for _, p := range db.parts {
		zs := p.zones.Stats()
		s.Zone.Objects += zs.Objects
		s.Zone.PayloadBytes += zs.PayloadBytes
		s.Zone.Zones += zs.Zones
		s.Zone.MaxZoneBytes = max(s.Zone.MaxZoneBytes, zs.MaxZoneBytes)
		s.Zone.Migrations += zs.Migrations
		s.Zone.MigratedObjects += zs.MigratedObjects
		s.Zone.MigrationPageReads += zs.MigrationPageReads
		s.Zone.InPlaceUpdates += zs.InPlaceUpdates
		s.Zone.Relocations += zs.Relocations
		s.Zone.HotEvictDropped += zs.HotEvictDropped
		s.Zone.HotEvictRelocated += zs.HotEvictRelocated
		s.Zone.Bg.Add(zs.Bg)
		s.PromotionsDropped += p.promoDrop.Load()
		s.Trackers = append(s.Trackers, p.tracker.Stats())
		for l := 1; l <= maxLevels; l++ {
			ls := &s.Levels[l-1]
			ls.Level = l
			ls.Tables += p.tree.TableCount(l)
			lv, fl := p.tree.LevelBytes(l)
			ls.LiveBytes += lv
			ls.FileBytes += fl
			live += lv
			file += fl
			tr := p.tree.Traffic(l)
			ls.CompactReads += tr.ReadBytes.Load()
			ls.CompactWrite += tr.WriteBytes.Load()
			ls.Compactions += tr.Compactions.Load()
			ls.FullRewrites += tr.FullRewrites.Load()
			ls.RawBytes += tr.RawBytes.Load()
			ls.StoredBytes += tr.StoredBytes.Load()
		}
	}
	for i := range s.Levels {
		ls := &s.Levels[i]
		ls.IndexBytes = max(ls.CompactWrite, ls.StoredBytes) - ls.StoredBytes
	}
	if live > 0 {
		s.SpaceAmp = float64(file) / float64(live)
	} else {
		s.SpaceAmp = 1
	}
	return s
}

// String renders a multi-line summary for the hyperctl CLI.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "NVMe: used=%s/%s held=%s  traffic{%s}\n",
		stats.FormatBytes(uint64(s.NVMeUsed)), stats.FormatBytes(uint64(s.NVMeCapacity)),
		stats.FormatBytes(uint64(s.NVMeHeld)), s.NVMe)
	fmt.Fprintf(&b, "SATA: used=%s held=%s  traffic{%s}\n",
		stats.FormatBytes(uint64(s.SATAUsed)), stats.FormatBytes(uint64(s.SATAHeld)), s.SATA)
	fmt.Fprintf(&b, "Zone tier: objects=%d zones=%d payload=%s migrations=%d (objects=%d, pageReads=%d) inPlace=%d\n",
		s.Zone.Objects, s.Zone.Zones, stats.FormatBytes(uint64(s.Zone.PayloadBytes)),
		s.Zone.Migrations, s.Zone.MigratedObjects, s.Zone.MigrationPageReads, s.Zone.InPlaceUpdates)
	// The performance tier's background bytes by mechanism; "other" is what
	// the device booked that the zone tier did not issue (index mirror
	// traffic, the recovery scan). The two are not read at one instant.
	bg := s.Zone.Bg
	other := max(s.NVMe.BgReadBytes+s.NVMe.BgWriteBytes, bg.Total()) - bg.Total()
	fmt.Fprintf(&b, "nvme background: demote{r=%s} rebuild{r=%s w=%s} promote{w=%s} hot-evict{r=%s w=%s} other=%s\n",
		stats.FormatBytes(bg.DemotionRead), stats.FormatBytes(bg.RebuildRead), stats.FormatBytes(bg.RebuildWrite),
		stats.FormatBytes(bg.PromotionWrite), stats.FormatBytes(bg.HotEvictRead), stats.FormatBytes(bg.HotEvictWrite),
		stats.FormatBytes(other))
	for _, l := range s.Levels {
		if l.Tables == 0 && l.CompactWrite == 0 {
			continue
		}
		fmt.Fprintf(&b, "L%d: tables=%d live=%s file=%s compactIO{r=%s w=%s index=%s} compactions=%d rewrites=%d",
			l.Level, l.Tables, stats.FormatBytes(uint64(l.LiveBytes)), stats.FormatBytes(uint64(l.FileBytes)),
			stats.FormatBytes(l.CompactReads), stats.FormatBytes(l.CompactWrite), stats.FormatBytes(l.IndexBytes),
			l.Compactions, l.FullRewrites)
		if l.StoredBytes > 0 && l.RawBytes != l.StoredBytes {
			fmt.Fprintf(&b, " compress{raw=%s stored=%s ratio=%.2f}",
				stats.FormatBytes(l.RawBytes), stats.FormatBytes(l.StoredBytes),
				float64(l.RawBytes)/float64(l.StoredBytes))
		}
		b.WriteByte('\n')
	}
	var hit float64
	if probes := s.CacheHits + s.CacheMisses; probes > 0 {
		hit = float64(s.CacheHits) / float64(probes)
	}
	fmt.Fprintf(&b, "cache{hit=%.3f objects=%d objBytes=%s warm=%s used=%s/%s rejected=%d sketch=%s} hits=%d misses=%d  spaceAmp=%.2f promoDropped=%d mergeOps=%d\n",
		hit, s.CacheObjects, stats.FormatBytes(uint64(s.CacheObjectBytes)), stats.FormatBytes(uint64(s.CacheWarmBytes)),
		stats.FormatBytes(uint64(s.CacheUsedBytes)), stats.FormatBytes(uint64(s.CacheCapacity)),
		s.CacheRejected, stats.FormatBytes(uint64(s.CacheSketchBytes)),
		s.CacheHits, s.CacheMisses, s.SpaceAmp, s.PromotionsDropped, s.MergeOps)
	fmt.Fprintf(&b, "background: errors=%d", s.BackgroundErrors)
	if s.LastBackgroundError != "" {
		fmt.Fprintf(&b, " last=%q", s.LastBackgroundError)
	}
	b.WriteByte('\n')
	if len(s.Trackers) > 0 {
		var agg hotness.Stats
		var mem int64
		for _, t := range s.Trackers {
			agg.Seals += t.Seals
			agg.Records += t.Records
			agg.HotHits += t.HotHits
			if t.CascadeDepth > agg.CascadeDepth {
				agg.CascadeDepth = t.CascadeDepth
			}
			mem += t.MemoryBytes
		}
		fmt.Fprintf(&b, "hotness: mem=%s seals=%d depth=%d records=%d hot=%d (%.2f%%)\n",
			stats.FormatBytes(uint64(mem)), agg.Seals, agg.CascadeDepth,
			agg.Records, agg.HotHits, 100*agg.HotRate())
	}
	return b.String()
}
