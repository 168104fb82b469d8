package core

import (
	"errors"
	"fmt"

	"hyperdb/internal/device"
	"hyperdb/internal/engine"
	"hyperdb/internal/keys"
	"hyperdb/internal/semisst"
	"hyperdb/internal/zone"
)

// startWorkers starts a partition's two background threads: migration
// (§3.5 demotion, promotion and hot-zone eviction) and compaction, apart so
// that a full rewrite does not stall demotion. A pass a worker gives up on
// is noted in db.errs and retried on its next round.
func (db *DB) startWorkers(p *partition) {
	db.wg.Add(2)
	go func() {
		defer db.wg.Done()
		engine.Work(db.stop, p.wakeMig, &db.errs, func() (bool, error) { return db.migrationPass(p) })
	}()
	go func() {
		defer db.wg.Done()
		engine.Work(db.stop, p.wakeComp, &db.errs, func() (bool, error) { return db.compactionPass(p) })
	}()
}

// migrationPass is the step of a partition's migration worker: one
// MigrationStep, its error naming the worker.
func (db *DB) migrationPass(p *partition) (more bool, err error) {
	if err := db.MigrationStep(p.id); err != nil {
		return false, fmt.Errorf("migration p%d: %w", p.id, err)
	}
	return false, nil
}

// compactionPass is the step of a partition's compaction worker: at most one
// compaction, and more while it found one to run.
func (db *DB) compactionPass(p *partition) (more bool, err error) {
	did, err := p.tree.Compact(device.Bg)
	if err != nil {
		return false, fmt.Errorf("compaction p%d: %w", p.id, err)
	}
	return did, nil
}

// MigrationStep runs one bounded pass of the §3.5 migration logic for
// partition pid: promotions first (they free the queue), then demotions
// until the device falls below the low watermark, then hot-zone eviction.
// Exposed so tests and benchmarks can drive migration deterministically
// when background workers are disabled.
func (db *DB) MigrationStep(pid int) error {
	p := db.parts[pid]

	// Drain the promotion queue (the in-memory object cache flush). Each
	// promotion applies under the partition's write lock, so no write to
	// the key is half applied while the zone tier decides whether it still
	// may copy the value its read found. Buffers go back to the pool and
	// their reserved slots free up whether or not the promotion succeeded.
	for {
		select {
		case pr := <-p.promoCh:
			p.writeMu.Lock()
			err := p.zones.Promote(pr.key, pr.value, pr.seq, pr.pos)
			p.writeMu.Unlock()
			pr.key, pr.value = pr.key[:0], pr.value[:0]
			db.promoPool.Put(pr)
			p.promoSlots.Add(1)
			if errors.Is(err, device.ErrNoSpace) || errors.Is(err, zone.ErrSuperseded) {
				// A promotion is a copy: the object stays readable in the
				// capacity tier, so a full performance tier drops it
				// rather than failing the pass before the demotions
				// below can free space. A promotion a newer demoted
				// write may have overtaken is dropped the same way.
				p.promoDrop.Add(1)
				continue
			}
			if err != nil {
				return err
			}
			continue
		default:
		}
		break
	}

	// Rebuild one oversized zone per pass (§3.2's periodic zone rebuild), so
	// bootstrap-era zones shrink to the current width estimate — but only
	// while the partition is resident, its capacity tier still empty. A split
	// transiently doubles the zone's footprint; when the device cannot absorb
	// that, leave the zone alone — an oversized zone under a skewed workload
	// is usually the *hottest* range, and the watermark demotion below still
	// reclaims space by score when pressure is real.
	//
	// Once the partition has demoted anything it is tiered: a zone fills and
	// leaves within one tier cycle, Eq. 2 sizes its successor from the
	// resident density, and rewriting it first costs a slot read and the
	// slot's share of a page write (512 device bytes for a 152-byte object)
	// on data that is about to go. There an oversized zone is not rebuilt; it is the first
	// demotion victim instead (see victim).
	if p.tree.Empty() {
		if z, zBytes := p.zones.PickOversizedZone(); z != nil {
			free := db.opts.NVMeDevice.Capacity() - db.opts.NVMeDevice.Used()
			if free > 2*zBytes {
				if _, err := p.zones.SplitZone(z); err != nil {
					return err
				}
			}
		}
	}

	// When the tier crosses its high watermark, demote zones (one migration
	// batch of adjacent keys each) until usage falls below the low
	// watermark (§3.5).
	if db.opts.NVMeDevice.UsedFraction() >= db.opts.HighWatermark {
		for db.opts.NVMeDevice.UsedFraction() >= db.opts.LowWatermark {
			z := p.victim()
			if z == nil {
				break
			}
			if err := db.demoteZone(p, z); err != nil {
				return err
			}
		}
	}

	if p.zones.HotZoneOver() {
		if err := p.zones.EvictHotZone(p.tracker.IsHot); err != nil {
			return err
		}
	}
	db.wake(p.wakeComp)
	return nil
}

// victim picks the partition's next zone to demote: by §3.5 score, except
// that a tiered partition sends an oversized zone first. That is what bounds
// a migration batch there — OversizeFactor×B plus what arrives before the
// next pass — now that such a zone is no longer split.
func (p *partition) victim() *zone.Zone {
	if !p.tree.Empty() {
		if z, _ := p.zones.PickOversizedZone(); z != nil {
			return z
		}
	}
	return p.zones.PickDemotionVictim()
}

// demoteZone migrates one zone into the capacity tier's L1. A nil batch
// means a racing migration already took the zone.
func (db *DB) demoteZone(p *partition, z *zone.Zone) error {
	batch, err := p.zones.PrepareMigration(z)
	if err != nil || batch == nil {
		return err
	}
	entries := make([]semisst.Entry, 0, len(batch.Entries))
	for _, e := range batch.Entries {
		// The batch already owns cloned key/value buffers (PrepareMigration
		// detaches them) and the semi-SST copies whatever it retains, so the
		// entries can borrow directly — no per-object key clone here.
		entries = append(entries, semisst.Entry{
			Key:   keys.InternalKey{User: e.Key, Seq: e.Seq, Kind: kindOf(e.Tombstone)},
			Value: e.Value,
		})
	}
	if err := p.tree.Ingest(entries, device.Bg); err != nil {
		p.zones.AbortMigration(batch)
		return err
	}
	p.zones.CommitMigration(batch)
	return nil
}

// CompactionStep runs at most one compaction for partition pid, reporting
// whether any work was done. For deterministic test/benchmark driving.
func (db *DB) CompactionStep(pid int) (bool, error) {
	return db.parts[pid].tree.Compact(device.Bg)
}

// BackgroundStep runs one migration pass and at most one compaction on every
// partition: the unit a crash test steps the engine by.
func (db *DB) BackgroundStep() error {
	for pid := range db.parts {
		if err := db.MigrationStep(pid); err != nil {
			return err
		}
		if _, err := db.CompactionStep(pid); err != nil {
			return err
		}
	}
	return nil
}

// DrainBackground runs migration and compaction across all partitions until
// the system is quiescent: NVMe below the low watermark (or nothing left to
// demote) and no compaction debt. Benchmarks call this to flush background
// work out of measurement windows. It then reports — once — the passes the
// workers abandoned on an error since the last drain, with the newest error.
func (db *DB) DrainBackground() error {
	for work := true; work; {
		work = false
		for _, p := range db.parts {
			before := p.zones.Stats().Migrations
			if err := db.MigrationStep(p.id); err != nil {
				return err
			}
			if p.zones.Stats().Migrations != before {
				work = true
			}
			for {
				did, err := p.tree.Compact(device.Bg)
				if err != nil {
					return err
				}
				if !did {
					break
				}
				work = true
			}
		}
	}
	return db.errs.Take()
}
