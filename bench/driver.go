package main

import (
	"hyperdb"
)

// passEvery is the longest run of foreground calls without a background
// pass, whatever the tier's fill level.
const passEvery = 1024

// bgDriver does the engine's background work from the foreground goroutine,
// for the workloads opened with DisableBackground. The production workers
// wake on 2 ms tickers, so how much they demote between two foreground calls
// is up to the scheduler and identical inputs give write amplification
// anywhere from 5 to 17; driving the same MigrationStep/CompactionStep calls
// at fixed points of the op stream makes the work a function of the inputs.
//
// The partition a pass starts at rotates by one each pass. The NVMe device
// is shared: in fixed 0..7 order the first partitions demote everything they
// own whenever the tier fills and the last ones never have to, so the tier
// ends up holding two partitions' data and write amplification quadruples.
type bgDriver struct {
	db     *hyperdb.DB
	high   float64
	start  int
	calls  int
	passes uint64
	rec    *recorder
	parent int32 // span the passes are children of
}

func newBgDriver(db *hyperdb.DB, rec *recorder) *bgDriver {
	return &bgDriver{db: db, high: db.Engine().Options().HighWatermark, rec: rec, parent: -1}
}

// rotation returns the n partition ids in the order a pass starting at
// start visits them.
func rotation(start, n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = (start + i) % n
	}
	return order
}

// afterCall runs after every foreground call: one pass when the tier is at
// its high watermark, and in any case every passEvery calls.
func (d *bgDriver) afterCall() error {
	d.calls++
	if d.calls%passEvery != 0 && d.db.NVMe().UsedFraction() < d.high {
		return nil
	}
	_, err := d.pass()
	return err
}

// pass runs MigrationStep on every partition, then CompactionStep on every
// partition until it reports nothing left, and reports whether any
// compaction did work.
func (d *bgDriver) pass() (compacted bool, err error) {
	order := rotation(d.start, partitions)
	d.start = (d.start + 1) % partitions
	d.passes++
	ps := d.rec.begin(spPass, d.parent)
	defer d.rec.end(ps)
	for _, p := range order {
		s := d.rec.begin(spMigrationStep, ps)
		err := d.db.MigrationStep(p)
		d.rec.end(s)
		if err != nil {
			return compacted, err
		}
	}
	for _, p := range order {
		for {
			s := d.rec.begin(spCompactionIdle, ps)
			did, err := d.db.CompactionStep(p)
			if did {
				d.rec.endAs(s, spCompactionStep)
			} else {
				d.rec.end(s)
			}
			if err != nil {
				return compacted, err
			}
			if !did {
				break
			}
			compacted = true
		}
	}
	return compacted, nil
}

// quiesce runs passes until one moves nothing: no zone migrated and no
// compaction did work.
func (d *bgDriver) quiesce() error {
	for {
		before := d.db.Stats().Zone.Migrations
		compacted, err := d.pass()
		if err != nil {
			return err
		}
		if !compacted && d.db.Stats().Zone.Migrations == before {
			return nil
		}
	}
}
