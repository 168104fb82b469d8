package leveled

import (
	"fmt"
	"time"

	"hyperdb/internal/device"
)

// NoteBackgroundError records an error a background worker gave up on (the
// worker's next pass retries). The count and the newest error are kept and
// handed to the next Drain, so a run whose flush, migration or compaction
// died fails there instead of reporting numbers from half an engine.
func (l *LSM) NoteBackgroundError(err error) {
	l.bgMu.Lock()
	l.bgErrs++
	l.lastBgErr = err
	l.bgMu.Unlock()
}

// RunCompactor is one background compaction thread, the same for both
// baselines: on every tick or wake it compacts until nothing is actionable.
// An error ends the round and is noted. Returns when stop closes.
func (l *LSM) RunCompactor(stop, wake <-chan struct{}, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-wake:
		case <-t.C:
		}
		for {
			did, err := l.CompactOnce(device.Bg)
			if err != nil {
				l.NoteBackgroundError(err)
			}
			if err != nil || !did {
				break
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}
}

// Drain compacts on the caller's goroutine until no level is over budget and
// no compaction is in flight, then reports — and forgets — the errors noted
// since the last Drain.
func (l *LSM) Drain() error {
	for {
		did, err := l.CompactOnce(device.Bg)
		if err != nil {
			return err
		}
		if did {
			continue
		}
		if l.Quiesced() {
			break
		}
		// A background thread holds the remaining work; yield and re-check.
		time.Sleep(time.Millisecond)
	}
	l.bgMu.Lock()
	defer l.bgMu.Unlock()
	if l.bgErrs == 0 {
		return nil
	}
	err := fmt.Errorf("leveled: %d background errors, last: %w", l.bgErrs, l.lastBgErr)
	l.bgErrs, l.lastBgErr = 0, nil
	return err
}
