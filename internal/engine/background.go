package engine

import (
	"fmt"
	"sync"
	"time"
)

// Tick is the background workers' poll period: a worker with nothing to be
// woken for still looks for work this often.
const Tick = 2 * time.Millisecond

// Work is the one background worker loop, shared by every engine's flush,
// migration and compaction threads. On every Tick or wake it runs step, and
// runs it again at once while step reports more work. An error ends the
// round and is noted in errs; the next round retries. Work returns when
// stop closes. A nil wake waits for the tick alone.
func Work(stop, wake <-chan struct{}, errs *Errors, step func() (more bool, err error)) {
	t := time.NewTicker(Tick)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-wake:
		case <-t.C:
		}
		for {
			more, err := step()
			if err != nil {
				errs.Note(err)
			}
			if err != nil || !more {
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

// Errors is the ledger of the errors background workers gave up on. A
// worker's error is not fatal — its next round retries — but it must not
// vanish: the ledger keeps the running count and the newest error for
// stats, and hands the errors noted since the last Take to the next Take,
// so a run whose background died fails at its next DrainBackground instead
// of reporting numbers from half an engine. The zero value is ready to use.
type Errors struct {
	mu    sync.Mutex
	count uint64 // noted since the engine opened
	taken uint64 // count at the last Take
	last  error
}

// Note records one error a worker gave up on.
func (e *Errors) Note(err error) {
	e.mu.Lock()
	e.count++
	e.last = err
	e.mu.Unlock()
}

// Count returns how many errors have been noted since the engine opened and
// the newest of them (nil if none).
func (e *Errors) Count() (n uint64, last error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.count, e.last
}

// Take returns the errors noted since the last Take — their number and the
// newest, wrapped so errors.Is sees it — or nil if there were none. Each
// error is returned by one Take only.
func (e *Errors) Take() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := e.count - e.taken
	if n == 0 {
		return nil
	}
	e.taken = e.count
	return fmt.Errorf("%d background errors since the last drain, last: %w", n, e.last)
}
