package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyperdb/internal/device"
)

// TestCloseConcurrent is the regression test for the hyperd shutdown race:
// a signal handler's Close racing a deferred Close. Every Close caller must
// return only after the background workers have stopped, and foreground
// ops racing the close must either complete or fail with ErrClosed — never
// panic or deadlock.
func TestCloseConcurrent(t *testing.T) {
	db, err := Open(Options{
		NVMeDevice: device.New(device.UnthrottledProfile("nvme", 16<<20)),
		SATADevice: device.New(device.UnthrottledProfile("sata", 256<<20)),
		Partitions: 2,
		CacheBytes: 1 << 20,
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	// Foreground writers keep the engine hot while Close lands.
	var opWG sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		opWG.Add(1)
		go func(g int) {
			defer opWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				err := db.Put([]byte(fmt.Sprintf("k%d-%d", g, i)), []byte("v"))
				if err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("put during close: %v", err)
					return
				}
			}
		}(g)
	}

	time.Sleep(5 * time.Millisecond)
	var closers sync.WaitGroup
	var done atomic.Int32
	for i := 0; i < 8; i++ {
		closers.Add(1)
		go func() {
			defer closers.Done()
			if err := db.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
			// Workers must be gone by the time any Close returns; a
			// subsequent op must therefore fail closed.
			if err := db.Put([]byte("after"), []byte("x")); !errors.Is(err, ErrClosed) {
				t.Errorf("put after close: %v, want ErrClosed", err)
			}
			done.Add(1)
		}()
	}
	closers.Wait()
	close(stop)
	opWG.Wait()
	if done.Load() != 8 {
		t.Fatalf("only %d of 8 concurrent Close calls returned", done.Load())
	}
	// Close remains idempotent after the storm.
	if err := db.Close(); err != nil {
		t.Fatalf("re-close: %v", err)
	}
}
