package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// run starts Work on its own goroutine and returns its stop channel and a
// channel closed when Work has returned.
func run(wake <-chan struct{}, errs *Errors, step func() (bool, error)) (stop, done chan struct{}) {
	stop, done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		Work(stop, wake, errs, step)
	}()
	return stop, done
}

// TestWorkRunsAgainWhileThereIsMore: one wake starts a round of 1 000 steps,
// each reporting more work until the last. Waiting for a tick between them
// would take 1 000 ticks; the round takes a small part of that.
func TestWorkRunsAgainWhileThereIsMore(t *testing.T) {
	const rounds = 1000
	var calls atomic.Int64
	finished := make(chan struct{})
	wake := make(chan struct{}, 1)
	var errs Errors
	stop, done := run(wake, &errs, func() (bool, error) {
		n := calls.Add(1)
		if n == rounds {
			close(finished)
		}
		return n < rounds, nil
	})
	defer func() { close(stop); <-done }()
	wake <- struct{}{}
	select {
	case <-finished:
	case <-time.After(rounds * Tick / 2):
		t.Fatalf("%d steps ran in %v: the loop waits between steps that report more work", calls.Load(), rounds*Tick/2)
	}
	if err := errs.Take(); err != nil {
		t.Fatalf("errors noted for steps that failed none: %v", err)
	}
}

// TestWorkErrorEndsTheRound: a step that fails while reporting more work
// is not rerun at once — its next try waits for the next tick — and Take
// returns what was noted once, with errors.Is intact.
func TestWorkErrorEndsTheRound(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	var errs Errors
	stop, done := run(nil, &errs, func() (bool, error) {
		calls.Add(1)
		return true, boom
	})
	time.Sleep(50 * Tick)
	close(stop)
	<-done
	n := calls.Load()
	if n == 0 {
		t.Fatal("the step never ran")
	}
	if n > 1000 { // one try per tick is about 50; a spinning loop makes millions
		t.Fatalf("the step ran %d times in 50 ticks: an error does not end the round", n)
	}
	if c, last := errs.Count(); c != uint64(n) || !errors.Is(last, boom) {
		t.Fatalf("Count = %d, %v; want %d, boom", c, last, n)
	}
	if err := errs.Take(); !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), fmt.Sprintf("%d background errors", n)) {
		t.Fatalf("Take = %v, want the %d errors the step returned", err, n)
	}
	if err := errs.Take(); err != nil {
		t.Fatalf("second Take = %v, want nil", err)
	}
	errs.Note(boom)
	if err := errs.Take(); !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), "1 background errors") {
		t.Fatalf("Take after one more error = %v", err)
	}
}

// TestWorkStopsPromptly: closing stop returns Work whether it is idle or in
// a round whose step always reports more work.
func TestWorkStopsPromptly(t *testing.T) {
	for _, busy := range []bool{false, true} {
		var errs Errors
		stop, done := run(nil, &errs, func() (bool, error) { return busy, nil })
		time.Sleep(5 * Tick)
		close(stop)
		select {
		case <-done:
		case <-time.After(time.Second):
			t.Fatalf("busy=%v: Work did not return within a second of stop closing", busy)
		}
	}
}
