package core_test

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"hyperdb/internal/core"
	"hyperdb/internal/device"
	"hyperdb/internal/repl"
)

// written is one acknowledged write: the sequence its op carried and the
// value the key holds after it (a merge's post-merge value).
type written struct {
	seq   uint64
	value []byte
	merge bool
}

// TestWritesApplyInSequenceOrder has many goroutines write key pairs through
// the embedded API with the workers on: puts of two sizes to one key of a
// pair, so a write either overwrites its slot in place or moves to another
// slot class, and increments mixed with counter resets on the other. Half
// the writes are one-op calls, half one batch spanning both partitions.
// Every increment must return the value the sequence order gives it, and
// every key must read as its write with the highest sequence — on the
// primary, on a follower that applied the replication log in order, and on
// the store reopened after a power cut. Those three replay by sequence; the
// primary agrees only if it applied each key's writes in that order too.
func TestWritesApplyInSequenceOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	const (
		writers = 8
		rounds  = 64
		pairs   = 8
	)
	opts := func(nvme *device.Device) core.Options {
		return core.Options{
			NVMeDevice: nvme,
			SATADevice: device.New(device.UnthrottledProfile("sata", 256<<20)),
			Partitions: 2,
			CacheBytes: 1 << 20,
		}
	}
	po := opts(device.New(device.NVMeProfile(32 << 20)))
	log := repl.NewLog(repl.LogConfig{MaxEntries: 4 * writers * rounds})
	po.Tee = log
	db, err := core.Open(po)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	fo := opts(device.New(device.UnthrottledProfile("nvme", 32<<20)))
	fo.Follower = true
	follower, err := core.Open(fo)
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	// The follower tails the log as a replication stream would: committed
	// entries, in base order, one at a time.
	cur, ok := log.Subscribe(0)
	if !ok {
		t.Fatal("subscribe refused")
	}
	stop := make(chan struct{})
	applied := make(chan error, 1)
	go func() {
		for {
			base, ops, err := cur.Next(stop)
			if errors.Is(err, repl.ErrStopped) {
				applied <- nil
				return
			}
			if err == nil {
				err = follower.ApplyReplicated(ops, base)
			}
			if err != nil {
				applied <- err
				return
			}
		}
	}()

	// Iteration i writes pair i%pairs, so every pair's last writes race. The
	// pairs fall in partition 0; fill(g) writes keys of partition 1.
	kv := func(i int) []byte { return []byte(fmt.Sprintf("order/value/%d", i%pairs)) }
	kc := func(i int) []byte { return []byte(fmt.Sprintf("order/counter/%d", i%pairs)) }
	fill := func(g int) []core.BatchOp {
		ops := make([]core.BatchOp, 6)
		for j := range ops {
			ops[j] = core.BatchOp{Key: []byte(fmt.Sprintf("\xf0fill-%d-%d", g, j)), Value: make([]byte, 100)}
		}
		return ops
	}
	var (
		mu      sync.Mutex
		history = map[string][]written{}
		failed  error
	)
	note := func(op core.BatchOp, seq uint64) {
		mu.Lock()
		defer mu.Unlock()
		history[string(op.Key)] = append(history[string(op.Key)], written{seq, op.Value, op.Merge})
	}
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				size := 16
				if (g+i)%2 == 1 {
					size = 300
				}
				v := bytes.Repeat([]byte{'.'}, size)
				copy(v, fmt.Sprintf("g%d-i%d", g, i))
				ctr := core.BatchOp{Key: kc(i), Merge: true, Delta: 1}
				if i%8 == 7 {
					ctr = core.BatchOp{Key: kc(i), Value: core.EncodeCounter(int64(-1000*g - i))}
				}
				var err error
				if i%2 == 0 {
					// One-op calls, the form Put and Incr take.
					ops := []core.BatchOp{{Key: kv(i), Value: v}, ctr}
					var seq uint64
					for j := range ops {
						if seq, err = db.WriteBatchSeq(ops[j : j+1]); err != nil {
							break
						}
						note(ops[j], seq)
					}
				} else {
					ops := append(fill(g), core.BatchOp{Key: kv(i), Value: v}, ctr)
					var seq uint64
					if seq, err = db.WriteBatchSeq(ops); err == nil {
						n := len(ops)
						note(ops[n-2], seq-1)
						note(ops[n-1], seq)
					}
				}
				if err != nil {
					mu.Lock()
					failed = err
					mu.Unlock()
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if failed != nil {
		t.Fatal(failed)
	}

	// Replay each counter's history by sequence: a reset sets it, an
	// increment adds one, and each increment must have returned that.
	for key, h := range history {
		slices.SortFunc(h, func(a, b written) int { return cmp.Compare(a.seq, b.seq) })
		if !bytes.HasPrefix([]byte(key), []byte("order/counter/")) {
			continue
		}
		var want int64
		for _, w := range h {
			got, _ := core.DecodeCounter(w.value)
			if !w.merge {
				want = got
				continue
			}
			if want++; got != want {
				t.Errorf("%s: the increment at sequence %d returned %d, want %d", key, w.seq, got, want)
				break
			}
		}
	}

	check := func(where string, d *core.DB) {
		t.Helper()
		for key, h := range history {
			want := h[len(h)-1]
			got, err := d.Get([]byte(key))
			if err != nil || !bytes.Equal(got, want.value) {
				t.Errorf("%s: %s = %.12q (%v), want %.12q, the write at the highest sequence %d", where, key, got, err, want.value, want.seq)
			}
		}
	}
	check("primary", db)

	for deadline := time.Now().Add(10 * time.Second); follower.ReadableSeq() < log.Head(); {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at %d, log head %d", follower.ReadableSeq(), log.Head())
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	if err := <-applied; err != nil {
		t.Fatalf("follower apply: %v", err)
	}
	check("follower", follower)

	db.Close()
	po.NVMeDevice.PowerCut()
	po.SATADevice.PowerCut()
	po.Tee = nil
	re, err := core.Open(po)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	check("reopened", re)
}
