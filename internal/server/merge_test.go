package server

import (
	"bytes"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"hyperdb"
	"hyperdb/internal/client"
	"hyperdb/internal/wire"
)

func TestServeIncr(t *testing.T) {
	env := newTestEnv(t, nil)
	c := dialTest(t, env, 1)

	if v, err := c.Incr([]byte("hits"), 5); err != nil || v != 5 {
		t.Fatalf("first incr: %d %v, want 5", v, err)
	}
	if v, err := c.Incr([]byte("hits"), -2); err != nil || v != 3 {
		t.Fatalf("second incr: %d %v, want 3", v, err)
	}
	// The committed value is the canonical counter encoding, visible to Get.
	if v, err := c.Get([]byte("hits")); err != nil || !bytes.Equal(v, hyperdb.EncodeCounter(3)) {
		t.Fatalf("get after incr: %x %v", v, err)
	}
	// The reply's position is a usable token.
	v, tok, err := c.IncrSeq([]byte("hits"), 7)
	if err != nil || v != 10 {
		t.Fatalf("incr: %d %v, want 10", v, err)
	}
	if tok.Seq == 0 {
		t.Fatal("incr returned zero sequence")
	}
	if got, _, err := c.GetSeq([]byte("hits"), tok); err != nil || !bytes.Equal(got, hyperdb.EncodeCounter(10)) {
		t.Fatalf("gated read after incr: %x %v", got, err)
	}
}

func TestServeIncrNonCounter(t *testing.T) {
	env := newTestEnv(t, nil)
	c := dialTest(t, env, 1)
	if err := c.Put([]byte("text"), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Incr([]byte("text"), 1); err == nil {
		t.Fatal("incr on non-counter value succeeded")
	}
	// The failed merge left the value alone and the connection serving.
	if v, err := c.Get([]byte("text")); err != nil || string(v) != "hello" {
		t.Fatalf("value after failed incr: %q %v", v, err)
	}
}

func TestServeIncrConcurrentExactAndFolds(t *testing.T) {
	env := newTestEnv(t, nil)
	c := dialTest(t, env, 1) // one conn: the incrs pipeline into its reader's cycles

	const goroutines, each = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := c.Incr([]byte("ctr"), 1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if v, err := c.Incr([]byte("ctr"), 0); err != nil || v != goroutines*each {
		t.Fatalf("final counter: %d %v, want %d", v, err, goroutines*each)
	}
	st := env.srv.Stats()
	if st.MergeOps.Load() < goroutines*each {
		t.Fatalf("merge_ops = %d, want >= %d", st.MergeOps.Load(), goroutines*each)
	}
	if st.MergeFolded.Load() == 0 {
		t.Fatal("no merges folded despite a pipelined hot key")
	}
	if r := st.LogicalWritesPerDBCall(); r <= 1 {
		t.Fatalf("logical_writes_per_dbcall = %.3f, want > 1", r)
	}
}

func TestServeIncrNoMergeFold(t *testing.T) {
	env := newTestEnv(t, func(cfg *Config) { cfg.NoMergeFold = true })
	c := dialTest(t, env, 1)

	const goroutines, each = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := c.Incr([]byte("ctr"), 1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if v, err := c.Incr([]byte("ctr"), 0); err != nil || v != goroutines*each {
		t.Fatalf("final counter: %d %v, want %d", v, err, goroutines*each)
	}
	if folded := env.srv.Stats().MergeFolded.Load(); folded != 0 {
		t.Fatalf("merge_folded = %d with folding disabled", folded)
	}
}

func TestServeBatchMerge(t *testing.T) {
	env := newTestEnv(t, nil)
	c := dialTest(t, env, 1)

	// Merge ops ride BATCH alongside puts and deletes, resolving in order.
	err := c.WriteBatch([]wire.BatchOp{
		{Key: []byte("a"), Value: hyperdb.EncodeCounter(100)},
		{Key: []byte("a"), Merge: true, Delta: 11},
		{Key: []byte("b"), Merge: true, Delta: -4},
		{Key: []byte("a"), Delete: true},
		{Key: []byte("a"), Merge: true, Delta: 2},
	})
	if err != nil {
		t.Fatalf("batch with merges: %v", err)
	}
	if v, err := c.Incr([]byte("a"), 0); err != nil || v != 2 {
		t.Fatalf("a after delete+merge: %d %v, want 2", v, err)
	}
	if v, err := c.Incr([]byte("b"), 0); err != nil || v != -4 {
		t.Fatalf("b from zero base: %d %v, want -4", v, err)
	}
	// Fold-path saturation: both deltas coalesce into one entry whose net
	// delta clamps, and the committed value clamps identically.
	err = c.WriteBatch([]wire.BatchOp{
		{Key: []byte("sat"), Merge: true, Delta: math.MaxInt64},
		{Key: []byte("sat"), Merge: true, Delta: math.MaxInt64},
		{Key: []byte("sat"), Merge: true, Delta: 1},
	})
	if err != nil {
		t.Fatalf("saturating batch: %v", err)
	}
	if v, err := c.Incr([]byte("sat"), 0); err != nil || v != math.MaxInt64 {
		t.Fatalf("saturated counter: %d %v, want MaxInt64", v, err)
	}
}

func TestServeIncrSaturation(t *testing.T) {
	env := newTestEnv(t, nil)
	c := dialTest(t, env, 1)
	if v, err := c.Incr([]byte("s"), math.MaxInt64); err != nil || v != math.MaxInt64 {
		t.Fatalf("max: %d %v", v, err)
	}
	if v, err := c.Incr([]byte("s"), 1); err != nil || v != math.MaxInt64 {
		t.Fatalf("above max: %d %v, want MaxInt64", v, err)
	}
}

func TestServeSessionIncr(t *testing.T) {
	env := newTestEnv(t, nil)
	c := dialTest(t, env, 1)
	sess := client.NewSession(c, nil, client.ReadPrimary)
	if v, err := sess.Incr([]byte("sc"), 9); err != nil || v != 9 {
		t.Fatalf("session incr: %d %v, want 9", v, err)
	}
	if sess.Token().Seq == 0 {
		t.Fatal("session incr did not advance the token")
	}
	if v, err := sess.Get([]byte("sc")); err != nil || !bytes.Equal(v, hyperdb.EncodeCounter(9)) {
		t.Fatalf("session read-your-incr: %x %v", v, err)
	}
}

func TestConnRateLimit(t *testing.T) {
	// A near-zero refill rate with burst 1 admits exactly one request.
	env := newTestEnv(t, func(cfg *Config) {
		cfg.ConnRate = 0.001
		cfg.ConnBurst = 1
	})
	c := dialTest(t, env, 1)

	if err := c.Ping(); err != nil {
		t.Fatalf("first request within burst: %v", err)
	}
	if _, err := c.Incr([]byte("k"), 1); !errors.Is(err, client.ErrRateLimited) {
		t.Fatalf("second request: %v, want ErrRateLimited", err)
	}
	// The connection survives rejection and keeps answering.
	if err := c.Ping(); !errors.Is(err, client.ErrRateLimited) {
		t.Fatalf("third request: %v, want ErrRateLimited", err)
	}
	if got := env.srv.Stats().RateLimited.Load(); got < 2 {
		t.Fatalf("rate_limited = %d, want >= 2", got)
	}
	// A fresh connection gets its own bucket.
	c2 := dialTest(t, env, 1)
	if err := c2.Ping(); err != nil {
		t.Fatalf("new conn within burst: %v", err)
	}
}

func TestTokenBucket(t *testing.T) {
	now := time.Unix(0, 0)
	tb := newTokenBucket(10, 2)
	tb.now = func() time.Time { return now }
	tb.last = now
	if !tb.allow() || !tb.allow() {
		t.Fatal("burst of 2 not admitted")
	}
	if tb.allow() {
		t.Fatal("third request admitted with empty bucket")
	}
	now = now.Add(100 * time.Millisecond) // 1 token at 10/s
	if !tb.allow() {
		t.Fatal("refilled token not admitted")
	}
	if tb.allow() {
		t.Fatal("second token minted from 100ms at 10/s")
	}
	// Refill clamps at burst, not at elapsed × rate.
	now = now.Add(time.Hour)
	if !tb.allow() || !tb.allow() {
		t.Fatal("burst not restored after idle")
	}
	if tb.allow() {
		t.Fatal("bucket exceeded burst after idle")
	}
}
