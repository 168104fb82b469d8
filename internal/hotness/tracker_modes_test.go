package hotness

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
)

// The tests below were tables over the tracker's window representations.
// Bloom windows are the one that remains; its case keeps the name "bloom" so
// each test stays one series in CI history.

func TestModesAgreeOnCascadeSemantics(t *testing.T) {
	t.Run("bloom", func(t *testing.T) {
		tr := NewTracker(Config{WindowCapacity: 64, HotThreshold: 3, MaxFilters: 4})
		key := []byte("popular")
		for w := 0; w < 3; w++ {
			tr.Record(key)
			fillWindow(tr, fmt.Sprintf("w%d", w))
		}
		if !tr.IsHot(key) {
			t.Fatal("key present in 3 consecutive sealed windows must be hot")
		}

		// A key with a gap in its appearances must not classify.
		tr2 := NewTracker(Config{WindowCapacity: 64, HotThreshold: 3, MaxFilters: 4})
		bursty := []byte("bursty")
		tr2.Record(bursty)
		fillWindow(tr2, "w0")
		tr2.Record(bursty)
		fillWindow(tr2, "w1")
		fillWindow(tr2, "w2-gap")
		tr2.Record(bursty)
		fillWindow(tr2, "w3")
		if tr2.IsHot(bursty) {
			t.Fatal("non-consecutive appearances must not classify hot")
		}

		// FIFO eviction bounds the cascade and forgets old keys.
		for w := 0; w < 4; w++ {
			fillWindow(tr, fmt.Sprintf("evict%d", w))
		}
		if tr.IsHot(key) {
			t.Fatal("key's windows were evicted; must no longer be hot")
		}
		if tr.CascadeDepth() != 4 {
			t.Fatalf("cascade depth = %d, want 4 (MaxFilters)", tr.CascadeDepth())
		}

		// Reset reopens an empty discriminator.
		tr.Reset()
		if tr.CascadeDepth() != 0 || tr.IsHot(key) {
			t.Fatal("reset incomplete")
		}
	})
}

// TestStripeDerivationByMode pins the Fill rule: stripes follow
// WindowCapacity (filter-accuracy driven) and clamp to [1, 16]; an explicit
// count is respected.
func TestStripeDerivationByMode(t *testing.T) {
	for _, tc := range []struct{ capacity, set, want int }{
		{capacity: 1 << 16, want: 16},
		{capacity: 64, want: 1},
		{capacity: 2048, want: 4},
		{capacity: 1 << 26, want: 16},
		{set: 5, want: 5},
	} {
		c := Config{WindowCapacity: tc.capacity, Stripes: tc.set}
		c.Fill()
		if c.Stripes != tc.want {
			t.Fatalf("window %d, Stripes %d: filled to %d, want %d", tc.capacity, tc.set, c.Stripes, tc.want)
		}
	}
}

func TestTrackerStatsCounters(t *testing.T) {
	t.Run("bloom", func(t *testing.T) {
		tr := NewTracker(Config{WindowCapacity: 64, HotThreshold: 1, MaxFilters: 2})
		key := []byte("k")
		tr.Record(key)
		fillWindow(tr, "w0")
		before := tr.Stats()
		if !tr.Record(key) {
			t.Fatal("key in the sealed window must be hot at threshold 1")
		}
		s := tr.Stats()
		if s.Records != before.Records+1 || s.HotHits != before.HotHits+1 {
			t.Fatalf("counters did not advance: %+v → %+v", before, s)
		}
		if s.Seals == 0 || s.CascadeDepth == 0 || s.MemoryBytes <= 0 {
			t.Fatalf("implausible stats: %+v", s)
		}
		if r := s.HotRate(); r <= 0 || r > 1 {
			t.Fatalf("hot rate %f out of range", r)
		}
	})
}

// TestConcurrentRecordSealStress hammers Record/RecordBatch/IsHot/Stats from
// many goroutines while windows churn; run with -race this is the tracker's
// concurrency guarantee.
func TestConcurrentRecordSealStress(t *testing.T) {
	t.Run("bloom", func(t *testing.T) {
		tr := NewTracker(Config{WindowCapacity: 256, HotThreshold: 2, MaxFilters: 3, Stripes: 4})
		const goroutines = 8
		iters := 3000
		if testing.Short() {
			iters = 500
		}
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				keys := make([][]byte, 8)
				hot := make([]bool, 8)
				var buf [8]byte
				for i := 0; i < iters; i++ {
					binary.BigEndian.PutUint64(buf[:], uint64(g)<<40|uint64(i%701))
					tr.Record(buf[:])
					tr.IsHot(buf[:])
					if i%64 == 0 {
						for j := range keys {
							k := make([]byte, 8)
							binary.BigEndian.PutUint64(k, uint64(g)<<40|uint64((i+j)%701))
							keys[j] = k
						}
						tr.RecordBatch(keys, hot)
					}
					if i%512 == 0 {
						tr.Stats()
					}
				}
			}(g)
		}
		wg.Wait()
		if tr.SealedWindows() == 0 {
			t.Fatal("stress run never sealed a window")
		}
		if d := tr.CascadeDepth(); d > 3 {
			t.Fatalf("cascade depth %d exceeds MaxFilters", d)
		}
	})
}
