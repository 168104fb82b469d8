package cache

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
)

// count reads counter i of the sketch.
func (k *sketch) count(i int) uint64 { return k.words[i/16] >> (uint(i%16) * 4) & 15 }

// zipfKeys draws n indexes into keys with probability falling as
// 1/(rank+1)^theta, from a fixed generator.
func zipfKeys(nKeys, n int, theta float64) []int {
	cdf := make([]float64, nKeys)
	total := 0.0
	for i := range cdf {
		total += 1 / math.Pow(float64(i+1), theta)
		cdf[i] = total
	}
	rng := uint64(3)
	out := make([]int, n)
	for i := range out {
		rng = rng*6364136223846793005 + 1442695040888963407
		u := float64(rng>>11) / (1 << 53) * total
		out[i] = min(sort.SearchFloat64s(cdf, u), nKeys-1)
	}
	return out
}

// TestSketch: up to the first aging step no estimate is below the true
// count (capped at 15); the aging step halves every counter; two sketches fed
// one stream hold the same counters; a counter saturates at 15 without
// carrying into its neighbour.
func TestSketch(t *testing.T) {
	a, b := newSketch(64<<10), newSketch(64<<10)
	keys := make([]uint32, 2000)
	for i := range keys {
		keys[i] = hashKey(string(rune(i)) + "-key")
	}
	counts := make([]uint64, len(keys))
	stream := zipfKeys(len(keys), a.sample-1, 0.99)
	for step, i := range stream {
		a.add(keys[i])
		b.add(keys[i])
		counts[i]++
		if step%97 == 0 || step == len(stream)-1 {
			for j, h := range keys {
				if est := a.estimate(h); est < min(counts[j], 15) {
					t.Fatalf("step %d: key %d added %d times, estimate %d", step, j, counts[j], est)
				}
			}
		}
	}
	if !slices.Equal(a.words, b.words) {
		t.Fatal("two sketches fed one stream disagree")
	}

	// The next addition is the sample-th: it bumps its key's counters, then
	// every counter is halved.
	before := slices.Clone(a.words)
	old := sketch{words: before, widthBits: a.widthBits}
	a.add(keys[0])
	mine := map[int]bool{}
	for r := 0; r < sketchRows; r++ {
		mine[a.index(keys[0], r)] = true
	}
	for i := 0; i < sketchRows<<a.widthBits; i++ {
		want := old.count(i)
		if mine[i] && want < 15 {
			want++
		}
		if got := a.count(i); got != want/2 {
			t.Fatalf("counter %d: %d before the aging step, %d after, want %d", i, old.count(i), got, want/2)
		}
	}
	if a.additions != 0 {
		t.Fatalf("%d additions counted after the aging step", a.additions)
	}

	c := newSketch(64 << 10)
	for i := 0; i < 40; i++ {
		c.add(keys[1])
	}
	if est := c.estimate(keys[1]); est != 15 {
		t.Fatalf("40 additions: estimate %d, want 15", est)
	}
	for i := 0; i < sketchRows<<c.widthBits; i++ {
		want := uint64(0)
		if i == c.index(keys[1], i>>c.widthBits) {
			want = 15
		}
		if got := c.count(i); got != want {
			t.Fatalf("counter %d = %d after 40 additions of one key, want %d", i, got, want)
		}
	}
}

// TestOnlyObjectCachesPayForASketch: a cache of pages alone — a baseline's
// page or block cache — never makes a sketch and keeps its whole budget for
// entries. The first object call to a shard makes that shard's, inside the
// same budget, evicting to fit. A shard too small for one takes no objects.
func TestOnlyObjectCachesPayForASketch(t *testing.T) {
	const capacity = 1 << 20
	c := NewLRU(capacity, nil)
	page := make([]byte, 4096)
	for i := 0; i < 2*capacity/len(page); i++ {
		c.Put(fmt.Sprintf("Z%d", i), page)
	}
	if u := c.Usage(); u.SketchBytes != 0 || u.Capacity != capacity || u.Used < capacity*9/10 {
		t.Fatalf("a full cache of pages: %+v", u)
	}
	c.GetObject("V1", 1, nil)
	if u := c.Usage(); u.SketchBytes == 0 || u.SketchBytes > capacity/nShards/40 || u.Capacity != capacity || u.Used > u.Capacity {
		t.Fatalf("after one object probe: %+v", u)
	}

	tiny := NewLRU(nShards, nil)
	tiny.PutObject("V1", 1, []byte("x"))
	tiny.PromoteObject("V1", 1, []byte("x"))
	if u := tiny.Usage(); u.Objects != 0 || u.Used > u.Capacity {
		t.Fatalf("a cache of 16 bytes: %+v", u)
	}
	for i := range tiny.shards {
		if s := &tiny.shards[i]; s.capacity < 0 || s.warmCap < 0 {
			t.Fatalf("shard %d: capacity %d, warm %d", i, s.capacity, s.warmCap)
		}
	}
}

// TestOneHitObjectsDoNotDisplaceHotOnes probes one shard's objects on a zipf
// trace, filling on every miss, as the zone tier's point reads do. The shard
// holds about 6 % of the keys; without admission every miss on a key read
// once evicts one that is read again, and the policy from before the sketch
// (the model with admission off) shows what that costs.
func TestOneHitObjectsDoNotDisplaceHotOnes(t *testing.T) {
	c := NewLRU(nShards*48<<10, nil)
	keys := sameShardKeys(c, 4000)
	s, _ := c.shardFor(keys[0])
	m := newModel(s, false)
	value := make([]byte, 100)
	trace := zipfKeys(len(keys), 60000, 0.99)
	var hits, modelHits int
	for n, i := range trace {
		measured := n >= len(trace)/2
		if _, ok := c.GetObject(keys[i], 1, nil); !ok {
			c.PutObject(keys[i], 1, value)
		} else if measured {
			hits++
		}
		if _, ok := m.getObject(keys[i], 1); !ok {
			m.putObject(keys[i], 1, value, fill)
		} else if measured {
			modelHits++
		}
	}
	half := float64(len(trace) - len(trace)/2)
	got, without := float64(hits)/half, float64(modelHits)/half
	t.Logf("hit ratio %.3f with admission, %.3f without; %d objects cached, %d fills refused",
		got, without, s.objects, s.rejected)
	if got < without+0.05 {
		t.Fatalf("admission hit ratio %.3f does not beat %.3f by 5 points", got, without)
	}
}
