package lsm

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"hyperdb/internal/device"
	"hyperdb/internal/keys"
	"hyperdb/internal/semisst"
	"hyperdb/internal/zone"
)

// segmented is HyperDB's compaction policy: fixed key-range segments of one
// table each, migration batches appended into semi-SSTables, preemptive
// block compaction with overlap-score victims, and the TClean rewrite.
type segmented struct {
	t *Tree
	// mu serialises merges and compactions, so a compaction cannot drop a
	// table under an in-flight merge. Reads take only the tree's mu.
	mu sync.Mutex
	// Guarded by the tree's mu: the victim-sampling xorshift state, and the
	// tables past TClean awaiting full compaction.
	rnd         uint64
	pendingFull []*table
}

// segments returns the number of key-space segments at level k.
func (s *segmented) segments(level int) int {
	n := s.t.opts.L1Segments
	for i := 1; i < level; i++ {
		n *= s.t.opts.Ratio
	}
	return n
}

// segWidth returns the key-prefix width of one segment at level k.
func (s *segmented) segWidth(level int) uint64 {
	o := &s.t.opts
	if w := (o.KeyHi - o.KeyLo) / uint64(s.segments(level)); w > 0 {
		return w
	}
	return 1
}

// segFor maps a user key to its segment index at level k.
func (s *segmented) segFor(level int, user []byte) int {
	k64 := zone.Key64(user)
	if k64 < s.t.opts.KeyLo {
		return 0
	}
	return min(int((k64-s.t.opts.KeyLo)/s.segWidth(level)), s.segments(level)-1)
}

// capacity returns the live-byte budget of level k. The bottom level is
// unbounded: data settles there.
func (s *segmented) capacity(level int) int64 {
	if level >= s.t.bottom {
		return math.MaxInt64
	}
	return int64(s.segments(level)) * s.t.opts.FileSize
}

// find returns where (level, seg)'s table is, or would be, in its level.
// Caller holds the tree's mu.
func (s *segmented) find(level, seg int) (int, bool) {
	return slices.BinarySearchFunc(s.t.levels[level], seg, func(tb *table, seg int) int { return tb.seg - seg })
}

// at returns the table of (level, seg), or nil. Caller holds the tree's mu.
func (s *segmented) at(level, seg int) *table {
	if i, ok := s.find(level, seg); ok {
		return s.t.levels[level][i]
	}
	return nil
}

// replace is the generation swap of a fresh segment (old nil), a full
// compaction, or a drained victim (no entries): entries become the
// segment's next generation, durable when the build returns; only then is
// it installed in old's place and old released. Destination durable before
// source removed: a crash or error leaves the old generation, the new one,
// or both, and recovery keeps the newest that opens.
func (s *segmented) replace(level, seg int, old *table, entries []Entry, op device.Op) error {
	var nt *table
	if len(entries) > 0 {
		var err error
		if nt, err = s.t.build(level, seg, 0, entries, op); err != nil {
			return err
		}
	}
	s.t.mu.Lock()
	ts := s.t.levels[level]
	switch i, ok := s.find(level, seg); {
	case ok && nt != nil:
		ts[i] = nt
	case ok:
		s.t.levels[level] = slices.Delete(ts, i, i+1)
	case nt != nil:
		s.t.levels[level] = slices.Insert(ts, i, nt)
	}
	s.t.mu.Unlock()
	if old != nil {
		old.release()
	}
	return nil
}

// ingest integrates a sorted migration batch into L1, splitting it across
// the segment tables that own the keys.
func (s *segmented) ingest(entries []Entry, op device.Op) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pushEntries(s.t.top, entries, 0, op)
}

func (s *segmented) idle() bool { return true }

// settle keeps the newest generation that opened at a segment and deletes
// the ones a crash mid-swap left behind. The survivor's keys must lie in the
// segment its name gives under the tree's geometry, which Get and Ingest
// route by: a table written under another one would hide acked keys.
func (s *segmented) settle(level int, tables []*table) ([]*table, error) {
	for _, tb := range tables[1:] {
		tb.release()
	}
	tb, o := tables[0], &s.t.opts
	inSeg := func(user []byte) bool {
		k64 := zone.Key64(user)
		return k64 >= o.KeyLo && (k64 < o.KeyHi || o.KeyHi == math.MaxUint64) && s.segFor(level, user) == tb.seg
	}
	first, last, ok := tb.bounds()
	if tb.seg >= s.segments(level) || ok && !(inSeg(first) && inSeg(last)) {
		return nil, fmt.Errorf("lsm: %s holds keys outside L%d segment %d under this tree's geometry "+
			"(L1Segments %d, Ratio %d, keys %#x..%#x): reopen with the geometry it was written with",
			tb.sst.File().Name(), level, tb.seg, o.L1Segments, o.Ratio, o.KeyLo, o.KeyHi)
	}
	return tables[:1], nil
}

// compact runs a pending full compaction of an over-dirty table, or else a
// preemptive block compaction of the shallowest over-capacity level.
func (s *segmented) compact(op device.Op) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	op.Background = true
	// Full compactions first: they bound space amplification. What queues
	// is what a carve-out left over-dirty; merges rewrite in place.
	if tb, level := s.popPendingFull(); tb != nil {
		if err := s.rewrite(level, tb, nil, false, op); err != nil {
			return false, err // old table remains installed; retry later
		}
		s.t.traffic[level].FullRewrites.Inc()
		return true, nil
	}
	for level := s.t.top; level < s.t.bottom; level++ {
		if live, _ := s.t.LevelBytes(level); live > s.capacity(level) {
			if err := s.compactLevel(level, op); err != nil {
				return false, err
			}
			return true, nil
		}
	}
	return false, nil
}

// popPendingFull dequeues one table still needing a full compaction and
// reports its level.
func (s *segmented) popPendingFull() (*table, int) {
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	for len(s.pendingFull) > 0 {
		tb := s.pendingFull[0]
		s.pendingFull = s.pendingFull[1:]
		for level := s.t.top; level <= s.t.bottom; level++ {
			if s.at(level, tb.seg) == tb {
				if tb.sst.DirtyRatio() > s.t.opts.TClean {
					return tb, level
				}
				break
			}
		}
	}
	return nil, 0
}

// noteDirty queues a table for full compaction when its dirty ratio passes
// TClean (§3.4).
func (s *segmented) noteDirty(tb *table) {
	if tb.sst.DirtyRatio() <= s.t.opts.TClean {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if !slices.Contains(s.pendingFull, tb) {
		s.pendingFull = append(s.pendingFull, tb)
	}
}

// compactLevel drains one victim table from level into the levels below via
// preemptive block compaction (Fig. 7). The victim goes only once every
// destination has synced: a failed push leaves it installed, and the next
// pass pushes it again.
func (s *segmented) compactLevel(level int, op device.Op) error {
	victim := s.pickVictim(level, op)
	if victim == nil {
		return nil
	}
	entries, n, err := victim.sst.AllEntries(op)
	s.t.traffic[level].ReadBytes.Add(uint64(n))
	if err != nil {
		return err
	}
	if err := s.pushEntries(level+1, entries, s.t.opts.Depth-1, op); err != nil {
		return err
	}
	s.t.traffic[level].Compactions.Inc()
	return s.replace(level, victim.seg, victim, nil, op)
}

// pushEntries merges sorted entries into level, slice by owning segment.
// With depth budget left, the target's blocks that collide with the level
// below are carved out and pushed deeper with the incoming entries inside
// them — §3.4's preemptive merge, which spares a rewrite per level.
func (s *segmented) pushEntries(level int, entries []Entry, budget int, op device.Op) error {
	level = min(level, s.t.bottom)
	drop := level == s.t.bottom // tombstones die at the bottom
	for i := 0; i < len(entries); {
		seg := s.segFor(level, entries[i].Key.User)
		j := i + 1
		for j < len(entries) && s.segFor(level, entries[j].Key.User) == seg {
			j++
		}
		slice := entries[i:j]
		i = j

		s.t.mu.RLock()
		tb := s.at(level, seg)
		s.t.mu.RUnlock()
		if tb == nil {
			// Non-overlapping insert: the slice becomes fresh blocks.
			if drop {
				slice = slices.DeleteFunc(slices.Clone(slice), func(e Entry) bool { return e.Key.Kind == keys.KindDelete })
			}
			if err := s.replace(level, seg, nil, slice, op); err != nil {
				return err
			}
			continue
		}

		if budget > 0 && !drop {
			if spans := s.deepOverlapSpans(level, tb, slice, op); len(spans) > 0 {
				deepIncoming, shallowIncoming := splitBySpans(slice, spans)
				before := tb.sst.FileBytes()
				st, err := tb.sst.ExtractOverlapping(spans, op, func(extracted []Entry) error {
					deep := semisst.MergeSorted(extracted, deepIncoming, false)
					return s.pushEntries(level+1, deep, budget-1, op)
				})
				s.t.traffic[level].ReadBytes.Add(uint64(st.BytesRead))
				// A carve-out appends no data, only the index that records it.
				s.t.traffic[level].WriteBytes.Add(uint64(tb.sst.FileBytes() - before))
				if err != nil {
					return err
				}
				slice = shallowIncoming
				s.noteDirty(tb)
			}
		}
		if err := s.mergeInto(level, tb, slice, drop, op); err != nil {
			return err
		}
	}
	return nil
}

// mergeInto merges a sorted slice into an installed table. When block
// metadata predicts the merge would leave it past TClean, it is fully
// compacted with the slice instead, so the merged blocks are not appended
// only for a queued rewrite to read and write again.
func (s *segmented) mergeInto(level int, tb *table, slice []Entry, drop bool, op device.Op) error {
	if len(slice) == 0 {
		return nil
	}
	if tb.sst.DirtyRatioAfterMerge(slice, drop) > s.t.opts.TClean {
		return s.rewrite(level, tb, slice, drop, op)
	}
	before := tb.sst.FileBytes()
	st, err := tb.sst.Merge(slice, drop, op)
	s.t.traffic[level].ReadBytes.Add(uint64(st.BytesRead))
	if err != nil {
		return err
	}
	s.t.traffic[level].WriteBytes.Add(uint64(tb.sst.FileBytes() - before))
	s.noteDirty(tb)
	return nil
}

// rewrite is a full compaction: tb's live entries, merged with slice, become
// its segment's next generation.
func (s *segmented) rewrite(level int, tb *table, slice []Entry, drop bool, op device.Op) error {
	existing, n, err := tb.sst.AllEntries(op)
	s.t.traffic[level].ReadBytes.Add(uint64(n))
	if err != nil {
		return err
	}
	return s.replace(level, tb.seg, tb, semisst.MergeSorted(existing, slice, drop), op)
}

// overlapping returns the tables of level whose live range overlaps any of
// spans, under the tree's mu.
func (s *segmented) overlapping(level int, spans []keys.Range) []*semisst.Table {
	s.t.mu.RLock()
	defer s.t.mu.RUnlock()
	var out []*semisst.Table
	for _, tb := range s.t.levels[level] {
		if overlapsAny(tb.sst.Range(), spans) {
			out = append(out, tb.sst)
		}
	}
	return out
}

func overlapsAny(r keys.Range, rs []keys.Range) bool {
	for _, o := range rs {
		if r.Overlaps(o) {
			return true
		}
	}
	return false
}

// deepOverlapSpans returns the key ranges of tb's live blocks that overlap
// the incoming slice and collide with live blocks one level deeper — the
// candidates for preemptive merging — from index metadata alone.
func (s *segmented) deepOverlapSpans(level int, tb *table, slice []Entry, op device.Op) []keys.Range {
	span := keys.Range{Lo: slice[0].Key.User, Hi: keys.Successor(slice[len(slice)-1].Key.User)}
	tb.sst.ChargeIndexRead(op)
	var candidate []keys.Range
	for _, bm := range tb.sst.LiveBlockMetas() {
		if r := bm.Range(); r.Overlaps(span) {
			candidate = append(candidate, r)
		}
	}
	if len(candidate) == 0 {
		return nil
	}
	var deeper []keys.Range
	for _, next := range s.overlapping(level+1, candidate) {
		next.ChargeIndexRead(op)
		for _, bm := range next.LiveBlockMetas() {
			deeper = append(deeper, bm.Range())
		}
	}
	return slices.DeleteFunc(candidate, func(c keys.Range) bool { return !overlapsAny(c, deeper) })
}

// splitBySpans partitions sorted entries into those inside any span (deep)
// and the rest (shallow), both preserving order.
func splitBySpans(entries []Entry, spans []keys.Range) (deep, shallow []Entry) {
	for _, e := range entries {
		if slices.ContainsFunc(spans, func(s keys.Range) bool { return s.Contains(e.Key.User) }) {
			deep = append(deep, e)
		} else {
			shallow = append(shallow, e)
		}
	}
	return deep, shallow
}

// pickVictim implements §3.4 victim selection: the dirtiest table once space
// amplification is past the limit, else the best overlap score (Algorithm
// 1) of a power-of-k sample. Candidates are in segment order and ties go to
// the lowest segment, so the choice depends on contents and seed alone.
func (s *segmented) pickVictim(level int, op device.Op) *table {
	k := s.t.opts.PowerK
	s.t.mu.Lock()
	tables := s.t.levels[level]
	if len(tables) == 0 {
		s.t.mu.Unlock()
		return nil
	}
	overLimit := s.t.spaceAmpLocked() > s.t.opts.SpaceAmpLimit
	// Power-of-k sample.
	sample := slices.Clone(tables)
	if len(tables) > k {
		sample = sample[:0]
		seen := make(map[int]bool)
		for len(sample) < k {
			i := int(s.rand64() % uint64(len(tables)))
			if !seen[i] {
				seen[i] = true
				sample = append(sample, tables[i])
			}
		}
	}
	s.t.mu.Unlock()

	best, bestScore := (*table)(nil), int64(-1)
	for _, tb := range sample {
		score := tb.sst.StaleBytes()
		if !overLimit {
			score = int64(s.overlapScore(level, tb, op))
		}
		if score > bestScore || (score == bestScore && tb.seg < best.seg) {
			best, bestScore = tb, score
		}
	}
	return best
}

// overlapScore implements Algorithm 1: from the candidate's live blocks,
// walk k levels down counting blocks that overlap those matched above.
func (s *segmented) overlapScore(level int, tb *table, op device.Op) int {
	tb.sst.ChargeIndexRead(op)
	cur := make([]keys.Range, 0, 8)
	for _, bm := range tb.sst.LiveBlockMetas() {
		cur = append(cur, bm.Range())
	}
	score := 0
	for n := 1; n <= s.t.opts.Depth && len(cur) > 0 && level+n <= s.t.bottom; n++ {
		var next []keys.Range
		for _, tbl := range s.overlapping(level+n, cur) {
			tbl.ChargeIndexRead(op)
			for _, bm := range tbl.LiveBlockMetas() {
				r := bm.Range()
				if overlapsAny(r, cur) {
					next = append(next, r)
					score++
				}
			}
		}
		cur = next
	}
	return score
}

// rand64 steps the policy's xorshift generator. Caller holds the tree's mu.
func (s *segmented) rand64() uint64 {
	s.rnd ^= s.rnd << 13
	s.rnd ^= s.rnd >> 7
	s.rnd ^= s.rnd << 17
	return s.rnd
}
