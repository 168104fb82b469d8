package lsm

import (
	"sort"

	"hyperdb/internal/device"
	"hyperdb/internal/keys"
	"hyperdb/internal/semisst"
)

// MaybeCompact runs at most one background compaction step: a pending full
// compaction of an over-dirty table, or a preemptive block compaction of the
// shallowest over-capacity level. Returns whether any work was done.
// Mutations are single-goroutine per tree (the partition's compaction
// thread); reads may proceed concurrently.
func (t *Tree) MaybeCompact(op device.Op) (bool, error) {
	t.mutMu.Lock()
	defer t.mutMu.Unlock()
	op.Background = true
	// Full compactions first: they bound space amplification. Merges rewrite
	// a table themselves when they would push it past TClean (mergeInto), so
	// what queues here is what a carve-out alone left over-dirty.
	if fe, level := t.popPendingFull(); fe != nil {
		entries, n, err := fe.table.AllEntries(op)
		t.traffic[level].ReadBytes.Add(uint64(n))
		if err != nil {
			return false, err
		}
		if err := t.replaceTable(level, fe.seg, fe, entries, op); err != nil {
			return false, err // old table remains installed; retry later
		}
		t.traffic[level].FullRewrites.Inc()
		return true, nil
	}
	for level := 1; level < t.opts.MaxLevels; level++ {
		live, _ := t.LevelBytes(level)
		if live <= t.capacity(level) {
			continue
		}
		if err := t.compactLevel(level, op); err != nil {
			return false, err
		}
		return true, nil
	}
	return false, nil
}

// popPendingFull dequeues one table still needing a full compaction and
// reports its level.
func (t *Tree) popPendingFull() (*fileEntry, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.pendingFull) > 0 {
		fe := t.pendingFull[0]
		t.pendingFull = t.pendingFull[1:]
		for level := 1; level <= t.opts.MaxLevels; level++ {
			if t.levels[level][fe.seg] == fe {
				if fe.table.DirtyRatio() > t.opts.TClean {
					return fe, level
				}
				break
			}
		}
	}
	return nil, 0
}

// compactLevel drains one victim table from level into the levels below via
// preemptive block compaction (Fig. 7). The victim is dropped only after
// every destination has synced: a failed or interrupted push leaves it
// installed and on the device, so no acked key is ever unreadable and the
// next pass simply pushes it again.
func (t *Tree) compactLevel(level int, op device.Op) error {
	victim := t.pickVictim(level, op)
	if victim == nil {
		return nil
	}
	entries, n, err := victim.table.AllEntries(op)
	t.traffic[level].ReadBytes.Add(uint64(n))
	if err != nil {
		return err
	}
	if err := t.pushEntries(level+1, entries, t.opts.Depth-1, op); err != nil {
		return err
	}
	t.traffic[level].Compactions.Inc()
	return t.replaceTable(level, victim.seg, victim, nil, op)
}

// pushEntries merges sorted entries into the given level, slice by owning
// segment. With remaining depth budget, blocks of the target file whose
// contents collide with the level below are carved out and pushed deeper
// together with the incoming entries that fall in them — the preemptive
// merge of §3.4 that avoids rewriting those objects once per level.
func (t *Tree) pushEntries(level int, entries []semisst.Entry, budget int, op device.Op) error {
	if level > t.opts.MaxLevels {
		level = t.opts.MaxLevels
	}
	drop := level == t.opts.MaxLevels // tombstones die at the bottom
	for i := 0; i < len(entries); {
		seg := t.segFor(level, entries[i].Key.User)
		j := i + 1
		for j < len(entries) && t.segFor(level, entries[j].Key.User) == seg {
			j++
		}
		slice := entries[i:j]
		i = j

		t.mu.RLock()
		fe := t.levels[level][seg]
		t.mu.RUnlock()
		if fe == nil {
			// Non-overlapping insert: the slice becomes fresh blocks.
			if drop {
				slice = filterTombstones(slice)
			}
			if err := t.replaceTable(level, seg, nil, slice, op); err != nil {
				return err
			}
			continue
		}

		if budget > 0 && !drop {
			if spans := t.deepOverlapSpans(level, fe, slice, op); len(spans) > 0 {
				deepIncoming, shallowIncoming := splitBySpans(slice, spans)
				before := fe.table.FileBytes()
				st, err := fe.table.ExtractOverlapping(spans, op, func(extracted []semisst.Entry) error {
					deep := semisst.MergeSorted(extracted, deepIncoming, false)
					return t.pushEntries(level+1, deep, budget-1, op)
				})
				t.traffic[level].ReadBytes.Add(uint64(st.BytesRead))
				// A carve-out appends no data, only the index that records it.
				t.traffic[level].WriteBytes.Add(uint64(fe.table.FileBytes() - before))
				if err != nil {
					return err
				}
				slice = shallowIncoming
				t.noteDirty(fe)
			}
		}
		if err := t.mergeInto(level, fe, slice, drop, op); err != nil {
			return err
		}
	}
	return nil
}

// mergeInto merges a sorted slice into an installed table. When block
// metadata predicts the merge would leave the table past TClean, the full
// compaction happens here instead of after: every live block is read once,
// merged with the slice and written once as the next generation, rather
// than appending merged blocks that the queued rewrite would read and write
// again.
func (t *Tree) mergeInto(level int, fe *fileEntry, slice []semisst.Entry, drop bool, op device.Op) error {
	if len(slice) == 0 {
		return nil
	}
	if fe.table.DirtyRatioAfterMerge(slice, drop) > t.opts.TClean {
		existing, n, err := fe.table.AllEntries(op)
		t.traffic[level].ReadBytes.Add(uint64(n))
		if err != nil {
			return err
		}
		return t.replaceTable(level, fe.seg, fe, semisst.MergeSorted(existing, slice, drop), op)
	}
	before := fe.table.FileBytes()
	st, err := fe.table.Merge(slice, drop, op)
	t.traffic[level].ReadBytes.Add(uint64(st.BytesRead))
	if err != nil {
		return err
	}
	t.traffic[level].WriteBytes.Add(uint64(fe.table.FileBytes() - before))
	t.noteDirty(fe)
	return nil
}

// deepOverlapSpans returns the key ranges of fe's live blocks that (a)
// overlap the incoming slice and (b) collide with live blocks one level
// deeper — the candidates for preemptive merging. Only index metadata is
// consulted (block key ranges), never data blocks; index reads are charged
// to the meta mirror.
func (t *Tree) deepOverlapSpans(level int, fe *fileEntry, slice []semisst.Entry, op device.Op) []keys.Range {
	span := keys.Range{
		Lo: slice[0].Key.User,
		Hi: keys.Successor(slice[len(slice)-1].Key.User),
	}
	fe.table.ChargeIndexRead(op)
	var candidate []keys.Range
	for _, bm := range fe.table.LiveBlockMetas() {
		if r := bm.Range(); r.Overlaps(span) {
			candidate = append(candidate, r)
		}
	}
	if len(candidate) == 0 {
		return nil
	}
	// Collect the next level's live block ranges across files overlapping
	// the candidates.
	t.mu.RLock()
	var nextTables []*semisst.Table
	for _, nfe := range t.levels[level+1] {
		nr := nfe.table.Range()
		for _, c := range candidate {
			if nr.Overlaps(c) {
				nextTables = append(nextTables, nfe.table)
				break
			}
		}
	}
	t.mu.RUnlock()
	if len(nextTables) == 0 {
		return nil
	}
	var deeper []keys.Range
	for _, tbl := range nextTables {
		tbl.ChargeIndexRead(op)
		for _, bm := range tbl.LiveBlockMetas() {
			deeper = append(deeper, bm.Range())
		}
	}
	var out []keys.Range
	for _, c := range candidate {
		for _, d := range deeper {
			if c.Overlaps(d) {
				out = append(out, c)
				break
			}
		}
	}
	return out
}

// splitBySpans partitions sorted entries into those inside any span (deep)
// and the rest (shallow), both preserving order.
func splitBySpans(entries []semisst.Entry, spans []keys.Range) (deep, shallow []semisst.Entry) {
	for _, e := range entries {
		in := false
		for _, s := range spans {
			if s.Contains(e.Key.User) {
				in = true
				break
			}
		}
		if in {
			deep = append(deep, e)
		} else {
			shallow = append(shallow, e)
		}
	}
	return deep, shallow
}

// pickVictim implements §3.4 victim selection: dirtiest table when space
// amplification is past the limit, otherwise the highest overlap score
// (Algorithm 1) among a power-of-k random sample. The choice is a function
// of the tree's contents and its seeded PRNG alone: candidates are ordered
// by segment before sampling and ties go to the lowest segment.
func (t *Tree) pickVictim(level int, op device.Op) *fileEntry {
	t.mu.Lock()
	tables := make([]*fileEntry, 0, len(t.levels[level]))
	for _, fe := range t.levels[level] {
		tables = append(tables, fe)
	}
	if len(tables) == 0 {
		t.mu.Unlock()
		return nil
	}
	sort.Slice(tables, func(a, b int) bool { return tables[a].seg < tables[b].seg })
	var live, stale int64
	for l := 1; l <= t.opts.MaxLevels; l++ {
		for _, cfe := range t.levels[l] {
			live += cfe.table.LiveBytes()
			stale += cfe.table.StaleBytes()
		}
	}
	overLimit := live > 0 && float64(live+stale)/float64(live) > t.opts.SpaceAmpLimit
	// Power-of-k sample.
	sample := tables
	if len(tables) > t.opts.PowerK {
		sample = make([]*fileEntry, 0, t.opts.PowerK)
		seen := make(map[int]bool)
		for len(sample) < t.opts.PowerK {
			i := int(t.rand64() % uint64(len(tables)))
			if !seen[i] {
				seen[i] = true
				sample = append(sample, tables[i])
			}
		}
	}
	t.mu.Unlock()

	var best *fileEntry
	var bestScore int64 = -1
	for _, fe := range sample {
		var s int64
		if overLimit {
			s = fe.table.StaleBytes()
		} else {
			s = int64(t.overlapScore(level, fe, op))
		}
		if s > bestScore || (s == bestScore && fe.seg < best.seg) {
			best, bestScore = fe, s
		}
	}
	return best
}

// overlapScore implements Algorithm 1: starting from the candidate's live
// block ranges, walk k levels down counting blocks whose key ranges overlap
// the ranges matched at the previous level.
func (t *Tree) overlapScore(level int, fe *fileEntry, op device.Op) int {
	fe.table.ChargeIndexRead(op)
	cur := make([]keys.Range, 0, 8)
	for _, bm := range fe.table.LiveBlockMetas() {
		cur = append(cur, bm.Range())
	}
	score := 0
	for n := 1; n <= t.opts.Depth && len(cur) > 0; n++ {
		lvl := level + n
		if lvl > t.opts.MaxLevels {
			break
		}
		t.mu.RLock()
		var tbls []*semisst.Table
		for _, nfe := range t.levels[lvl] {
			nr := nfe.table.Range()
			for _, c := range cur {
				if nr.Overlaps(c) {
					tbls = append(tbls, nfe.table)
					break
				}
			}
		}
		t.mu.RUnlock()
		var next []keys.Range
		for _, tbl := range tbls {
			tbl.ChargeIndexRead(op)
			for _, bm := range tbl.LiveBlockMetas() {
				r := bm.Range()
				for _, c := range cur {
					if r.Overlaps(c) {
						next = append(next, r)
						score++
						break
					}
				}
			}
		}
		cur = next
	}
	return score
}
