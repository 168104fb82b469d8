package lsm

import (
	"bytes"
	"slices"

	"hyperdb/internal/device"
	"hyperdb/internal/keys"
	"hyperdb/internal/mergeiter"
)

// L0 table counts that trigger an L0→L1 compaction and stall writers.
const l0Compact, l0Stall = 4, 12

// leveled is the classic compaction policy: overlapping L0, file-size cuts,
// whole-table merges, and compactions into different target levels running
// concurrently — how capacity-tier bandwidth scales with thread count in
// Figures 2a/3a.
type leveled struct {
	t *Tree

	// Guarded by the tree's mu.
	rr        []int           // round-robin victim cursor per level
	busy      map[*table]bool // inputs of in-flight compactions
	activeOut []bool          // a compaction is writing into this level
}

// ingest writes entries, in internal-key order, as new L0 tables (a
// memtable flush or a migration). Only the newest version of each key is
// written, compacting entries in place: every baseline reads at
// keys.MaxSeq, so no reader could see an older one.
func (l *leveled) ingest(entries []Entry, op device.Op) error {
	op.Background = true
	op.Sequential = true
	entries = slices.CompactFunc(entries, func(a, b Entry) bool { return bytes.Equal(a.Key.User, b.Key.User) })
	tables, err := l.buildRun(0, entries, op)
	if err != nil {
		return err
	}
	l.t.mu.Lock()
	l.t.levels[0] = append(l.t.levels[0], tables...)
	l.t.mu.Unlock()
	return nil
}

// buildRun writes sorted entries as tables of level cut at FileSize. A
// failure releases the tables already built: a failed flush or compaction
// leaves no file behind, however often it is retried.
func (l *leveled) buildRun(level int, entries []Entry, op device.Op) ([]*table, error) {
	var out []*table
	for len(entries) > 0 {
		n, size := 0, int64(0)
		for n < len(entries) && size < l.t.opts.FileSize {
			size += int64(len(entries[n].Key.User) + len(entries[n].Value) + 16)
			n++
		}
		tb, err := l.t.build(level, 0, size, entries[:n], op)
		if err != nil {
			for _, tb := range out {
				tb.release()
			}
			return nil, err
		}
		out = append(out, tb)
		entries = entries[n:]
	}
	return out, nil
}

// target returns level k's byte budget (L0 counts tables instead).
func (l *leveled) target(level int) int64 {
	t := l.t.opts.L1Target
	for i := 1; i < level; i++ {
		t *= int64(l.t.opts.Ratio)
	}
	return t
}

// overBudget reports whether level k ≥ 1 is past its budget. Caller holds
// the tree's mu.
func (l *leveled) overBudget(level int) bool {
	_, file := l.t.levelBytesLocked(level)
	return file > l.target(level)
}

func (l *leveled) idle() bool {
	l.t.mu.RLock()
	defer l.t.mu.RUnlock()
	if len(l.t.levels[0]) >= l0Compact || slices.Contains(l.activeOut, true) {
		return false
	}
	for level := 1; level < l.t.bottom; level++ {
		if l.overBudget(level) {
			return false
		}
	}
	return true
}

// compact merges all of L0 into L1, or a round-robin victim of an
// over-budget level into the level below, each with the overlapping tables
// of its target, and reports whether it started one.
func (l *leveled) compact(op device.Op) (bool, error) {
	op.Background = true

	l.t.mu.Lock()
	p, ok := l.planLocked()
	if !ok {
		l.t.mu.Unlock()
		return false, nil
	}
	inputs := append(slices.Clone(p.srcs), p.overlaps...)
	for _, tb := range inputs {
		l.busy[tb] = true
	}
	l.activeOut[p.target] = true
	l.t.mu.Unlock()

	err := l.mergeInto(p, inputs, op)

	l.t.mu.Lock()
	for _, tb := range inputs {
		delete(l.busy, tb)
	}
	l.activeOut[p.target] = false
	l.t.mu.Unlock()
	return true, err
}

// plan is one compaction's inputs.
type plan struct {
	level, target int
	srcs          []*table
	overlaps      []*table
}

// planLocked picks the shallowest actionable compaction. Caller holds the
// tree's mu.
func (l *leveled) planLocked() (plan, bool) {
	levels := l.t.levels
	// L0 first. With an L0 round in flight, try the deeper levels rather
	// than idle: a sustained ingest would starve every level below L1.
	if len(levels[0]) >= l0Compact && !l.activeOut[1] {
		srcs := slices.Clone(levels[0])
		if !slices.ContainsFunc(srcs, func(tb *table) bool { return l.busy[tb] }) {
			span := keyRange(srcs[0])
			for _, tb := range srcs[1:] {
				span = span.Union(keyRange(tb))
			}
			if overlaps, ok := l.overlapsLocked(1, span); ok {
				return plan{level: 0, target: 1, srcs: srcs, overlaps: overlaps}, true
			}
		}
	}
	for level := 1; level < l.t.bottom; level++ {
		if l.activeOut[level+1] || len(levels[level]) == 0 || !l.overBudget(level) {
			continue
		}
		// Round-robin victim, skipping busy tables.
		tables := levels[level]
		var victim *table
		for try := 0; try < len(tables); try++ {
			cand := tables[l.rr[level]%len(tables)]
			l.rr[level]++
			if !l.busy[cand] {
				victim = cand
				break
			}
		}
		if victim == nil {
			continue
		}
		if overlaps, ok := l.overlapsLocked(level+1, keyRange(victim)); ok {
			return plan{level: level, target: level + 1, srcs: []*table{victim}, overlaps: overlaps}, true
		}
	}
	return plan{}, false
}

// keyRange returns a table's key span (Leveled tables are never empty).
func keyRange(tb *table) keys.Range {
	first, last, _ := tb.bounds()
	return keys.Range{Lo: first, Hi: keys.Successor(last)}
}

// overlapsLocked collects level's tables overlapping span; ok=false when any
// needed input is busy in another compaction. Caller holds the tree's mu.
func (l *leveled) overlapsLocked(level int, span keys.Range) ([]*table, bool) {
	if level > l.t.bottom {
		return nil, true
	}
	var out []*table
	for _, tb := range l.t.levels[level] {
		if keyRange(tb).Overlaps(span) {
			if l.busy[tb] {
				return nil, false
			}
			out = append(out, tb)
		}
	}
	return out, true
}

// mergeInto rewrites the plan's inputs as target-level tables and installs
// them.
func (l *leveled) mergeInto(p plan, inputs []*table, op device.Op) error {
	tr := l.t.traffic[p.target]
	for _, tb := range inputs {
		tr.ReadBytes.Add(uint64(tb.sst.FileBytes()))
	}
	tr.Compactions.Inc()

	out, err := l.rewrite(inputs, p.target, op)
	if err != nil {
		return err
	}

	// Install: remove the inputs, insert the new run in key order.
	l.t.mu.Lock()
	levels := l.t.levels
	levels[p.level] = slices.DeleteFunc(levels[p.level], func(tb *table) bool { return slices.Contains(p.srcs, tb) })
	levels[p.target] = slices.DeleteFunc(levels[p.target], func(tb *table) bool { return slices.Contains(p.overlaps, tb) })
	levels[p.target] = append(levels[p.target], out...)
	sortTables(levels[p.target])
	if len(levels[0]) < l0Stall {
		close(l.t.stallCh)
		l.t.stallCh = make(chan struct{})
	}
	l.t.mu.Unlock()

	// Files disappear once in-flight readers finish.
	for _, tb := range inputs {
		tb.release()
	}
	return nil
}

func sortTables(ts []*table) {
	slices.SortStableFunc(ts, func(a, b *table) int {
		fa, _, _ := a.bounds()
		fb, _, _ := b.bounds()
		return bytes.Compare(fa, fb)
	})
}

// rewrite merges tables — newest version per user key, tombstones kept
// above the bottom level — into fresh tables at level: compaction and
// recovery's overlap repair.
func (l *leveled) rewrite(tables []*table, level int, op device.Op) ([]*table, error) {
	srcs := make([]mergeiter.Source, len(tables))
	for i, tb := range tables {
		it := tb.sst.NewIter(device.BgSeq)
		it.First()
		srcs[i] = &it
	}
	var merged []Entry
	m := mergeiter.Merge(srcs, level == l.t.bottom)
	for ; m.Valid(); m.Next() {
		k := m.Key()
		merged = append(merged, Entry{
			Key:   keys.InternalKey{User: bytes.Clone(k.User), Seq: k.Seq, Kind: k.Kind},
			Value: bytes.Clone(m.Value()),
		})
	}
	if err := m.Err(); err != nil {
		return nil, err
	}
	return l.buildRun(level, merged, op)
}

// settle restores a level's recovered tables. Generations are no
// cross-level recency order (a deep compaction output can be younger than
// an L0 flush holding newer versions), so tables stay at their named levels;
// within L0 flushes are serialized, so generation order is arrival order. A
// crash mid-compaction can leave its outputs next to its not-yet-removed
// inputs: each group of overlapping tables at L1+ is merged by sequence, so
// the newest version wins whichever crash window produced the overlap.
func (l *leveled) settle(level int, tables []*table) ([]*table, error) {
	if level == 0 {
		slices.Reverse(tables)
		return tables, nil
	}
	sortTables(tables)
	var out []*table
	for i, j := 0, 1; i < len(tables); i, j = j, j+1 {
		_, hi, _ := tables[i].bounds()
		for ; j < len(tables); j++ {
			first, last, _ := tables[j].bounds()
			if bytes.Compare(first, hi) > 0 {
				break
			}
			if bytes.Compare(last, hi) > 0 {
				hi = last
			}
		}
		group := tables[i:j]
		if len(group) == 1 {
			out = append(out, group[0])
			continue
		}
		merged, err := l.rewrite(group, level, device.BgSeq)
		if err != nil {
			return nil, err
		}
		for _, tb := range group {
			tb.release()
		}
		out = append(out, merged...)
	}
	sortTables(out)
	return out, nil
}
