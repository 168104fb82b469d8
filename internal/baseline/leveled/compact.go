package leveled

import (
	"bytes"
	"slices"
	"time"

	"hyperdb/internal/device"
	"hyperdb/internal/keys"
	"hyperdb/internal/mergeiter"
)

// CompactOnce performs one compaction: all of L0 (plus overlapping L1) into
// L1, or one round-robin victim of an over-budget level (plus overlapping
// children) into the level below. Multiple background threads may call it
// concurrently — compactions into different target levels proceed in
// parallel, which is how the capacity-tier bandwidth scales with thread
// count in Figures 2a/3a. Returns whether work was started.
func (l *LSM) CompactOnce(op device.Op) (bool, error) {
	op.Background = true

	l.mu.Lock()
	plan, ok := l.planLocked()
	if !ok {
		l.mu.Unlock()
		return false, nil
	}
	for _, t := range plan.srcs {
		l.busy[t] = true
	}
	for _, t := range plan.overlaps {
		l.busy[t] = true
	}
	l.activeOut[plan.target] = true
	l.mu.Unlock()

	err := l.mergeInto(plan, op)

	l.mu.Lock()
	for _, t := range plan.srcs {
		delete(l.busy, t)
	}
	for _, t := range plan.overlaps {
		delete(l.busy, t)
	}
	l.activeOut[plan.target] = false
	l.mu.Unlock()
	return true, err
}

// Drain compacts on the caller's goroutine until no level is over budget and
// no compaction is in flight.
func (l *LSM) Drain() error {
	for {
		did, err := l.CompactOnce(device.Bg)
		if err != nil {
			return err
		}
		if did {
			continue
		}
		if l.Quiesced() {
			break
		}
		// A background thread holds the remaining work; yield and re-check.
		time.Sleep(time.Millisecond)
	}
	return nil
}

// plan is one compaction's inputs.
type plan struct {
	level    int
	target   int
	srcs     []*table
	overlaps []*table
}

// planLocked picks the shallowest actionable compaction. Caller holds mu.
func (l *LSM) planLocked() (plan, bool) {
	// L0 first: file-count trigger. When an L0 round is already in flight,
	// fall through to the deeper levels instead of idling — otherwise a
	// sustained ingest starves every level below L1.
	if len(l.levels[0]) >= l.opts.L0Compact && !l.activeOut[1] {
		srcs := append([]*table(nil), l.levels[0]...)
		if !slices.ContainsFunc(srcs, func(t *table) bool { return l.busy[t] }) {
			span := srcs[0].rang()
			for _, t := range srcs[1:] {
				span = span.Union(t.rang())
			}
			if overlaps, ok := l.overlapsLocked(1, span); ok {
				return plan{level: 0, target: 1, srcs: srcs, overlaps: overlaps}, true
			}
		}
	}
	for level := 1; level < l.opts.MaxLevels-1; level++ {
		if l.activeOut[level+1] {
			continue
		}
		var n int64
		for _, t := range l.levels[level] {
			n += t.size
		}
		if n <= l.target(level) || len(l.levels[level]) == 0 {
			continue
		}
		// Round-robin victim, skipping busy tables.
		tables := l.levels[level]
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
		overlaps, ok := l.overlapsLocked(level+1, victim.rang())
		if !ok {
			continue
		}
		return plan{level: level, target: level + 1, srcs: []*table{victim}, overlaps: overlaps}, true
	}
	return plan{}, false
}

// overlapsLocked collects level's tables overlapping span; ok=false when any
// needed input is busy in another compaction. Caller holds mu.
func (l *LSM) overlapsLocked(level int, span keys.Range) ([]*table, bool) {
	if level >= l.opts.MaxLevels {
		return nil, true
	}
	var out []*table
	for _, t := range l.levels[level] {
		if t.rang().Overlaps(span) {
			if l.busy[t] {
				return nil, false
			}
			out = append(out, t)
		}
	}
	return out, true
}

// mergeInto merges the plan's inputs, writes the result as new target-level
// tables, and installs them.
func (l *LSM) mergeInto(p plan, op device.Op) error {
	all := append(append([]*table(nil), p.srcs...), p.overlaps...)
	var readBytes int64
	for _, t := range all {
		readBytes += t.size
	}
	l.traffic[p.target].ReadBytes.Add(uint64(readBytes))
	l.traffic[p.target].Compactions.Inc()

	newTables, err := l.rewrite(all, p.target, op)
	if err != nil {
		return err
	}
	for _, tbl := range newTables {
		l.traffic[p.target].WriteBytes.Add(uint64(tbl.size))
	}

	// Install: remove inputs, insert the new run sorted by smallest key.
	l.mu.Lock()
	remove := func(level int, victims []*table) {
		l.levels[level] = slices.DeleteFunc(l.levels[level], func(t *table) bool { return slices.Contains(victims, t) })
	}
	remove(p.level, p.srcs)
	remove(p.target, p.overlaps)
	l.levels[p.target] = append(l.levels[p.target], newTables...)
	sortTables(l.levels[p.target])
	if len(l.levels[0]) < l.opts.L0Stall {
		close(l.stallCh)
		l.stallCh = make(chan struct{})
	}
	l.mu.Unlock()

	// Drop the LSM's reference; files disappear once in-flight readers
	// finish.
	for _, t := range all {
		t.release()
	}
	return nil
}

func sortTables(ts []*table) {
	slices.SortStableFunc(ts, func(a, b *table) int { return bytes.Compare(a.smallest, b.smallest) })
}

// rewrite merges tables — newest version per user key, tombstones kept
// unless level is the bottom one, where nothing is left for them to shadow
// — and writes the result as fresh tables at level. Compaction and crash
// repair both rewrite through it.
func (l *LSM) rewrite(tables []*table, level int, op device.Op) ([]*table, error) {
	srcs := make([]mergeiter.Source, len(tables))
	for i, t := range tables {
		it := t.sst.NewIter(device.BgSeq)
		it.First()
		srcs[i] = &it
	}
	var merged []Entry
	m := mergeiter.Merge(srcs, level == l.opts.MaxLevels-1)
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
	var out []*table
	for len(merged) > 0 {
		tbl, rest, err := l.buildTable(level, merged, op)
		if err != nil {
			return nil, err
		}
		out = append(out, tbl)
		merged = rest
	}
	return out, nil
}
