package lsm

import (
	"sort"

	"hyperdb/internal/device"
	"hyperdb/internal/mergeiter"
	"hyperdb/internal/semisst"
)

// TreeIter streams the live user keys at or above a start key in order: one
// lazily opened chain of segment tables per level, merged newest version
// first with tombstones elided. Key and Value are views valid until Next.
// Callers must Close the iterator to release its table references.
type TreeIter struct {
	*mergeiter.Iter
	entries []*fileEntry
	its     []semisst.Iter // parallel to entries: each table's block snapshot
	opened  int            // tables positioned so far, for tests and benchmarks
}

// Close releases the iterator's table references. Idempotent.
func (s *TreeIter) Close() {
	for _, fe := range s.entries {
		fe.release()
	}
	s.entries = nil
}

// Key returns the current user key.
func (s *TreeIter) Key() []byte { return s.Iter.Key().User }

// NewScanIter returns an iterator over the user keys >= lo (nil = from the
// start) across all levels, charging reads with op.
//
// A level's tables cover disjoint, segment-ordered key ranges, so its
// candidates are the segments from lo's upward, and a table is positioned —
// a block read and decoded — only when the scan reaches it: at creation that
// is the first candidate of each level, nothing behind it. What creation
// does take of every candidate, in one hold of the tree lock and without
// I/O, is its block snapshot, shallow level before deep. Data only moves
// down and a destination is durable before its source lets go of the data,
// so a key that left a table before that table's snapshot is in the later
// snapshot of the deeper table it went to; and since no table is replaced
// while the lock is held, that deeper table is the one listed here.
func (t *Tree) NewScanIter(lo []byte, op device.Op) *TreeIter {
	s := &TreeIter{}
	levelEnd := make([]int, 0, t.opts.MaxLevels)
	t.mu.RLock()
	for level := 1; level <= t.opts.MaxLevels; level++ {
		first, from := 0, len(s.entries)
		if lo != nil {
			first = t.segFor(level, lo)
		}
		for seg, fe := range t.levels[level] {
			if seg >= first {
				fe.acquire()
				s.entries = append(s.entries, fe)
			}
		}
		run := s.entries[from:]
		sort.Slice(run, func(a, b int) bool { return run[a].seg < run[b].seg })
		levelEnd = append(levelEnd, len(s.entries))
	}
	s.its = make([]semisst.Iter, len(s.entries))
	for i, fe := range s.entries {
		s.its[i] = fe.table.NewIter(op)
	}
	t.mu.RUnlock()

	srcs := make([]mergeiter.Source, 0, len(levelEnd))
	from := 0
	for _, end := range levelEnd {
		if run := s.its[from:end]; len(run) > 0 {
			srcs = append(srcs, mergeiter.NewConcat(len(run), func(i int) mergeiter.Source {
				s.opened++
				if lo == nil {
					run[i].First()
				} else {
					run[i].SeekGE(lo)
				}
				return &run[i]
			}))
		}
		from = end
	}
	s.Iter = mergeiter.Merge(srcs, true)
	return s
}
