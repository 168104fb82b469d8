package lsm

import (
	"bytes"

	"hyperdb/internal/device"
	"hyperdb/internal/mergeiter"
	"hyperdb/internal/semisst"
)

// ScanIter streams the live user keys from a start key in order: a source
// per L0 table and a lazily opened chain per deeper level, merged newest
// version first, tombstones elided. Key and Value are valid until Next;
// Close releases the table references.
type ScanIter struct {
	*mergeiter.Iter
	tables []*table
	its    []semisst.Iter // parallel to tables: each table's block snapshot
	opened int            // tables positioned so far, for tests and benchmarks
}

// Close releases the iterator's table references. Idempotent.
func (s *ScanIter) Close() {
	for _, tb := range s.tables {
		tb.release()
	}
	s.tables = nil
}

// Key returns the current user key.
func (s *ScanIter) Key() []byte { return s.Iter.Key().User }

// NewScanIter returns an iterator over the user keys >= lo (nil = from the
// start) across all levels, charging reads with op.
//
// Candidates are the tables whose last key is at or past lo; a deeper
// level's are key-disjoint and each is positioned — a block read and
// decoded — only when the scan reaches it. Creation takes every candidate's
// block snapshot without I/O in one hold of the tree lock, shallow level
// before deep: data only moves down, a destination is durable before its
// source lets go, and no table is replaced under the lock, so a key that
// left a table before its snapshot is in the deeper table's later one.
func (t *Tree) NewScanIter(lo []byte, op device.Op) *ScanIter {
	s := &ScanIter{}
	levelEnd := make([]int, 0, len(t.levels))
	t.mu.RLock()
	for _, level := range t.levels {
		for _, tb := range level {
			if _, last, ok := tb.bounds(); ok && (lo == nil || bytes.Compare(last, lo) >= 0) {
				tb.acquire()
				s.tables = append(s.tables, tb)
				s.its = append(s.its, tb.sst.NewIter(op))
			}
		}
		levelEnd = append(levelEnd, len(s.tables))
	}
	t.mu.RUnlock()

	position := func(it *semisst.Iter) mergeiter.Source {
		s.opened++
		if lo == nil {
			it.First()
		} else {
			it.SeekGE(lo)
		}
		return it
	}
	srcs := make([]mergeiter.Source, 0, len(levelEnd))
	from := 0
	for level, end := range levelEnd {
		run := s.its[from:end]
		switch {
		case len(run) == 0:
		case level == 0: // overlapping tables
			for i := range run {
				srcs = append(srcs, position(&run[i]))
			}
		default:
			srcs = append(srcs, mergeiter.NewConcat(len(run), func(i int) mergeiter.Source { return position(&run[i]) }))
		}
		from = end
	}
	s.Iter = mergeiter.Merge(srcs, true)
	return s
}
