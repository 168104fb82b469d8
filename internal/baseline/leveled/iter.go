package leveled

import (
	"bytes"

	"hyperdb/internal/device"
	"hyperdb/internal/mergeiter"
)

// ScanIter streams live user keys in order across every level, resolving
// versions by sequence and eliding tombstones: one source per L0 table and,
// per deeper level, one chain of its key-disjoint tables opened only as the
// scan reaches them. Key and Value are views valid until Next. Callers must
// Close the iterator to release its table references.
type ScanIter struct {
	*mergeiter.Iter
	tables []*table
}

// Close releases the iterator's table references. Idempotent.
func (s *ScanIter) Close() {
	for _, t := range s.tables {
		t.release()
	}
	s.tables = nil
}

// Key returns the current user key.
func (s *ScanIter) Key() []byte { return s.Iter.Key().User }

// NewScanIter opens a merged iterator at the first key >= lo (nil = start).
func (l *LSM) NewScanIter(lo []byte, op device.Op) *ScanIter {
	s := &ScanIter{}
	levelEnd := make([]int, 0, l.opts.MaxLevels)
	l.mu.RLock()
	for _, tables := range l.levels {
		for _, t := range tables {
			if lo == nil || bytes.Compare(t.largest, lo) >= 0 {
				t.acquire()
				s.tables = append(s.tables, t)
			}
		}
		levelEnd = append(levelEnd, len(s.tables))
	}
	l.mu.RUnlock()

	open := func(t *table) mergeiter.Source {
		it := t.sst.NewIter(op)
		if lo == nil {
			it.First()
		} else {
			it.SeekGE(lo)
		}
		return &it
	}
	var srcs []mergeiter.Source
	for _, t := range s.tables[:levelEnd[0]] {
		srcs = append(srcs, open(t))
	}
	for level := 1; level < len(levelEnd); level++ {
		if run := s.tables[levelEnd[level-1]:levelEnd[level]]; len(run) > 0 {
			srcs = append(srcs, mergeiter.NewConcat(len(run), func(i int) mergeiter.Source { return open(run[i]) }))
		}
	}
	s.Iter = mergeiter.Merge(srcs, true)
	return s
}
