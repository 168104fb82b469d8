// Package mergeiter is the one k-way merge over sorted runs: range scans of
// the LSM tree under both compaction policies, and the classic policy's
// compaction and recovery merges, all read through it.
package mergeiter

import (
	"bytes"
	"container/heap"

	"hyperdb/internal/keys"
)

// Source is a positioned stream of entries ascending by internal key: user
// keys ascend and a user key's versions come newest first. Key and Value are
// views that stay valid until the next call to Next.
type Source interface {
	Valid() bool
	Next()
	Key() keys.InternalKey
	Value() []byte
	Err() error
}

// Iter yields the newest version of every user key found in its sources, in
// user-key order. Key and Value are the winning source's views: copy what
// must outlive the next call to Next.
type Iter struct {
	h    sourceHeap
	drop bool   // tombstoned user keys are skipped, not yielded
	user []byte // scratch: the user key Next is moving past
	err  error
}

// Merge merges positioned sources. With dropTombstones a user key whose
// newest version is a tombstone is elided — a scan, or a compaction into the
// bottom level; without it the tombstone is yielded like any version, so it
// keeps shadowing older data below. The first source error ends the
// iteration and is reported by Err.
func Merge(srcs []Source, dropTombstones bool) *Iter {
	m := &Iter{h: make(sourceHeap, 0, len(srcs)), drop: dropTombstones}
	for _, s := range srcs {
		if s.Valid() {
			m.h = append(m.h, s)
		} else if err := s.Err(); err != nil && m.err == nil {
			m.err = err
		}
	}
	heap.Init(&m.h)
	m.settle()
	return m
}

// Valid reports whether the iterator is positioned at an entry.
func (m *Iter) Valid() bool { return m.err == nil && len(m.h) > 0 }

// Key returns the current entry's internal key.
func (m *Iter) Key() keys.InternalKey { return m.h[0].Key() }

// Value returns the current entry's value.
func (m *Iter) Value() []byte { return m.h[0].Value() }

// Err returns the error that ended the iteration, if any.
func (m *Iter) Err() error { return m.err }

// Next advances to the next user key.
func (m *Iter) Next() {
	m.skipUser()
	m.settle()
}

// skipUser moves every source past the current user key. The heap orders by
// internal key, so the versions of one user key surface back to back.
func (m *Iter) skipUser() {
	m.user = append(m.user[:0], m.h[0].Key().User...)
	for len(m.h) > 0 && bytes.Equal(m.h[0].Key().User, m.user) {
		top := m.h[0]
		top.Next()
		if top.Valid() {
			heap.Fix(&m.h, 0)
			continue
		}
		if m.err = top.Err(); m.err != nil {
			return
		}
		heap.Pop(&m.h)
	}
}

// settle skips user keys whose newest version is an elided tombstone.
func (m *Iter) settle() {
	for m.drop && m.Valid() && m.h[0].Key().Kind == keys.KindDelete {
		m.skipUser()
	}
}

type sourceHeap []Source

func (h sourceHeap) Len() int           { return len(h) }
func (h sourceHeap) Less(i, j int) bool { return keys.Compare(h[i].Key(), h[j].Key()) < 0 }
func (h sourceHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *sourceHeap) Push(x any)        { *h = append(*h, x.(Source)) }
func (h *sourceHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// Concat chains n key-disjoint runs, given in ascending key order, into one
// Source. open(i) returns run i positioned at its first wanted entry and is
// called only when the stream reaches run i, so a consumer that stops early
// never pays for the runs behind its stopping point.
type Concat struct {
	n, next int
	open    func(i int) Source
	cur     Source // nil when exhausted or failed; otherwise valid
	err     error
}

// NewConcat returns the chain positioned at its first entry: it opens runs
// until one has an entry.
func NewConcat(n int, open func(i int) Source) *Concat {
	c := &Concat{n: n, open: open}
	c.settle()
	return c
}

// settle leaves cur on a valid run, opening the following ones as needed.
func (c *Concat) settle() {
	for c.cur == nil || !c.cur.Valid() {
		if c.cur != nil {
			c.err = c.cur.Err()
		}
		if c.err != nil || c.next >= c.n {
			c.cur = nil
			return
		}
		c.cur = c.open(c.next)
		c.next++
	}
}

// Valid reports whether the chain is positioned at an entry.
func (c *Concat) Valid() bool { return c.cur != nil }

// Next advances, crossing into the next run when the current one ends.
func (c *Concat) Next() {
	c.cur.Next()
	c.settle()
}

// Key returns the current internal key.
func (c *Concat) Key() keys.InternalKey { return c.cur.Key() }

// Value returns the current value.
func (c *Concat) Value() []byte { return c.cur.Value() }

// Err returns the error that ended the chain, if any.
func (c *Concat) Err() error { return c.err }
