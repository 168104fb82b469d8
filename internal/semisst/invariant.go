package semisst

import (
	"bytes"
	"fmt"
)

// CheckInvariants validates the table's structural invariants: live blocks
// strictly ordered and pairwise disjoint by key range, each block's bounds
// in order, and the stale and live sums consistent with the blocks they
// summarise. Tests and the harness call this after mutation storms.
func (t *Table) CheckInvariants() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var prevLast []byte
	for i, li := range t.live {
		b := &t.blocks[li]
		if !b.Valid {
			return fmt.Errorf("semisst: live[%d] points at invalid block", i)
		}
		if bytes.Compare(b.First, b.Last) > 0 {
			return fmt.Errorf("semisst: block %d bounds %q..%q out of order", li, b.First, b.Last)
		}
		if prevLast != nil && bytes.Compare(prevLast, b.First) >= 0 {
			return fmt.Errorf("semisst: live blocks overlap: prev last %q >= first %q (block %d)",
				prevLast, b.First, li)
		}
		prevLast = b.Last
	}
	var stale, live int64
	entries := 0
	for i := range t.blocks {
		if b := &t.blocks[i]; b.Valid {
			live += int64(b.Handle.Size)
			entries += b.Entries
		} else {
			stale += int64(b.Handle.Size)
		}
	}
	if stale != t.stale || live != t.liveBytes || entries != t.liveEntries {
		return fmt.Errorf("semisst: accounting stale=%d live=%d entries=%d != computed %d, %d, %d",
			t.stale, t.liveBytes, t.liveEntries, stale, live, entries)
	}
	return nil
}
