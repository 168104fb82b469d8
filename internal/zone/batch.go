package zone

// BatchOp is one write in an ApplyBatch call: a put, or a tombstone when
// Delete is set. Seq and Hot are resolved by the caller (core.DB allocates
// one sequence block per batch and classifies hotness via the tracker).
type BatchOp struct {
	Key    []byte
	Value  []byte
	Seq    uint64
	Hot    bool
	Delete bool
}

// ApplyBatch is the tier's one write entry point. It applies ops in order
// under a single lock acquisition — the point of DB.WriteBatch: one mutex
// round-trip per partition group instead of one per key. It returns how many
// ops were applied; on error the remaining ops are untouched, so a stalled
// caller can free space and resume from ops[applied:] with the original
// sequences.
func (m *Manager) ApplyBatch(ops []BatchOp) (applied int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range ops {
		op := &ops[i]
		if op.Delete {
			err = m.deleteLocked(op.Key, op.Seq)
		} else {
			err = m.putLocked(op.Key, op.Value, op.Seq, op.Hot)
		}
		if err != nil {
			return i, err
		}
	}
	return len(ops), nil
}
