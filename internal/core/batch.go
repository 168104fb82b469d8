package core

import (
	"errors"
	"fmt"
	"slices"

	"hyperdb/internal/device"
	"hyperdb/internal/engine"
	"hyperdb/internal/zone"
)

// BatchOp is one write in a WriteBatch; see engine.BatchOp.
type BatchOp = engine.BatchOp

// WriteBatch applies ops with batch-grouped amortisation: keys are grouped
// per partition, each group takes the tracker and zone locks once, and the
// whole batch draws a single sequence block. Ordering follows the slice —
// duplicate keys resolve last-write-wins — and concurrent batches apply
// each key's writes in sequence order (see applyAt). The batch is not
// atomic across partitions; an error may leave a prefix applied.
//
// When a replication tee is installed the batch is also appended to the
// tee's log before the apply and committed after it, with no partition
// locked; Commit may block until followers acknowledge when synchronous
// replication is on.
func (db *DB) WriteBatch(ops []BatchOp) error {
	_, err := db.WriteBatchSeq(ops)
	return err
}

// WriteBatchSeq is WriteBatch returning the last sequence the batch
// committed at (op i carries base+i; the return is base+len(ops)-1). The
// serving layer hands this to session clients as their read-your-writes
// token: a follower read gated at this sequence observes the batch. A
// nil-op batch returns 0.
func (db *DB) WriteBatchSeq(ops []BatchOp) (uint64, error) {
	if db.closed.Load() {
		return 0, ErrClosed
	}
	if db.follower.Load() {
		return 0, ErrFollower
	}
	if len(ops) == 0 {
		return 0, nil
	}
	// Validate everything up front so a malformed op can't strand a
	// half-applied batch.
	for i := range ops {
		if len(ops[i].Key) == 0 {
			return 0, fmt.Errorf("hyperdb: empty key at batch index %d", i)
		}
		if ops[i].Merge && ops[i].Delete {
			return 0, fmt.Errorf("hyperdb: merge+delete op at batch index %d", i)
		}
	}

	// One sequence block for the batch, drawn once its partitions are
	// locked; op i carries base+i so slice order is sequence order. With a
	// tee the draw and the log append share a critical section so the
	// shipped log's base order matches sequence order.
	n := uint64(len(ops))
	var base, tok uint64
	tee := db.opts.Tee
	err := db.applyAt(ops, 1, func() uint64 {
		if tee != nil {
			db.replMu.Lock()
			defer db.replMu.Unlock()
		}
		base = db.seq.Add(n) - n + 1
		if tee != nil {
			// The tee gets its own slice: an interface call would otherwise
			// move every caller's ops to the heap, Put's one-op batch included.
			tok = tee.Append(base, slices.Clone(ops))
		}
		return base
	})
	if tee != nil {
		tee.Commit(tok, err == nil)
	}
	if err != nil {
		return 0, err
	}
	return base + n - 1, nil
}

// applyAt applies ops grouped per partition, op i at sequence base+i*step
// for the base draw returns. It write-locks every partition the ops touch,
// in ascending id, before it calls draw, and unlocks them after the apply.
// The foreground write path and the replication appliers share it, so
// replicated writes exercise the identical tracker/zone/stall machinery.
func (db *DB) applyAt(ops []BatchOp, step uint64, draw func() uint64) error {
	if db.tree != nil {
		// Every apply path dirties the written keys' Merkle leaves, so the
		// tree stays consistent on primaries, followers, and across
		// snapshot bootstraps alike.
		for i := range ops {
			db.tree.MarkKey(ops[i].Key)
		}
	}
	if len(ops) == 1 {
		p := db.partFor(ops[0].Key)
		p.writeMu.Lock()
		defer p.writeMu.Unlock()
		return db.applyGroup(p, ops, []int{0}, draw(), step)
	}
	// Group op indices per partition, preserving slice order within a
	// group; the slice order is the lock order.
	groups := make([][]int, len(db.parts))
	for i := range ops {
		id := db.partFor(ops[i].Key).id
		groups[id] = append(groups[id], i)
	}
	for id, idxs := range groups {
		if len(idxs) > 0 {
			db.parts[id].writeMu.Lock()
			defer db.parts[id].writeMu.Unlock()
		}
	}
	base := draw()
	for id, idxs := range groups {
		if len(idxs) > 0 {
			if err := db.applyGroup(db.parts[id], ops, idxs, base, step); err != nil {
				return err
			}
		}
	}
	return nil
}

// applyGroup applies one partition's slice of a batch under its write lock:
// merge ops resolve to plain puts of their post-merge values, then the group
// goes to the zone tier.
func (db *DB) applyGroup(p *partition, ops []BatchOp, idxs []int, base, step uint64) error {
	if err := db.resolveMerges(p, ops, idxs); err != nil {
		return err
	}
	var kb [1][]byte
	var hb [1]bool
	var zb [1]zone.BatchOp
	keyList, hot, zops := scratch(kb[:], len(idxs)), scratch(hb[:], len(idxs)), scratch(zb[:], len(idxs))
	for gi, i := range idxs {
		keyList[gi] = ops[i].Key
	}
	p.tracker.RecordBatch(keyList, hot)
	for gi, i := range idxs {
		zops[gi] = zone.BatchOp{
			Key:    ops[i].Key,
			Value:  ops[i].Value,
			Seq:    base + uint64(i)*step,
			Hot:    hot[gi],
			Delete: ops[i].Delete,
		}
	}
	rem := zops
	applied, err := p.zones.ApplyBatch(rem)
	rem = rem[applied:]
	if errors.Is(err, device.ErrNoSpace) {
		// Stall: demote synchronously and resume from the failed op,
		// keeping the already-allocated sequences.
		err = db.putStalled(p, func() error {
			n, rerr := p.zones.ApplyBatch(rem)
			rem = rem[n:]
			return rerr
		})
	}
	if err != nil {
		return err
	}
	p.applied.Store(base + uint64(idxs[len(idxs)-1])*step)
	db.maybeTriggerMigration(p)
	return nil
}

// scratch returns buf[:n] when n fits in it and a new slice otherwise, so a
// one-key group works in its caller's stack buffers.
func scratch[T any](buf []T, n int) []T {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]T, n)
}

// advanceSeqTo lifts the sequence counter to at least s, so sequences the
// node mints after a promotion stay above everything it applied.
func (db *DB) advanceSeqTo(s uint64) {
	for {
		cur := db.seq.Load()
		if cur >= s || db.seq.CompareAndSwap(cur, s) {
			return
		}
	}
}

// ApplyReplicated applies one shipped log entry on a follower: op i carries
// sequence base+i, exactly as the primary committed it. Entries must be
// applied in increasing base order (the single-applier contract) so that
// per-key sequence order matches apply order. The entry is re-teed when a
// tee is installed, which lets a follower feed its own downstream replicas.
func (db *DB) ApplyReplicated(ops []BatchOp, base uint64) error {
	if db.closed.Load() {
		return ErrClosed
	}
	if !db.follower.Load() {
		return fmt.Errorf("hyperdb: ApplyReplicated on a primary")
	}
	if len(ops) == 0 || base == 0 {
		return fmt.Errorf("hyperdb: malformed replicated entry (base=%d, %d ops)", base, len(ops))
	}
	for i := range ops {
		if len(ops[i].Key) == 0 {
			return fmt.Errorf("hyperdb: empty key at replicated index %d", i)
		}
	}
	last := base + uint64(len(ops)) - 1
	// Entries must advance strictly past the last applied one. This is the
	// single-applier contract, enforced here so a non-increasing base from
	// the wire fails the stream instead of panicking the re-tee below.
	if prev := db.replApplied.Load(); base <= prev {
		return fmt.Errorf("hyperdb: replicated entry base %d does not advance past applied position %d", base, prev)
	}
	db.advanceSeqTo(last)

	var tok uint64
	tee := db.opts.Tee
	if tee != nil {
		db.replMu.Lock()
		tok = tee.Append(base, ops)
		db.replMu.Unlock()
	}
	// The apply holds the session-read lock exclusively: a gated read either
	// runs before (observing nothing of this entry, token < base) or after
	// (observing all of it, token ≥ last) — never a half-applied middle
	// whose newest data would outrun the token it returns.
	db.applyRW.Lock()
	err := db.applyAt(ops, 1, func() uint64 { return base })
	if err == nil {
		db.replApplied.Store(last)
		db.advanceReadSeq(last)
	}
	db.applyRW.Unlock()
	if tee != nil {
		tee.Commit(tok, err == nil)
	}
	return err
}

// ApplySnapshotChunk applies one streamed bootstrap chunk on a follower —
// snapshot pairs, or the tombstones the bootstrap sweep uses to drop local
// keys absent from the snapshot. Every op is tagged with the snapshot's
// pinned sequence seq: snapshot values reflect primary state no newer than
// the log tail that follows, so a uniform tag below the tail keeps per-key
// sequence order intact — both live (the tail re-applies any racing write)
// and across a follower crash (recovery picks the highest sequence per
// key). Each chunk resets the replication apply position to seq, so the
// tail that follows must start past the snapshot — even when a forced
// re-bootstrap hands a store a position below what it had applied before.
// Chunks are not teed; a follower that chains further replicas must floor
// its own log at seq.
func (db *DB) ApplySnapshotChunk(ops []BatchOp, seq uint64) error {
	if db.closed.Load() {
		return ErrClosed
	}
	if !db.follower.Load() {
		return fmt.Errorf("hyperdb: ApplySnapshotChunk on a primary")
	}
	for i := range ops {
		if len(ops[i].Key) == 0 {
			return fmt.Errorf("hyperdb: empty key at snapshot index %d", i)
		}
	}
	db.advanceSeqTo(seq)
	db.replApplied.Store(seq)
	if len(ops) == 0 {
		// The terminal bootstrap stamp: the snapshot (and its deletion
		// sweep) is fully applied, so the store now reflects primary state
		// at seq and reads may be gated against it. Intermediate chunks do
		// NOT advance the readable position — a half-bootstrapped store
		// serves only tokens from before the bootstrap began.
		db.advanceReadSeq(seq)
		return nil
	}
	db.applyRW.Lock()
	err := db.applyAt(ops, 0, func() uint64 { return seq })
	db.applyRW.Unlock()
	return err
}

// MultiGet looks up every key and returns positionally aligned values; a
// missing or deleted key yields nil (no ErrNotFound per key, so one cold key
// doesn't fail the batch). Keys are grouped per partition for one tracker
// pass each, then every key is read as Get reads it.
func (db *DB) MultiGet(keyList [][]byte) ([][]byte, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	out := make([][]byte, len(keyList))
	if len(keyList) == 1 {
		if err := db.readGroup(db.partFor(keyList[0]), keyList, []int{0}, out); err != nil {
			return nil, err
		}
		return out, nil
	}
	groups := make(map[*partition][]int, len(db.parts))
	for i, k := range keyList {
		p := db.partFor(k)
		groups[p] = append(groups[p], i)
	}
	for p, idxs := range groups {
		if err := db.readGroup(p, keyList, idxs, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// readGroup reads one partition's keys of a MultiGet into out.
func (db *DB) readGroup(p *partition, keyList [][]byte, idxs []int, out [][]byte) error {
	var kb [1][]byte
	var hb [1]bool
	gk, hot := scratch(kb[:], len(idxs)), scratch(hb[:], len(idxs))
	for gi, i := range idxs {
		gk[gi] = keyList[i]
	}
	p.tracker.RecordBatch(gk, hot)
	for gi, i := range idxs {
		v, found, err := db.read(p, gk[gi], hot[gi])
		if err != nil {
			return err
		}
		if found {
			out[i] = v
		}
	}
	return nil
}
