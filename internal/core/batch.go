package core

import (
	"errors"
	"fmt"

	"hyperdb/internal/device"
	"hyperdb/internal/engine"
	"hyperdb/internal/keys"
	"hyperdb/internal/zone"
)

// BatchOp is one write in a WriteBatch; see engine.BatchOp.
type BatchOp = engine.BatchOp

// WriteBatch applies ops with batch-grouped amortisation: keys are grouped
// per partition, each group takes the tracker and zone locks once, and the
// whole batch draws a single sequence block. Ordering follows the slice —
// duplicate keys resolve last-write-wins. The batch is not atomic across
// partitions (each partition group is its own lock scope), matching the
// paper's shared-nothing design; an error may leave a prefix applied.
//
// When a replication tee is installed the batch is also appended to the
// tee's log before the apply and committed after it; Commit may block until
// followers acknowledge when synchronous replication is on.
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

	// One sequence block for the batch; op i carries base+i so slice order
	// is sequence order and duplicates resolve last-write-wins. With a tee
	// the allocation and the log append share a critical section so the
	// shipped log's base order matches sequence order.
	n := uint64(len(ops))
	var base, tok uint64
	tee := db.opts.Tee
	if tee != nil {
		db.replMu.Lock()
		base = db.seq.Add(n) - n + 1
		tok = tee.Append(base, ops)
		db.replMu.Unlock()
	} else {
		base = db.seq.Add(n) - n + 1
	}

	err := db.applyAt(ops, func(i int) uint64 { return base + uint64(i) })
	if tee != nil {
		tee.Commit(tok, err == nil)
	}
	if err != nil {
		return 0, err
	}
	return base + n - 1, nil
}

// applyAt applies ops grouped per partition, tagging op i with seqOf(i).
// Shared by the foreground WriteBatch path and the replication appliers, so
// replicated writes exercise the identical tracker/zone/stall machinery.
func (db *DB) applyAt(ops []BatchOp, seqOf func(int) uint64) error {
	if db.tree != nil {
		// Every apply path dirties the written keys' Merkle leaves, so the
		// tree stays consistent on primaries, followers, and across
		// snapshot bootstraps alike.
		for i := range ops {
			db.tree.MarkKey(ops[i].Key)
		}
	}
	// Group op indices per partition, preserving slice order within a group.
	groups := make(map[*partition][]int, len(db.parts))
	for i := range ops {
		p := db.partFor(ops[i].Key)
		groups[p] = append(groups[p], i)
	}

	for p, idxs := range groups {
		if err := db.applyGroup(p, ops, idxs, seqOf); err != nil {
			return err
		}
	}
	return nil
}

// applyGroup applies one partition's slice of a batch. Groups containing
// merge ops first resolve them to plain puts under the partition's merge
// lock, held across the zone apply so the read-modify-write cannot lose a
// concurrently merging batch's update. (A plain Put racing a merge to the
// same key through the direct engine API can still be absorbed — the
// served path's single drainer serialises all writes, so this only
// concerns embedded users mixing both on one key.)
func (db *DB) applyGroup(p *partition, ops []BatchOp, idxs []int, seqOf func(int) uint64) error {
	hasMerge := false
	for _, i := range idxs {
		if ops[i].Merge {
			hasMerge = true
			break
		}
	}
	if hasMerge {
		p.mergeMu.Lock()
		defer p.mergeMu.Unlock()
		if err := db.resolveMerges(p, ops, idxs); err != nil {
			return err
		}
	}

	keyList := make([][]byte, len(idxs))
	for gi, i := range idxs {
		keyList[gi] = ops[i].Key
	}
	hot := make([]bool, len(idxs))
	p.tracker.RecordBatch(keyList, hot)

	zops := make([]zone.BatchOp, len(idxs))
	for gi, i := range idxs {
		zops[gi] = zone.BatchOp{
			Key:    ops[i].Key,
			Value:  ops[i].Value,
			Seq:    seqOf(i),
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
	db.maybeTriggerMigration(p)
	return nil
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
	err := db.applyAt(ops, func(i int) uint64 { return base + uint64(i) })
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
	err := db.applyAt(ops, func(int) uint64 { return seq })
	db.applyRW.Unlock()
	return err
}

// MultiGet looks up every key and returns positionally aligned values; a
// missing or deleted key yields nil (no ErrNotFound per key, so one cold key
// doesn't fail the batch). Lookups are grouped per partition: one tracker
// pass, and page reads shared across keys that land on the same slot page. Hot capacity-tier hits are queued for
// promotion exactly like Get.
func (db *DB) MultiGet(keyList [][]byte) ([][]byte, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	out := make([][]byte, len(keyList))
	if len(keyList) == 0 {
		return out, nil
	}

	groups := make(map[*partition][]int, len(db.parts))
	for i, k := range keyList {
		p := db.partFor(k)
		groups[p] = append(groups[p], i)
	}

	for p, idxs := range groups {
		gk := make([][]byte, len(idxs))
		for gi, i := range idxs {
			gk[gi] = keyList[i]
		}
		hot := make([]bool, len(idxs))
		p.tracker.RecordBatch(gk, hot)

		res, err := p.zones.GetBatch(gk, device.Fg)
		if err != nil {
			return nil, err
		}
		for gi, r := range res {
			i := idxs[gi]
			switch {
			case r.Found && !r.Tombstone:
				out[i] = r.Value
			case r.Found: // tombstone: authoritative miss
			default:
				v, kind, found, err := p.tree.Get(gk[gi], keys.MaxSeq, device.Fg)
				if err != nil {
					return nil, err
				}
				if found && kind != keys.KindDelete {
					out[i] = v
					if hot[gi] {
						db.enqueuePromotion(p, gk[gi], v)
					}
				}
			}
		}
	}
	return out, nil
}
