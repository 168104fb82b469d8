package repl

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"sort"
	"sync/atomic"

	"hyperdb/internal/core"
	"hyperdb/internal/keys"
	"hyperdb/internal/merkle"
	"hyperdb/internal/wire"
)

// sweepPairs bounds the local scan pages used to reconcile the store
// against an incoming snapshot stream.
const sweepPairs = 256

// Follower drives the replica side of one upstream connection: announce the
// last applied sequence, bootstrap from a snapshot when the primary says
// so, then apply tailed entries and acknowledge each one. The store must be
// open in follower mode; every apply goes through the engine's normal batch
// machinery so zone placement, hotness, and compaction behave exactly as
// they would on the primary.
//
// A Follower is stateful across Run calls (the redial loop reuses it): it
// remembers the upstream's write-lineage epoch and the replication
// position it has applied through, so a reattach resumes from the stream
// position rather than the store's raw sequence counter — the two diverge
// after a forced re-bootstrap onto a store that already held state.
type Follower struct {
	DB *core.DB
	// Log, when non-nil, is this node's own replication log (the engine's
	// Tee). A snapshot bootstrap floors it at the snapshot sequence so that,
	// after a promotion, downstream followers can't silently tail across
	// history this node never logged.
	Log *Log
	// ApplyDelay, when non-nil, runs before each tailed entry applies; base
	// is the entry's first sequence. Test harnesses inject replication lag
	// with it (the consistency checker stalls appliers to force session
	// reads into the gate); production leaves it nil.
	ApplyDelay func(base uint64)
	// Tree, when non-nil, advertises the anti-entropy capability on hello:
	// a re-attach that fell off the primary's retained window then runs the
	// Merkle repair conversation (fetching only divergent leaf ranges)
	// instead of a full snapshot. Wire it to the engine's tree
	// (db.MerkleTree()) so every local apply keeps it fresh.
	Tree *merkle.Tree

	// epoch is the upstream log's lineage ID from the last hello response
	// (0 until first attach); applied is the stream position this Follower
	// has applied through (0 means "unknown: fall back to CommitSeq").
	// epoch is atomic because the server's cycles read it concurrently to
	// stamp session replies while Run keeps replicating.
	epoch   atomic.Uint64
	applied uint64
}

// Epoch returns the upstream write-lineage ID this follower last attached
// under, 0 before the first successful hello. Safe to call concurrently
// with Run.
func (f *Follower) Epoch() uint64 { return f.epoch.Load() }

// Run replicates from the upstream connection until it fails or stop
// closes. It returns nil on stop, the transport or apply error otherwise;
// the caller owns redial policy. Run closes nc.
func (f *Follower) Run(nc net.Conn, stop <-chan struct{}) error {
	defer nc.Close()
	// Translate stop into a socket close so blocking reads abort promptly.
	finished := make(chan struct{})
	defer close(finished)
	if stop != nil {
		go func() {
			select {
			case <-stop:
				nc.Close()
			case <-finished:
			}
		}()
	}
	isStop := func() bool {
		if stop == nil {
			return false
		}
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}

	br := bufio.NewReader(nc)
	bw := bufio.NewWriter(nc)
	lastApplied := f.applied
	if lastApplied == 0 {
		lastApplied = f.DB.CommitSeq()
	}
	var helloFlags uint8
	if f.Tree != nil {
		helloFlags |= wire.ReplFlagAntiEntropy
	}
	err := writeFrame(bw, wire.Frame{
		Op:      wire.OpReplHello,
		Payload: wire.AppendReplHelloReq(nil, f.epoch.Load(), lastApplied, helloFlags),
	})
	if err != nil {
		if isStop() {
			return nil
		}
		return err
	}

	hello, err := wire.ReadFrame(br, wire.MaxFrame)
	if err != nil {
		if isStop() {
			return nil
		}
		return err
	}
	if hello.Op != wire.OpReplHello || hello.Status != wire.StatusOK {
		return fmt.Errorf("repl: upstream rejected hello: op=%s status=%d %q", hello.Op, hello.Status, hello.Payload)
	}
	mode, epoch, startSeq, err := wire.DecodeReplHelloResp(hello.Payload)
	if err != nil {
		return err
	}

	switch mode {
	case wire.ReplModeSnapshot:
		if err := f.bootstrap(br, startSeq); err != nil {
			if isStop() {
				return nil
			}
			return err
		}
	case wire.ReplModeAntiEntropy:
		if err := f.antiEntropy(br, bw, startSeq); err != nil {
			if isStop() {
				return nil
			}
			return err
		}
	}
	// Attached: adopt the upstream's lineage and resume point (in tail mode
	// startSeq echoes lastApplied; after a bootstrap it is the snapshot seq).
	f.epoch.Store(epoch)
	f.applied = startSeq

	for {
		fr, err := wire.ReadFrame(br, wire.MaxFrame)
		if err != nil {
			if isStop() {
				return nil
			}
			return err
		}
		if fr.Op != wire.OpReplFrame {
			return fmt.Errorf("repl: unexpected op %s while tailing", fr.Op)
		}
		base, wops, err := wire.DecodeReplFrame(fr.Payload)
		if err != nil {
			return err
		}
		if f.ApplyDelay != nil {
			f.ApplyDelay(base)
		}
		if err := f.DB.ApplyReplicated(wops, base); err != nil {
			return fmt.Errorf("repl: apply entry at %d: %w", base, err)
		}
		last := base + uint64(len(wops)) - 1
		f.applied = last
		err = writeFrame(bw, wire.Frame{
			Op: wire.OpReplAck, Status: wire.StatusOK, ID: fr.ID,
			Payload: wire.AppendReplAck(nil, last),
		})
		if err != nil {
			if isStop() {
				return nil
			}
			return err
		}
	}
}

// bootstrap consumes the snapshot stream, applying every chunk at the
// pinned sequence, and floors this node's own log when it has one. The
// snapshot carries only live pairs, so deletions are conveyed by sweeping:
// chunks arrive in global key order, and before each chunk applies, every
// local key inside its range that the chunk does not contain is deleted at
// the snapshot sequence. A follower that re-bootstraps onto existing state
// (it fell off the retained window, or its epoch no longer matches) thus
// converges exactly — keys deleted on the primary during the gap do not
// resurrect.
func (f *Follower) bootstrap(br *bufio.Reader, snapSeq uint64) error {
	if err := f.consumeSnapshot(br, snapSeq, nil, nil, nil); err != nil {
		return err
	}
	return f.finishBootstrap(snapSeq)
}

// consumeSnapshot applies a REPL_SNAPSHOT chunk stream. cursor is the
// lowest local key not yet reconciled against the stream (nil: keyspace
// start); inScope, when non-nil, restricts the sweep to keys the stream
// covers (anti-entropy fetches only divergent leaf ranges, so local keys
// outside them must survive); finalHi, when non-nil, bounds the final
// chunk's sweep instead of the end of the keyspace.
func (f *Follower) consumeSnapshot(br *bufio.Reader, snapSeq uint64, cursor []byte, inScope func([]byte) bool, finalHi []byte) error {
	for {
		fr, err := wire.ReadFrame(br, wire.MaxFrame)
		if err != nil {
			return err
		}
		if fr.Op != wire.OpReplSnapshot {
			return fmt.Errorf("repl: unexpected op %s during snapshot", fr.Op)
		}
		seq, kvs, done, err := wire.DecodeReplSnapshot(fr.Payload)
		if err != nil {
			return err
		}
		if seq != snapSeq {
			return fmt.Errorf("repl: snapshot seq changed mid-stream: %d then %d", snapSeq, seq)
		}
		if err := f.sweepStale(cursor, kvs, snapSeq, done, inScope, finalHi); err != nil {
			return err
		}
		if len(kvs) > 0 {
			if err := f.DB.ApplySnapshotChunk(kvsToBatch(kvs), snapSeq); err != nil {
				return fmt.Errorf("repl: apply snapshot chunk: %w", err)
			}
			cursor = keys.Successor(kvs[len(kvs)-1].Key)
		}
		if done {
			return nil
		}
	}
}

// finishBootstrap stamps the bootstrap position even when the stream
// carried no pairs and nothing needed sweeping, so the tail handoff starts
// from snapSeq, and resets this node's own log.
func (f *Follower) finishBootstrap(snapSeq uint64) error {
	if err := f.DB.ApplySnapshotChunk(nil, snapSeq); err != nil {
		return err
	}
	if f.Log != nil {
		// The bootstrap replaced this node's state wholesale: its own log's
		// window and lineage no longer describe it, and the incoming tail
		// may restart below the old head. Reset rather than floor.
		f.Log.ResetTo(snapSeq)
	}
	return nil
}

// sweepStale deletes every local key covered by this chunk's range that
// the chunk does not contain: keys in [cursor, last chunk key], or from
// cursor to the end of the keyspace (bounded by finalHi when set) for the
// final chunk. Local keys past the range are left for later chunks; keys
// outside inScope (when non-nil) are never deleted — the stream does not
// speak for their ranges. Deletes apply at the snapshot sequence, exactly
// like the snapshot's own pairs.
func (f *Follower) sweepStale(cursor []byte, kvs []wire.KV, snapSeq uint64, final bool, inScope func([]byte) bool, finalHi []byte) error {
	var hi []byte
	if n := len(kvs); n > 0 {
		hi = kvs[n-1].Key
	} else if !final {
		return nil
	}
	ki := 0
	for {
		page, err := f.DB.Scan(cursor, sweepPairs)
		if err != nil {
			return fmt.Errorf("repl: snapshot sweep scan: %w", err)
		}
		var dels []core.BatchOp
		inRange := len(page)
		for i, kv := range page {
			if !final && bytes.Compare(kv.Key, hi) > 0 {
				inRange = i
				break
			}
			if final && finalHi != nil && bytes.Compare(kv.Key, finalHi) >= 0 {
				inRange = i
				break
			}
			for ki < len(kvs) && bytes.Compare(kvs[ki].Key, kv.Key) < 0 {
				ki++
			}
			if ki < len(kvs) && bytes.Equal(kvs[ki].Key, kv.Key) {
				continue // retained: the chunk overwrites it
			}
			if inScope != nil && !inScope(kv.Key) {
				continue // the stream does not cover this key's range
			}
			dels = append(dels, core.BatchOp{Key: append([]byte(nil), kv.Key...), Delete: true})
		}
		if len(dels) > 0 {
			if err := f.DB.ApplySnapshotChunk(dels, snapSeq); err != nil {
				return fmt.Errorf("repl: sweep stale keys: %w", err)
			}
		}
		if inRange < len(page) || len(page) < sweepPairs {
			return nil
		}
		cursor = keys.Successor(page[len(page)-1].Key)
	}
}

// antiEntropy drives the follower side of the Merkle repair conversation
// (the mirror of Primary.serveAntiEntropy): read the primary's TREE_ROOT,
// snapshot the local tree at the same geometry, walk mismatched subtrees
// top-down with TREE_DIFF hash queries, then fetch exactly the divergent
// leaf ranges as a scoped snapshot stream. Keys outside those ranges are
// provably identical on both sides — the sweep never touches them — so
// the transfer is O(divergence), not O(dataset).
func (f *Follower) antiEntropy(br *bufio.Reader, bw *bufio.Writer, snapSeq uint64) error {
	fr, err := wire.ReadFrame(br, wire.MaxFrame)
	if err != nil {
		return err
	}
	if fr.Op != wire.OpTreeRoot {
		return fmt.Errorf("repl: expected TREE_ROOT, got %s", fr.Op)
	}
	bits, root, err := wire.DecodeTreeRoot(fr.Payload)
	if err != nil {
		return err
	}
	var snap *merkle.Snapshot
	if f.Tree != nil && f.Tree.Bits() == bits {
		snap, err = f.Tree.Snapshot(f.scanPairs, sweepPairs)
	} else {
		// Geometry mismatch: rebuild from scratch at the primary's bits so
		// the hashes compare node-for-node.
		snap, err = merkle.BuildSnapshot(bits, f.scanPairs, sweepPairs)
	}
	if err != nil {
		return fmt.Errorf("repl: merkle snapshot: %w", err)
	}

	var divergent []uint32
	if snap.Root() != root {
		mismatched := []uint32{1}
		for len(mismatched) > 0 {
			query := make([]uint32, 0, 2*len(mismatched))
			for _, id := range mismatched {
				query = append(query, 2*id, 2*id+1)
			}
			err = writeFrame(bw, wire.Frame{
				Op: wire.OpTreeDiff, Status: wire.StatusOK,
				Payload: wire.AppendTreeDiff(nil, 0, query, nil),
			})
			if err != nil {
				return err
			}
			resp, err := wire.ReadFrame(br, wire.MaxFrame)
			if err != nil {
				return err
			}
			if resp.Op != wire.OpTreeDiff {
				return fmt.Errorf("repl: unexpected op %s during anti-entropy", resp.Op)
			}
			flags, ids, hashes, err := wire.DecodeTreeDiff(resp.Payload)
			if err != nil {
				return err
			}
			if flags != wire.TreeDiffHashes || len(ids) != len(query) {
				return fmt.Errorf("repl: bad tree diff response: flags %#x, %d ids for %d queried", flags, len(ids), len(query))
			}
			mismatched = mismatched[:0]
			for i, id := range ids {
				if id != query[i] {
					return fmt.Errorf("repl: tree diff response id %d, queried %d", id, query[i])
				}
				local, ok := snap.Node(id)
				if !ok {
					return fmt.Errorf("repl: tree diff response for node %d outside tree", id)
				}
				if local == hashes[i] {
					continue
				}
				if snap.IsLeaf(id) {
					divergent = append(divergent, id)
				} else {
					mismatched = append(mismatched, id)
				}
			}
		}
	}

	sort.Slice(divergent, func(a, b int) bool { return divergent[a] < divergent[b] })
	err = writeFrame(bw, wire.Frame{
		Op: wire.OpTreeDiff, Status: wire.StatusOK,
		Payload: wire.AppendTreeDiff(nil, wire.TreeDiffFetch, divergent, nil),
	})
	if err != nil {
		return err
	}
	if len(divergent) == 0 {
		// Nothing diverged: the primary answers the empty fetch with just the
		// done chunk. No sweeping — local state is proven identical.
		fr, err := wire.ReadFrame(br, wire.MaxFrame)
		if err != nil {
			return err
		}
		if fr.Op != wire.OpReplSnapshot {
			return fmt.Errorf("repl: unexpected op %s during snapshot", fr.Op)
		}
		seq, kvs, done, err := wire.DecodeReplSnapshot(fr.Payload)
		if err != nil {
			return err
		}
		if !done || len(kvs) != 0 || seq != snapSeq {
			return fmt.Errorf("repl: expected bare done chunk after empty fetch (seq=%d done=%v pairs=%d)", seq, done, len(kvs))
		}
		return f.finishBootstrap(snapSeq)
	}
	buckets := make(map[uint32]struct{}, len(divergent))
	for _, id := range divergent {
		buckets[snap.LeafBucket(id)] = struct{}{}
	}
	inScope := func(key []byte) bool {
		_, ok := buckets[merkle.BucketOf(uint(bits), key)]
		return ok
	}
	cursor, _ := snap.LeafSpan(divergent[0])
	_, finalHi := snap.LeafSpan(divergent[len(divergent)-1])
	if err := f.consumeSnapshot(br, snapSeq, cursor, inScope, finalHi); err != nil {
		return err
	}
	return f.finishBootstrap(snapSeq)
}

// scanPairs adapts DB.Scan to the merkle package's pair stream.
func (f *Follower) scanPairs(start []byte, limit int) ([]merkle.Pair, error) {
	kvs, err := f.DB.Scan(start, limit)
	if err != nil {
		return nil, err
	}
	pairs := make([]merkle.Pair, len(kvs))
	for i, kv := range kvs {
		pairs[i] = merkle.Pair{Key: kv.Key, Value: kv.Value}
	}
	return pairs, nil
}

func kvsToBatch(kvs []wire.KV) []core.BatchOp {
	ops := make([]core.BatchOp, len(kvs))
	for i, kv := range kvs {
		ops[i] = core.BatchOp{
			Key:   append([]byte(nil), kv.Key...),
			Value: append([]byte(nil), kv.Value...),
		}
	}
	return ops
}
