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
	err := writeFrame(bw, wire.Frame{
		Op:      wire.OpReplHello,
		Payload: wire.AppendReplHelloReq(nil, f.epoch.Load(), lastApplied),
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

	if mode != wire.ReplModeTail {
		if err := f.bootstrap(br, bw, mode, startSeq); err != nil {
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

// bootstrap catches this store up to the primary's state at snapSeq: in
// anti-entropy mode it first walks the Merkle trees to learn which key
// ranges differ, in snapshot mode the range is the whole keyspace. It then
// consumes the stream of those ranges and floors this node's own log when
// it has one.
func (f *Follower) bootstrap(br *bufio.Reader, bw *bufio.Writer, mode uint8, snapSeq uint64) error {
	ranges := wholeKeyspace
	if mode == wire.ReplModeAntiEntropy {
		var err error
		if ranges, err = f.antiEntropy(br, bw); err != nil {
			return err
		}
	}
	if err := f.consumeSnapshot(br, snapSeq, ranges); err != nil {
		return err
	}
	return f.finishBootstrap(snapSeq)
}

// consumeSnapshot applies a REPL_SNAPSHOT chunk stream covering ranges
// (sorted and disjoint), every chunk at the pinned sequence. The stream
// carries only live pairs, so deletions are conveyed by sweeping: chunks
// arrive in global key order, and before each chunk applies, every local
// key of the ranges below the chunk's last key that no chunk contained is
// deleted at the snapshot sequence; the final chunk sweeps what is left of
// the ranges. A follower that catches up onto existing state thus converges
// exactly — keys deleted on the primary during the gap do not resurrect —
// while local keys outside the ranges, which the stream does not speak for,
// are neither read nor touched.
func (f *Follower) consumeSnapshot(br *bufio.Reader, snapSeq uint64, ranges []keyRange) error {
	// ranges before ri are reconciled, and ranges[ri] below cursor.
	ri, cursor := 0, []byte(nil)
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
		for _, kv := range kvs {
			if !inScope(ranges, kv.Key) {
				return fmt.Errorf("repl: snapshot key %q outside the fetched ranges", kv.Key)
			}
		}
		// upTo bounds this chunk's sweep; a non-final chunk always holds
		// pairs (DecodeReplSnapshot refuses an empty one).
		var upTo []byte
		if n := len(kvs); n > 0 {
			upTo = keys.Successor(kvs[n-1].Key)
		}
		for ri < len(ranges) {
			r := ranges[ri]
			lo, hi := r.lo, r.hi
			if bytes.Compare(cursor, lo) > 0 {
				lo = cursor
			}
			within := !done && (hi == nil || bytes.Compare(upTo, hi) < 0)
			if within {
				hi = upTo
			}
			if err := f.sweepStale(lo, hi, kvs, snapSeq); err != nil {
				return err
			}
			if within {
				cursor = upTo
				break
			}
			ri++
		}
		if len(kvs) > 0 {
			if err := f.DB.ApplySnapshotChunk(kvsToBatch(kvs), snapSeq); err != nil {
				return fmt.Errorf("repl: apply snapshot chunk: %w", err)
			}
		}
		if done {
			return nil
		}
	}
}

// inScope reports whether key lies in one of ranges (sorted and disjoint).
func inScope(ranges []keyRange, key []byte) bool {
	i := sort.Search(len(ranges), func(i int) bool {
		return ranges[i].hi == nil || bytes.Compare(key, ranges[i].hi) < 0
	})
	return i < len(ranges) && bytes.Compare(key, ranges[i].lo) >= 0
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

// sweepStale deletes every local key in [lo, hi) (nil hi: to the end of
// the keyspace) that the chunk kvs does not contain. Deletes apply at the
// snapshot sequence, exactly like the snapshot's own pairs.
func (f *Follower) sweepStale(lo, hi []byte, kvs []wire.KV, snapSeq uint64) error {
	ki := 0
	for {
		page, err := f.DB.Scan(lo, sweepPairs)
		if err != nil {
			return fmt.Errorf("repl: snapshot sweep scan: %w", err)
		}
		var dels []core.BatchOp
		inRange := len(page)
		for i, kv := range page {
			if hi != nil && bytes.Compare(kv.Key, hi) >= 0 {
				inRange = i
				break
			}
			for ki < len(kvs) && bytes.Compare(kvs[ki].Key, kv.Key) < 0 {
				ki++
			}
			if ki < len(kvs) && bytes.Equal(kvs[ki].Key, kv.Key) {
				continue // retained: the chunk overwrites it
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
		lo = keys.Successor(page[len(page)-1].Key)
	}
}

// antiEntropy drives the follower side of the Merkle repair conversation
// (the mirror of Primary.serveAntiEntropy): read the primary's TREE_ROOT,
// hash the local store at the same geometry, walk mismatched subtrees
// top-down with TREE_DIFF hash queries, then ask for exactly the divergent
// leaves and return their key ranges. Keys outside those ranges are
// provably identical on both sides — the sweep never touches them — so the
// transfer is O(divergence), not O(dataset).
func (f *Follower) antiEntropy(br *bufio.Reader, bw *bufio.Writer) ([]keyRange, error) {
	fr, err := wire.ReadFrame(br, wire.MaxFrame)
	if err != nil {
		return nil, err
	}
	if fr.Op != wire.OpTreeRoot {
		return nil, fmt.Errorf("repl: expected TREE_ROOT, got %s", fr.Op)
	}
	bits, root, err := wire.DecodeTreeRoot(fr.Payload)
	if err != nil {
		return nil, err
	}
	snap, err := merkle.BuildSnapshot(bits, scanPairs(f.DB), sweepPairs)
	if err != nil {
		return nil, fmt.Errorf("repl: merkle snapshot: %w", err)
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
				return nil, err
			}
			resp, err := wire.ReadFrame(br, wire.MaxFrame)
			if err != nil {
				return nil, err
			}
			if resp.Op != wire.OpTreeDiff {
				return nil, fmt.Errorf("repl: unexpected op %s during anti-entropy", resp.Op)
			}
			flags, ids, hashes, err := wire.DecodeTreeDiff(resp.Payload)
			if err != nil {
				return nil, err
			}
			if flags != wire.TreeDiffHashes || len(ids) != len(query) {
				return nil, fmt.Errorf("repl: bad tree diff response: flags %#x, %d ids for %d queried", flags, len(ids), len(query))
			}
			mismatched = mismatched[:0]
			for i, id := range ids {
				if id != query[i] {
					return nil, fmt.Errorf("repl: tree diff response id %d, queried %d", id, query[i])
				}
				local, ok := snap.Node(id)
				if !ok {
					return nil, fmt.Errorf("repl: tree diff response for node %d outside tree", id)
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
		return nil, err
	}
	return leafRanges(snap, divergent), nil
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
