package repl

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"sort"

	"hyperdb/internal/core"
	"hyperdb/internal/keys"
	"hyperdb/internal/merkle"
	"hyperdb/internal/stats"
	"hyperdb/internal/wire"
)

// Primary ships the replication log to followers. One ServeConn call owns
// one follower connection for its lifetime; the serving layer (or a test
// harness over net.Pipe) hands the socket over after reading the follower's
// REPL_HELLO.
type Primary struct {
	DB  *core.DB
	Log *Log
	// Tree, when non-nil, lets diverged followers rejoin via the Merkle
	// anti-entropy conversation instead of a full snapshot. Wire it to the
	// engine's tree (db.MerkleTree()) so committed writes keep it fresh.
	Tree *merkle.Tree
	// SnapshotPairs bounds pairs per snapshot scan page. Default 256.
	SnapshotPairs int
	// SnapshotChunkBytes splits scan pages into frames no bigger than
	// roughly this payload size. Default 512 KiB.
	SnapshotChunkBytes int

	// Transfer accounting: full-snapshot payload bytes vs anti-entropy
	// payload bytes — their gap is what Merkle rejoin saved — plus the
	// hash-walk effort (nodes served, leaf ranges fetched, sessions run).
	snapBytes  stats.Counter
	aeBytes    stats.Counter
	aeNodes    stats.Counter
	aeLeaves   stats.Counter
	aeSessions stats.Counter
}

// AEStats is a point-in-time view of the primary's transfer accounting.
type AEStats struct {
	SnapshotBytes uint64 // key+value bytes streamed by full snapshots
	AEBytes       uint64 // key+value bytes streamed by anti-entropy fetches
	AENodes       uint64 // tree node hashes served to diff queries
	AELeaves      uint64 // divergent leaf ranges fetched
	AESessions    uint64 // anti-entropy conversations served
}

// AEStatsSnapshot reads the transfer counters.
func (p *Primary) AEStatsSnapshot() AEStats {
	return AEStats{
		SnapshotBytes: p.snapBytes.Load(),
		AEBytes:       p.aeBytes.Load(),
		AENodes:       p.aeNodes.Load(),
		AELeaves:      p.aeLeaves.Load(),
		AESessions:    p.aeSessions.Load(),
	}
}

func (p *Primary) snapshotPairs() int {
	if p.SnapshotPairs > 0 {
		return p.SnapshotPairs
	}
	return 256
}

func (p *Primary) chunkBytes() int {
	if p.SnapshotChunkBytes > 0 {
		return p.SnapshotChunkBytes
	}
	return 512 << 10
}

// Serve reads the follower's REPL_HELLO from a raw connection and delegates
// to ServeConn. The serving layer reads the hello inside its own frame loop
// and calls ServeConn directly; harnesses over net.Pipe use Serve.
func (p *Primary) Serve(nc net.Conn) error {
	br := bufio.NewReader(nc)
	f, err := wire.ReadFrame(br, wire.MaxFrame)
	if err != nil {
		nc.Close()
		return err
	}
	if f.Op != wire.OpReplHello {
		nc.Close()
		return fmt.Errorf("repl: expected REPL_HELLO, got %s", f.Op)
	}
	epoch, lastApplied, flags, err := wire.DecodeReplHelloReq(f.Payload)
	if err != nil {
		nc.Close()
		return err
	}
	return p.ServeConn(nc, br, epoch, lastApplied, flags)
}

// ServeConn drives the primary side of one follower connection: subscribe
// the follower at lastApplied (epoch and lastApplied already decoded from
// its REPL_HELLO), bootstrap it via streamed snapshot when it has fallen
// off the retained window — or when its epoch shows its state comes from
// another write lineage, so its sequence numbers cannot be trusted against
// this log — then tail-ship committed entries and consume acks until the
// connection dies or the cursor overruns. br carries any bytes already
// buffered past the hello; nil wraps nc directly. ServeConn closes nc.
//
// flags carries the follower hello's capability bits: when it advertises
// anti-entropy, this primary has a Tree, and the follower holds state that
// fell off the retained window, the bootstrap runs the Merkle repair
// conversation — only divergent leaf ranges travel — instead of a full
// snapshot.
func (p *Primary) ServeConn(nc net.Conn, br *bufio.Reader, epoch, lastApplied uint64, flags uint8) error {
	defer nc.Close()
	if br == nil {
		br = bufio.NewReader(nc)
	}
	bw := bufio.NewWriter(nc)
	name := "follower"
	if addr := nc.RemoteAddr(); addr != nil {
		name = addr.String()
	}

	// A follower with no state at all (lastApplied 0) may tail regardless
	// of epoch; anyone else must prove its state is a prefix of this log's
	// history by presenting the matching epoch.
	var cur *Cursor
	ok := false
	if lastApplied == 0 || epoch == p.Log.Epoch() {
		cur, ok = p.Log.Subscribe(lastApplied)
	}
	start := lastApplied
	if ok {
		if err := writeFrame(bw, wire.Frame{
			Op: wire.OpReplHello, Status: wire.StatusOK,
			Payload: wire.AppendReplHelloResp(nil, wire.ReplModeTail, p.Log.Epoch(), start),
		}); err != nil {
			return err
		}
	} else {
		// The pin is held until the tail subscription is established, so a
		// truncation racing the stream can never raise the floor past the
		// snapshot sequence between the last chunk and the handoff.
		snapSeq := p.Log.PinHead()
		var err error
		if flags&wire.ReplFlagAntiEntropy != 0 && p.Tree != nil && lastApplied > 0 {
			// The follower has state and can diff it: ship only divergence.
			// Epoch mismatch does not disqualify — the hash walk finds every
			// range where the lineages differ, whatever their sequences say.
			err = p.serveAntiEntropy(bw, br, snapSeq)
		} else {
			err = p.streamSnapshot(bw, snapSeq)
		}
		if err != nil {
			p.Log.Unpin(snapSeq)
			return err
		}
		cur, ok = p.Log.Subscribe(snapSeq)
		p.Log.Unpin(snapSeq)
		if !ok {
			return fmt.Errorf("repl: snapshot seq %d below floor %d despite pin", snapSeq, p.Log.Floor())
		}
		start = snapSeq
	}

	peer := p.Log.Register(name, start, func() { nc.Close() })
	defer p.Log.Unregister(peer)

	// The ack reader is the only goroutine reading the socket; its exit
	// (peer gone, protocol violation, or a shutdown read-deadline) closes
	// done and the socket, which unblocks the ship loop below.
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer nc.Close()
		for {
			f, err := wire.ReadFrame(br, wire.MaxFrame)
			if err != nil {
				return
			}
			if f.Op != wire.OpReplAck {
				return
			}
			seq, err := wire.DecodeReplAck(f.Payload)
			if err != nil {
				return
			}
			peer.Ack(seq)
		}
	}()

	for {
		base, ops, err := cur.Next(done)
		if err != nil {
			nc.Close()
			<-done
			if errors.Is(err, ErrStopped) {
				return nil
			}
			return err
		}
		err = writeFrame(bw, wire.Frame{
			Op: wire.OpReplFrame, Status: wire.StatusOK, ID: base,
			Payload: wire.AppendReplFrame(nil, base, ops),
		})
		if err != nil {
			<-done
			return err
		}
	}
}

// streamSnapshot sends the snapshot-mode hello, streams the store's live
// pairs in key order as REPL_SNAPSHOT frames (every pair tagged with
// snapSeq, the pinned resolved head), and finishes with the done chunk. The
// caller pins snapSeq before calling and holds the pin until its tail
// subscription is established.
func (p *Primary) streamSnapshot(bw *bufio.Writer, snapSeq uint64) error {
	err := writeFrame(bw, wire.Frame{
		Op: wire.OpReplHello, Status: wire.StatusOK,
		Payload: wire.AppendReplHelloResp(nil, wire.ReplModeSnapshot, p.Log.Epoch(), snapSeq),
	})
	if err != nil {
		return err
	}
	var pageStart []byte
	for {
		kvs, err := p.DB.Scan(pageStart, p.snapshotPairs())
		if err != nil {
			return fmt.Errorf("repl: snapshot scan: %w", err)
		}
		if len(kvs) == 0 {
			break
		}
		if err := p.writeSnapshotKVs(bw, kvs, snapSeq, &p.snapBytes); err != nil {
			return err
		}
		if len(kvs) < p.snapshotPairs() {
			break
		}
		pageStart = keys.Successor(kvs[len(kvs)-1].Key)
	}
	return writeFrame(bw, wire.Frame{
		Op: wire.OpReplSnapshot, Status: wire.StatusOK,
		Payload: wire.AppendReplSnapshot(nil, snapSeq, nil, true),
	})
}

// writeSnapshotKVs splits one scan page into byte-bounded REPL_SNAPSHOT
// frames so no frame approaches the wire's cap, feeding the payload bytes
// into counter.
func (p *Primary) writeSnapshotKVs(bw *bufio.Writer, kvs []core.KV, snapSeq uint64, counter *stats.Counter) error {
	for len(kvs) > 0 {
		n, size := 0, 0
		for n < len(kvs) && (n == 0 || size < p.chunkBytes()) {
			size += len(kvs[n].Key) + len(kvs[n].Value)
			n++
		}
		err := writeFrame(bw, wire.Frame{
			Op: wire.OpReplSnapshot, Status: wire.StatusOK,
			Payload: wire.AppendReplSnapshot(nil, snapSeq, kvs[:n], false),
		})
		if err != nil {
			return err
		}
		counter.Add(uint64(size))
		kvs = kvs[n:]
	}
	return nil
}

// serveAntiEntropy drives the primary side of the Merkle repair
// conversation, called with snapSeq pinned and before the ack reader
// starts, so this is the only reader of br. Protocol:
//
//  1. hello response, mode anti-entropy, carrying the pinned sequence;
//  2. TREE_ROOT push with the primary tree's geometry and root digest;
//  3. the follower walks: TREE_DIFF queries name node ids, the primary
//     answers each with the digests;
//  4. the walk ends with a TREE_DIFF carrying TreeDiffFetch and the
//     divergent leaf ids (possibly none); the primary streams exactly
//     those leaves' key ranges as REPL_SNAPSHOT chunks and finishes with
//     the done chunk, after which the caller hands off to tailing.
func (p *Primary) serveAntiEntropy(bw *bufio.Writer, br *bufio.Reader, snapSeq uint64) error {
	snap, err := p.Tree.Snapshot(p.scanPairs, p.snapshotPairs())
	if err != nil {
		return fmt.Errorf("repl: merkle snapshot: %w", err)
	}
	p.aeSessions.Inc()
	err = writeFrame(bw, wire.Frame{
		Op: wire.OpReplHello, Status: wire.StatusOK,
		Payload: wire.AppendReplHelloResp(nil, wire.ReplModeAntiEntropy, p.Log.Epoch(), snapSeq),
	})
	if err != nil {
		return err
	}
	err = writeFrame(bw, wire.Frame{
		Op: wire.OpTreeRoot, Status: wire.StatusOK,
		Payload: wire.AppendTreeRoot(nil, snap.Bits(), snap.Root()),
	})
	if err != nil {
		return err
	}
	for {
		f, err := wire.ReadFrame(br, wire.MaxFrame)
		if err != nil {
			return err
		}
		if f.Op != wire.OpTreeDiff {
			return fmt.Errorf("repl: unexpected op %s during anti-entropy", f.Op)
		}
		flags, ids, _, err := wire.DecodeTreeDiff(f.Payload)
		if err != nil {
			return err
		}
		if flags&wire.TreeDiffFetch != 0 {
			return p.streamLeafRanges(bw, snap, ids, snapSeq)
		}
		hashes := make([][wire.TreeHashLen]byte, len(ids))
		for i, id := range ids {
			h, ok := snap.Node(id)
			if !ok {
				return fmt.Errorf("repl: tree diff for node %d outside tree", id)
			}
			hashes[i] = h
		}
		p.aeNodes.Add(uint64(len(ids)))
		err = writeFrame(bw, wire.Frame{
			Op: wire.OpTreeDiff, Status: wire.StatusOK,
			Payload: wire.AppendTreeDiff(nil, wire.TreeDiffHashes, ids, hashes),
		})
		if err != nil {
			return err
		}
	}
}

// streamLeafRanges ships the named leaves' key ranges as snapshot chunks —
// the primary-side I/O is bounded by the divergent ranges, not the
// dataset — then the done chunk.
func (p *Primary) streamLeafRanges(bw *bufio.Writer, snap *merkle.Snapshot, leafIDs []uint32, snapSeq uint64) error {
	for _, id := range leafIDs {
		if !snap.IsLeaf(id) {
			return fmt.Errorf("repl: fetch of non-leaf node %d", id)
		}
	}
	// Leaves sort by id == bucket order == global key order, so the stream
	// stays ordered for the follower's sweep.
	sorted := append([]uint32(nil), leafIDs...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	p.aeLeaves.Add(uint64(len(sorted)))
	for _, id := range sorted {
		lo, hi := snap.LeafSpan(id)
		start := lo
		for {
			kvs, err := p.DB.Scan(start, p.snapshotPairs())
			if err != nil {
				return fmt.Errorf("repl: anti-entropy scan: %w", err)
			}
			fullPage := len(kvs) == p.snapshotPairs()
			if len(kvs) > 0 {
				start = keys.Successor(kvs[len(kvs)-1].Key)
			}
			if hi != nil {
				n := 0
				for _, kv := range kvs {
					if bytes.Compare(kv.Key, hi) >= 0 {
						fullPage = false // past the leaf: stop paging
						break
					}
					kvs[n] = kv
					n++
				}
				kvs = kvs[:n]
			}
			if err := p.writeSnapshotKVs(bw, kvs, snapSeq, &p.aeBytes); err != nil {
				return err
			}
			if !fullPage {
				break
			}
		}
	}
	return writeFrame(bw, wire.Frame{
		Op: wire.OpReplSnapshot, Status: wire.StatusOK,
		Payload: wire.AppendReplSnapshot(nil, snapSeq, nil, true),
	})
}

// scanPairs adapts DB.Scan to the merkle package's pair stream.
func (p *Primary) scanPairs(start []byte, limit int) ([]merkle.Pair, error) {
	kvs, err := p.DB.Scan(start, limit)
	if err != nil {
		return nil, err
	}
	pairs := make([]merkle.Pair, len(kvs))
	for i, kv := range kvs {
		pairs[i] = merkle.Pair{Key: kv.Key, Value: kv.Value}
	}
	return pairs, nil
}

// Status reports the log's view for stats rendering.
func (p *Primary) Status() LogStatus { return p.Log.Status() }

func writeFrame(bw *bufio.Writer, f wire.Frame) error {
	if _, err := bw.Write(wire.AppendFrame(nil, f)); err != nil {
		return err
	}
	return bw.Flush()
}
