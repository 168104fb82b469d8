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
	epoch, lastApplied, err := wire.DecodeReplHelloReq(f.Payload)
	if err != nil {
		nc.Close()
		return err
	}
	return p.ServeConn(nc, br, epoch, lastApplied)
}

// ServeConn drives the primary side of one follower connection: subscribe
// the follower at lastApplied (epoch and lastApplied already decoded from
// its REPL_HELLO), catch it up by streamed key ranges when it has fallen
// off the retained window — or when its epoch shows its state comes from
// another write lineage, so its sequence numbers cannot be trusted against
// this log — then tail-ship committed entries and consume acks until the
// connection dies or the cursor overruns. br carries any bytes already
// buffered past the hello; nil wraps nc directly. ServeConn closes nc.
//
// lastApplied alone picks how a follower off the window catches up: with no
// state (0) it gets the whole keyspace; with state it runs the Merkle
// repair conversation, and only the key ranges whose leaves differ travel.
func (p *Primary) ServeConn(nc net.Conn, br *bufio.Reader, epoch, lastApplied uint64) error {
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
		if err := p.catchUp(bw, br, snapSeq, lastApplied > 0); err != nil {
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

// catchUp brings a follower that fell off the retained window to the
// store's state at snapSeq, called with snapSeq pinned and before the ack
// reader starts, so this is the only reader of br. A follower with no state
// gets the snapshot-mode hello and the whole keyspace. One with state runs
// the anti-entropy conversation, which picks the key ranges to stream;
// epoch mismatch does not disqualify it, since the hash walk finds every
// range where the lineages differ, whatever their sequences say.
func (p *Primary) catchUp(bw *bufio.Writer, br *bufio.Reader, snapSeq uint64, withState bool) error {
	if !withState {
		err := writeFrame(bw, wire.Frame{
			Op: wire.OpReplHello, Status: wire.StatusOK,
			Payload: wire.AppendReplHelloResp(nil, wire.ReplModeSnapshot, p.Log.Epoch(), snapSeq),
		})
		if err != nil {
			return err
		}
		return p.streamRanges(bw, wholeKeyspace, snapSeq, &p.snapBytes)
	}
	ranges, err := p.serveAntiEntropy(bw, br, snapSeq)
	if err != nil {
		return err
	}
	return p.streamRanges(bw, ranges, snapSeq, &p.aeBytes)
}

// streamRanges streams the store's live pairs inside ranges (sorted and
// disjoint) in key order as REPL_SNAPSHOT frames, every pair tagged with
// snapSeq, and finishes with the done chunk. The payload bytes feed
// counter. The primary-side I/O is bounded by the ranges, not the dataset.
func (p *Primary) streamRanges(bw *bufio.Writer, ranges []keyRange, snapSeq uint64, counter *stats.Counter) error {
	for _, r := range ranges {
		for start := r.lo; ; {
			kvs, err := p.DB.Scan(start, p.snapshotPairs())
			if err != nil {
				return fmt.Errorf("repl: snapshot scan: %w", err)
			}
			n := len(kvs)
			if r.hi != nil {
				n = sort.Search(n, func(i int) bool { return bytes.Compare(kvs[i].Key, r.hi) >= 0 })
			}
			if err := p.writeSnapshotKVs(bw, kvs[:n], snapSeq, counter); err != nil {
				return err
			}
			if n < p.snapshotPairs() {
				break // the store or the range ends in this page
			}
			start = keys.Successor(kvs[n-1].Key)
		}
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
// conversation and returns the key ranges to stream. Protocol:
//
//  1. hello response, mode anti-entropy, carrying the pinned sequence;
//  2. TREE_ROOT push with the primary tree's geometry and root digest;
//  3. the follower walks: TREE_DIFF queries name node ids, the primary
//     answers each with the digests;
//  4. the walk ends with a TREE_DIFF carrying TreeDiffFetch and the
//     divergent leaf ids in ascending order (possibly none); their ranges,
//     adjacent leaves merged, are what the caller streams.
//
// Both sides hash their stores from scratch at the start of the session.
func (p *Primary) serveAntiEntropy(bw *bufio.Writer, br *bufio.Reader, snapSeq uint64) ([]keyRange, error) {
	snap, err := merkle.BuildSnapshot(merkle.DefaultBits, scanPairs(p.DB), p.snapshotPairs())
	if err != nil {
		return nil, fmt.Errorf("repl: merkle snapshot: %w", err)
	}
	p.aeSessions.Inc()
	err = writeFrame(bw, wire.Frame{
		Op: wire.OpReplHello, Status: wire.StatusOK,
		Payload: wire.AppendReplHelloResp(nil, wire.ReplModeAntiEntropy, p.Log.Epoch(), snapSeq),
	})
	if err != nil {
		return nil, err
	}
	err = writeFrame(bw, wire.Frame{
		Op: wire.OpTreeRoot, Status: wire.StatusOK,
		Payload: wire.AppendTreeRoot(nil, snap.Bits(), snap.Root()),
	})
	if err != nil {
		return nil, err
	}
	for {
		f, err := wire.ReadFrame(br, wire.MaxFrame)
		if err != nil {
			return nil, err
		}
		if f.Op != wire.OpTreeDiff {
			return nil, fmt.Errorf("repl: unexpected op %s during anti-entropy", f.Op)
		}
		flags, ids, _, err := wire.DecodeTreeDiff(f.Payload)
		if err != nil {
			return nil, err
		}
		if flags&wire.TreeDiffFetch != 0 {
			for i, id := range ids {
				if !snap.IsLeaf(id) {
					return nil, fmt.Errorf("repl: fetch of non-leaf node %d", id)
				}
				if i > 0 && id <= ids[i-1] {
					return nil, fmt.Errorf("repl: fetch leaves out of order at node %d", id)
				}
			}
			p.aeLeaves.Add(uint64(len(ids)))
			return leafRanges(snap, ids), nil
		}
		hashes := make([][wire.TreeHashLen]byte, len(ids))
		for i, id := range ids {
			h, ok := snap.Node(id)
			if !ok {
				return nil, fmt.Errorf("repl: tree diff for node %d outside tree", id)
			}
			hashes[i] = h
		}
		p.aeNodes.Add(uint64(len(ids)))
		err = writeFrame(bw, wire.Frame{
			Op: wire.OpTreeDiff, Status: wire.StatusOK,
			Payload: wire.AppendTreeDiff(nil, wire.TreeDiffHashes, ids, hashes),
		})
		if err != nil {
			return nil, err
		}
	}
}

// keyRange is the closed-open user-key range [lo, hi) a catch-up stream
// speaks for; nil lo is the keyspace start, nil hi its end.
type keyRange struct{ lo, hi []byte }

// wholeKeyspace is what a follower with no state is sent.
var wholeKeyspace = []keyRange{{}}

// leafRanges maps ascending leaf ids to their key ranges, one range per run
// of adjacent leaves. Both sides of a repair derive the ranges from the
// same fetch list, so the stream and the follower's sweep agree on them.
func leafRanges(snap *merkle.Snapshot, ids []uint32) []keyRange {
	var out []keyRange
	for i, id := range ids {
		lo, hi := snap.LeafSpan(id)
		if i > 0 && ids[i-1]+1 == id {
			out[len(out)-1].hi = hi
			continue
		}
		out = append(out, keyRange{lo, hi})
	}
	return out
}

// scanPairs adapts db.Scan to the merkle package's pair stream.
func scanPairs(db *core.DB) merkle.ScanFunc {
	return func(start []byte, limit int) ([]merkle.Pair, error) {
		kvs, err := db.Scan(start, limit)
		if err != nil {
			return nil, err
		}
		pairs := make([]merkle.Pair, len(kvs))
		for i, kv := range kvs {
			pairs[i] = merkle.Pair{Key: kv.Key, Value: kv.Value}
		}
		return pairs, nil
	}
}

// Status reports the log's view for stats rendering.
func (p *Primary) Status() LogStatus { return p.Log.Status() }

func writeFrame(bw *bufio.Writer, f wire.Frame) error {
	if err := wire.WriteFrame(bw, f); err != nil {
		return err
	}
	return bw.Flush()
}
