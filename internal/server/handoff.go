// Slot handoff: live migration of a shard-slot range between two primary
// groups, built on the replication subsystem's pinned-head snapshot stream.
//
// The target node drives the whole migration (runHandoffTarget, triggered
// by an OpHandoff admin request): it marks the slots as acquiring, dials
// the current owner, and pulls a consistent snapshot of the moving keys
// followed by a filtered tail of live writes. The source (serveHandoffSource)
// keeps serving the slots throughout; ownership flips only at the very end,
// in an ordering that makes losing an acked write impossible:
//
//  1. target applies the full snapshot, asks to flip (HANDOFF_FLIP)
//  2. source installs the successor map — from this instant every cycle
//     that starts bounces moved-slot ops with WRONG_SHARD instead of
//     committing them
//  3. source runs a barrier: it takes Server.cycles exclusive, which waits
//     out every cycle holding it shared, so when the barrier passes every
//     write acked under the old map has committed to the log
//  4. flipSeq = log head ≥ every such write; WaitResolved(flipSeq) then a
//     pre-closed-stop cursor drain ships the remaining filtered tail
//  5. source answers the flip with the new map — written after the final
//     tail BATCH frame, so by TCP stream order the target holds every
//     pre-flip write when the response arrives
//  6. target installs the new map and starts serving the slots
//
// Double ownership is impossible: the source stops serving at step 2 and
// the target starts at step 6, which strictly follows it. Between the two,
// clients park briefly on the target (its acquiring set covers the slots)
// or retry on WRONG_SHARD. A failure after step 2 strands the slots until
// the operator re-runs the handoff or restarts the group (maps are not
// persisted; a restart reverts to the configured seed map) — stranding is
// an availability gap, never data loss, since the source keeps the data.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"

	"hyperdb"
	"hyperdb/internal/cluster"
	"hyperdb/internal/keys"
	"hyperdb/internal/repl"
	"hyperdb/internal/wire"
)

// handoffDialTimeout bounds the target's dial to the source so a shutdown
// mid-handoff cannot stall readerWG on an unresponsive peer.
const handoffDialTimeout = 5 * time.Second

// sweepPairs bounds the scan pages of the target's pre-migration sweep.
const sweepPairs = 256

// serveHandoffSource owns the source half of a migration on the reader
// goroutine of the connection the target dialed. Like serveRepl it claims
// the whole socket from the first frame, so the push stream is the
// socket's single writer.
func (c *conn) serveHandoffSource(f wire.Frame, first bool) {
	srv := c.srv
	refuse := func(msg string) {
		srv.stats.BadRequests.Inc()
		c.respondError(f.ID, f.Op, wire.StatusBadRequest, msg)
	}
	if srv.cfg.Cluster == nil || srv.cfg.Repl == nil {
		refuse("cluster mode not enabled")
		return
	}
	if !first {
		refuse("HANDOFF_HELLO must be the first frame")
		return
	}
	targetGroup, slots, err := wire.DecodeHandoffHelloReq(f.Payload)
	if err != nil {
		refuse(err.Error())
		return
	}
	n := srv.cfg.Cluster
	m := n.Map()
	if int(targetGroup) >= len(m.Groups) || targetGroup == n.Self() {
		refuse(fmt.Sprintf("bad handoff target group %d", targetGroup))
		return
	}
	for _, sl := range slots {
		if int(sl) >= len(m.Slots) || m.Slots[sl] != n.Self() {
			refuse(fmt.Sprintf("slot %d not owned by this node", sl))
			return
		}
	}
	srv.logf("conn %s: handoff source streaming %d slots to group %d", c.nc.RemoteAddr(), len(slots), targetGroup)
	if err := srv.runHandoffSource(c, f.ID, targetGroup, slots); err != nil && !srv.closing.Load() {
		srv.logf("conn %s: handoff source ended: %v", c.nc.RemoteAddr(), err)
	}
}

// runHandoffSource streams the moving range to the target and performs the
// ownership flip when asked. See the package comment for the ordering that
// makes the flip safe.
func (s *Server) runHandoffSource(c *conn, helloID uint64, targetGroup uint32, slots []uint32) error {
	n := s.cfg.Cluster
	rlog := s.cfg.Repl.Log
	slotSet := make(map[uint32]struct{}, len(slots))
	for _, sl := range slots {
		slotSet[sl] = struct{}{}
	}
	m := n.Map()
	keep := func(key []byte) bool {
		_, ok := slotSet[m.SlotOf(key)]
		return ok
	}

	// The pin holds the whole migration, not just the snapshot: it keeps
	// the tail window shippable however long the transfer takes, so the
	// cursor can never overrun mid-handoff.
	snapSeq := rlog.PinHead()
	defer rlog.Unpin(snapSeq)
	bw := bufio.NewWriterSize(c.nc, readBufSize)
	err := writeHandoffFrame(bw, wire.Frame{
		Op: wire.OpHandoffHello, Status: wire.StatusOK, ID: helloID,
		Payload: wire.AppendHandoffHelloResp(nil, m.Version, snapSeq),
	})
	if err != nil {
		return err
	}
	if err := s.cfg.Repl.StreamSnapshotChunks(bw, snapSeq, keep); err != nil {
		return err
	}
	cur, ok := rlog.Subscribe(snapSeq)
	if !ok {
		return fmt.Errorf("handoff: snapshot seq %d below floor %d despite pin", snapSeq, rlog.Floor())
	}

	// The flip listener is the socket's only reader from here: exactly one
	// HANDOFF_FLIP request is legal, and anything else (including a dead
	// target) must wake the ship loop below.
	var flipID uint64
	flip := make(chan struct{})
	readErr := make(chan error, 1)
	go func() {
		fr, err := wire.ReadFrame(c.br, s.cfg.MaxFrame)
		if err != nil {
			readErr <- err
			return
		}
		if fr.Op != wire.OpHandoffFlip || len(fr.Payload) != 0 {
			readErr <- fmt.Errorf("handoff: expected HANDOFF_FLIP, got %s", fr.Op)
			return
		}
		flipID = fr.ID
		close(flip)
	}()
	var stopErr error
	stopShip := make(chan struct{})
	go func() {
		defer close(stopShip)
		select {
		case <-flip:
		case err := <-readErr:
			stopErr = err
		case <-s.stopWait:
			stopErr = errors.New("handoff: server shutting down")
		}
	}()

	// Ship the filtered tail until the target asks to flip.
	for {
		base, ops, err := cur.Next(stopShip)
		if err != nil {
			if errors.Is(err, repl.ErrStopped) {
				break
			}
			return err
		}
		if err := shipTail(bw, base, ops, keep); err != nil {
			return err
		}
	}
	select {
	case <-flip:
	default:
		if stopErr == nil {
			stopErr = errors.New("handoff: stream ended before flip")
		}
		return stopErr
	}

	// Flip. Install first, so every later cycle is checked under the new
	// map; the barrier then waits out every cycle that may have checked the
	// old one, so all old-map acked writes have committed, bounded by the
	// log head.
	cm := n.Map()
	for _, sl := range slots {
		if cm.Slots[sl] != n.Self() {
			return fmt.Errorf("handoff: lost slot %d before flip", sl)
		}
	}
	next, err := cm.Reassign(slots, targetGroup)
	if err != nil {
		return err
	}
	if !n.Install(next) {
		return errors.New("handoff: map version raced at flip")
	}
	s.cycles.Lock()
	s.cycles.Unlock()
	flipSeq := rlog.Head()
	if err := rlog.WaitResolved(flipSeq, s.stopWait); err != nil {
		return err
	}
	drained := make(chan struct{})
	close(drained)
	for {
		base, ops, err := cur.Next(drained)
		if err != nil {
			if errors.Is(err, repl.ErrStopped) {
				break
			}
			return err
		}
		if base > flipSeq {
			break
		}
		if err := shipTail(bw, base, ops, keep); err != nil {
			return err
		}
	}
	s.logf("handoff: flipped %d slots to group %d (map v%d, flip seq %d)", len(slots), targetGroup, next.Version, flipSeq)
	return writeHandoffFrame(bw, wire.Frame{
		Op: wire.OpHandoffFlip, Status: wire.StatusOK, ID: flipID,
		Payload: next.Encode(nil),
	})
}

// runHandoffTarget answers an OpHandoff admin request: pull the named slots
// from their current owner onto this node. It runs on its own goroutine
// and cycle, holding one in-flight slot until its reply is written.
func (s *Server) runHandoffTarget(r *request) {
	defer r.c.write(r.cy)
	nm, err := s.handoffTarget(r.slots)
	if err != nil {
		s.stats.HandoffsFailed.Inc()
		s.logf("handoff: pull of %d slots failed: %v", len(r.slots), err)
		r.fail(err)
		return
	}
	s.stats.Handoffs.Inc()
	s.logf("handoff: acquired %d slots (map v%d)", len(r.slots), nm.Version)
	r.reply(wire.StatusOK, 0, 0, nm.Encode(nil))
}

func (s *Server) handoffTarget(slots []uint32) (*cluster.Map, error) {
	n := s.cfg.Cluster
	m := n.Map()
	src := -1
	for _, sl := range slots {
		if int(sl) >= len(m.Slots) {
			return nil, fmt.Errorf("slot %d out of range", sl)
		}
		g := int(m.Slots[sl])
		if g == int(n.Self()) {
			return nil, fmt.Errorf("slot %d already owned", sl)
		}
		if src == -1 {
			src = g
		} else if src != g {
			return nil, fmt.Errorf("slots span groups %d and %d; hand off from one source at a time", src, g)
		}
	}
	if err := n.BeginAcquire(slots); err != nil {
		return nil, err
	}
	nm, err := s.pullSlots(m, uint32(src), slots)
	if err != nil {
		n.AbortAcquire(slots)
		return nil, err
	}
	// FinishAcquire installs the map and clears the acquiring marks; parked
	// requests wake and pass the ownership check in their own cycles.
	n.FinishAcquire(slots, nm)
	return nm, nil
}

// pullSlots performs the target side of the migration protocol against the
// source at m.Groups[src] and returns the post-flip map.
func (s *Server) pullSlots(m *cluster.Map, src uint32, slots []uint32) (*cluster.Map, error) {
	slotSet := make(map[uint32]struct{}, len(slots))
	for _, sl := range slots {
		slotSet[sl] = struct{}{}
	}
	inMove := func(key []byte) bool {
		_, ok := slotSet[m.SlotOf(key)]
		return ok
	}
	// Pre-sweep: drop any local keys in the moving range. An earlier
	// aborted pull may have left partial state the snapshot would not
	// overwrite (keys deleted at the source since), and the stream below
	// carries only live pairs.
	if err := s.sweepSlots(inMove); err != nil {
		return nil, err
	}

	d := net.Dialer{Timeout: handoffDialTimeout}
	nc, err := d.Dial("tcp", m.Groups[src])
	if err != nil {
		return nil, err
	}
	defer nc.Close()
	watch := make(chan struct{})
	defer close(watch)
	go func() {
		// Translate shutdown into a socket close so blocking reads abort.
		select {
		case <-s.stopWait:
			nc.Close()
		case <-watch:
		}
	}()
	br := bufio.NewReaderSize(nc, readBufSize)
	bw := bufio.NewWriterSize(nc, readBufSize)

	err = writeHandoffFrame(bw, wire.Frame{
		Op: wire.OpHandoffHello, ID: 1,
		Payload: wire.AppendHandoffHelloReq(nil, s.cfg.Cluster.Self(), slots),
	})
	if err != nil {
		return nil, err
	}
	hello, err := wire.ReadFrame(br, s.cfg.MaxFrame)
	if err != nil {
		return nil, err
	}
	if hello.Op != wire.OpHandoffHello || hello.Status != wire.StatusOK {
		return nil, fmt.Errorf("handoff: source refused: op=%s status=%d %q", hello.Op, hello.Status, hello.Payload)
	}
	if _, _, err := wire.DecodeHandoffHelloResp(hello.Payload); err != nil {
		return nil, err
	}

	// Snapshot phase. Chunks apply as ordinary local batches — this node is
	// a primary in its own right: it mints its own sequences and tees its
	// own log, so its followers and session tokens see the migrated keys as
	// fresh local writes.
	for {
		fr, err := wire.ReadFrame(br, s.cfg.MaxFrame)
		if err != nil {
			return nil, err
		}
		if fr.Op != wire.OpReplSnapshot {
			return nil, fmt.Errorf("handoff: unexpected op %s during snapshot", fr.Op)
		}
		_, kvs, done, err := wire.DecodeReplSnapshot(fr.Payload)
		if err != nil {
			return nil, err
		}
		if len(kvs) > 0 {
			ops := make([]hyperdb.BatchOp, len(kvs))
			for i, kv := range kvs {
				ops[i] = hyperdb.BatchOp{Key: kv.Key, Value: kv.Value} // alias the frame: ReadFrame's payload is ours
			}
			if _, err := s.cfg.DB.WriteBatchSeq(ops); err != nil {
				return nil, err
			}
		}
		if done {
			break
		}
	}

	// Ask for the flip, then keep applying tail frames until the response
	// arrives. The source writes it after the final tail BATCH frame, so
	// stream order guarantees this node holds every pre-flip write by then.
	if err := writeHandoffFrame(bw, wire.Frame{Op: wire.OpHandoffFlip, ID: 2}); err != nil {
		return nil, err
	}
	for {
		fr, err := wire.ReadFrame(br, s.cfg.MaxFrame)
		if err != nil {
			return nil, err
		}
		switch fr.Op {
		case wire.OpBatch:
			wops, err := wire.DecodeBatchReq(fr.Payload)
			if err != nil {
				return nil, err
			}
			if _, err := s.cfg.DB.WriteBatchSeq(wops); err != nil {
				return nil, err
			}
		case wire.OpHandoffFlip:
			if fr.Status != wire.StatusOK {
				return nil, fmt.Errorf("handoff: flip refused: %q", fr.Payload)
			}
			return cluster.Decode(fr.Payload)
		default:
			return nil, fmt.Errorf("handoff: unexpected op %s while tailing", fr.Op)
		}
	}
}

// sweepSlots deletes every local key the membership test covers, in
// bounded scan pages.
func (s *Server) sweepSlots(inMove func(key []byte) bool) error {
	var start []byte
	for {
		kvs, err := s.cfg.DB.Scan(start, sweepPairs)
		if err != nil {
			return err
		}
		if len(kvs) == 0 {
			return nil
		}
		var dels []hyperdb.BatchOp
		for _, kv := range kvs {
			if inMove(kv.Key) {
				dels = append(dels, hyperdb.BatchOp{Key: append([]byte(nil), kv.Key...), Delete: true})
			}
		}
		if len(dels) > 0 {
			if _, err := s.cfg.DB.WriteBatchSeq(dels); err != nil {
				return err
			}
		}
		if len(kvs) < sweepPairs {
			return nil
		}
		start = keys.Successor(kvs[len(kvs)-1].Key)
	}
}

// shipTail sends the ops of one log entry whose keys keep accepts as a
// BATCH frame, and nothing when none does.
func shipTail(bw *bufio.Writer, base uint64, ops []hyperdb.BatchOp, keep func(key []byte) bool) error {
	var kept []hyperdb.BatchOp
	for _, op := range ops {
		if keep(op.Key) {
			kept = append(kept, op)
		}
	}
	if len(kept) == 0 {
		return nil
	}
	return writeHandoffFrame(bw, wire.Frame{Op: wire.OpBatch, Status: wire.StatusOK, ID: base, Payload: wire.AppendBatchReq(nil, kept)})
}

func writeHandoffFrame(bw *bufio.Writer, f wire.Frame) error {
	if _, err := bw.Write(wire.AppendFrame(nil, f)); err != nil {
		return err
	}
	return bw.Flush()
}
