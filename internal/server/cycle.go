package server

import (
	"fmt"
	"math"
	"strings"
	"time"

	"hyperdb"
	"hyperdb/internal/wire"
)

// satSub is saturating subtraction over the same clamped range as
// hyperdb.SatAdd (note -MinInt64 is itself unrepresentable).
func satSub(a, b int64) int64 {
	if b == math.MinInt64 {
		return hyperdb.SatAdd(hyperdb.SatAdd(a, math.MaxInt64), 1)
	}
	return hyperdb.SatAdd(a, -b)
}

// process answers one cycle: the requests a connection's reader gathered,
// or one request that waited off the reader. Cycles of different
// connections run at once and take no server-wide lock: the engine applies
// each key's writes in sequence order. Writes run before reads so a
// connection that pipelines PUT k then GET k observes its own write even
// when both land in the same cycle.
func (s *Server) process(batch []*request) {
	s.stats.Drains.Inc()
	s.stats.DrainedRequests.Add(uint64(len(batch)))
	epoch := s.epoch()

	// Phase 0: park reads whose gate — the token in the request frame — is
	// ahead of the node's applied position; a zero token gates nothing.
	// Parking moves the wait onto a per-request goroutine so a connection's
	// reader never blocks on replication progress. A token naming a
	// different non-zero write lineage is refused outright: its sequence is
	// meaningless against this node's history, and waiting would dress the
	// mismatch up as lag.
	kept := batch[:0]
	for _, r := range batch {
		if r.gated() {
			if r.minEpoch != 0 && epoch != 0 && r.minEpoch != epoch {
				s.stats.EpochRejected.Inc()
				s.stats.ReplReadNotReady.Inc()
				r.reply(wire.StatusNotReady, s.cfg.DB.ReadableSeq(), epoch, nil)
				continue
			}
			if r.minSeq > s.cfg.DB.ReadableSeq() {
				s.park(r)
				continue
			}
		}
		kept = append(kept, r)
	}
	batch = kept

	// Phase 1: group every write op in arrival order into one WriteBatch. The
	// batch's last committed sequence is the position every write's reply
	// carries: it is ≥ every sequence the request's own ops drew, so gating a
	// follower read on it observes them all.
	//
	// Counter merges additionally coalesce before submission: consecutive
	// deltas to the same key (with no intervening put or delete of that key)
	// fold into one net-delta entry via the engine's saturating arithmetic,
	// so a hot counter a connection pipelines INCRs at costs one batch entry
	// per cycle — one WAL record, one replication op — however many INCRs
	// acked. Folding is semantics-preserving because merge runs commute:
	// fold-as-canonical means the folded net delta IS the committed history.
	type incrRef struct {
		r      *request
		entry  int   // wops index the delta landed in
		prefix int64 // entry's running delta just after this request folded
	}
	var wops []hyperdb.BatchOp
	var wreqs []*request
	var incrs []incrRef
	fold := !s.cfg.NoMergeFold
	// lastMerge tracks each key's open merge entry; a put or delete of the
	// key closes the run (later deltas must see the new base).
	var lastMerge map[string]int
	clobber := func(key []byte) {
		if len(lastMerge) > 0 {
			delete(lastMerge, string(key))
		}
	}
	addMerge := func(key []byte, delta int64) (int, int64) {
		s.stats.MergeOps.Inc()
		if i, ok := lastMerge[string(key)]; ok {
			s.stats.MergeFolded.Inc()
			wops[i].Delta = hyperdb.SatAdd(wops[i].Delta, delta)
			return i, wops[i].Delta
		}
		wops = append(wops, hyperdb.BatchOp{Key: key, Merge: true, Delta: delta})
		if fold {
			if lastMerge == nil {
				lastMerge = make(map[string]int)
			}
			lastMerge[string(key)] = len(wops) - 1
		}
		return len(wops) - 1, delta
	}
	for _, r := range batch {
		switch r.op {
		case wire.OpPut:
			wops = append(wops, hyperdb.BatchOp{Key: r.key, Value: r.value})
			wreqs = append(wreqs, r)
			clobber(r.key)
		case wire.OpDel:
			wops = append(wops, hyperdb.BatchOp{Key: r.key, Delete: true})
			wreqs = append(wreqs, r)
			clobber(r.key)
		case wire.OpBatch:
			for _, b := range r.batch {
				if b.Merge {
					addMerge(b.Key, b.Delta)
				} else {
					wops = append(wops, b)
					clobber(b.Key)
				}
			}
			wreqs = append(wreqs, r)
		case wire.OpIncr:
			entry, prefix := addMerge(r.key, r.delta)
			incrs = append(incrs, incrRef{r: r, entry: entry, prefix: prefix})
		}
	}
	if len(wops) > 0 {
		seq, err := s.cfg.DB.WriteBatchSeq(wops)
		s.stats.WriteBatches.Inc()
		s.stats.WriteOps.Add(uint64(len(wops)))
		for _, r := range wreqs {
			s.stats.countOp(r.op)
			if err != nil {
				// WriteBatch may have applied a prefix; every write in the
				// cycle reports the failure rather than guessing which
				// side of the prefix it landed on.
				r.fail(err)
				continue
			}
			r.reply(wire.StatusOK, seq, epoch, nil)
		}
		for _, ir := range incrs {
			s.stats.countOp(ir.r.op)
			if err != nil {
				ir.r.fail(err)
				continue
			}
			final, derr := hyperdb.DecodeCounter(wops[ir.entry].Value)
			if derr != nil {
				ir.r.fail(derr)
				continue
			}
			// Reconstruct this request's post-merge value: the entry's
			// resolved value minus the deltas folded in after it. Exact in
			// the unsaturated case; within saturation of the int64 range
			// each reply stays clamped to the same bound the engine hit.
			val := satSub(final, satSub(wops[ir.entry].Delta, ir.prefix))
			ir.r.reply(wire.StatusOK, seq, epoch, wire.AppendIncrResp(nil, val))
		}
	}

	// Phase 2: group every point read into one MultiGet. MultiGetSession
	// also samples the position the replies carry, under the lock that keeps
	// it ≥ anything the reads observed.
	var keys [][]byte
	var rreqs []*request
	for _, r := range batch {
		switch r.op {
		case wire.OpGet:
			keys = append(keys, r.key)
			rreqs = append(rreqs, r)
		case wire.OpMGet:
			keys = append(keys, r.keys...)
			rreqs = append(rreqs, r)
		}
	}
	if len(keys) > 0 {
		vals, seq, err := s.cfg.DB.MultiGetSession(keys)
		s.stats.ReadBatches.Inc()
		s.stats.ReadOps.Add(uint64(len(keys)))
		off := 0
		for _, r := range rreqs {
			s.stats.countOp(r.op)
			s.countSessionRead(r)
			switch {
			case err != nil:
				r.fail(err)
			case r.op == wire.OpMGet:
				r.reply(wire.StatusOK, seq, epoch, wire.AppendMGetResp(nil, vals[off:off+len(r.keys)]))
				off += len(r.keys)
			case vals[off] == nil:
				r.reply(wire.StatusNotFound, seq, epoch, nil)
				off++
			default:
				r.reply(wire.StatusOK, seq, epoch, vals[off])
				off++
			}
		}
	}

	// Phase 3: the rest, one by one.
	for _, r := range batch {
		switch r.op {
		case wire.OpPing:
			s.stats.countOp(r.op)
			r.reply(wire.StatusOK, 0, 0, r.echo)
		case wire.OpScan:
			s.stats.countOp(r.op)
			s.countSessionRead(r)
			kvs, seq, err := s.cfg.DB.ScanSession(r.key, r.limit)
			if err != nil {
				r.fail(err)
				continue
			}
			r.reply(wire.StatusOK, seq, epoch, wire.AppendScanResp(nil, kvs))
		case wire.OpStats:
			s.stats.countOp(r.op)
			r.reply(wire.StatusOK, 0, 0, []byte(s.statsText()))
		}
	}
}

// gated reports whether the request is a read whose frame carried a
// non-zero token. A token on any other op is ignored.
func (r *request) gated() bool {
	return r.minSeq|r.minEpoch != 0 && (r.op == wire.OpGet || r.op == wire.OpMGet || r.op == wire.OpScan)
}

// countSessionRead accounts one served read under the repl_read_* rule (see
// Stats): it counts when it carried a gate or this node is a follower. A
// gated read that lands on a primary-role node is (under the bounded policy)
// a fallback retry after a follower's NOT_READY — clients deliberately
// routing to the primary send a zero token.
func (s *Server) countSessionRead(r *request) {
	follower := s.cfg.DB.IsFollower()
	if !r.gated() && !follower {
		return
	}
	s.stats.ReplReadServed.Inc()
	if !follower {
		s.stats.ReplReadFallbacks.Inc()
	}
}

// park moves a gated read off the cycle that met it onto its own goroutine
// and cycle. The goroutine waits (bounded by Config.ReadWait, aborted by
// shutdown) for the node's applied position to reach the request's token.
// On success it runs the request's cycle, where the gate passes — the
// readable position never moves backward. Otherwise the request answers
// NOT_READY with the node's position and the client retries elsewhere.
//
// Shutdown safety: a parked request holds its connection's in-flight slot
// until its reply is on the socket, and the connection's reader waits for
// every slot before it closes the socket and lets Shutdown close the
// engine.
func (s *Server) park(r *request) {
	s.stats.ReplReadParked.Inc()
	cy := r.own()
	go func() {
		start := time.Now()
		ok := s.cfg.DB.WaitReadable(r.minSeq, s.cfg.ReadWait, s.stopWait)
		s.stats.ReplReadWait.Record(time.Since(start))
		if ok {
			r.c.run(cy)
			return
		}
		s.stats.ReplReadNotReady.Inc()
		r.reply(wire.StatusNotReady, s.cfg.DB.ReadableSeq(), s.epoch(), nil)
		r.c.write(cy)
	}()
}

// epoch reports the node's current write-lineage identifier, 0 when the
// deployment never configured one (which disables epoch checking).
func (s *Server) epoch() uint64 {
	if s.cfg.Epoch == nil {
		return 0
	}
	return s.cfg.Epoch()
}

// statsText renders the STATS payload: the server's counters, the
// replication section, then a blank line and the engine's multi-line
// summary.
func (s *Server) statsText() string {
	var b strings.Builder
	b.WriteString(s.stats.String())
	b.WriteString(s.replText())
	b.WriteString("\n")
	b.WriteString(s.cfg.DB.Stats().String())
	return b.String()
}

// replText renders the "repl.*" stats lines: the node's role, a follower's
// applied position, and — when this node ships a log — per-follower ack and
// lag. hyperctl's `repl status` parses these.
func (s *Server) replText() string {
	var b strings.Builder
	if s.cfg.DB.IsFollower() {
		fmt.Fprintf(&b, "repl.role follower\n")
		fmt.Fprintf(&b, "repl.applied %d\n", s.cfg.DB.CommitSeq())
		fmt.Fprintf(&b, "repl.readable %d\n", s.cfg.DB.ReadableSeq())
	} else {
		fmt.Fprintf(&b, "repl.role primary\n")
	}
	if s.cfg.Repl != nil {
		st := s.cfg.Repl.Status()
		fmt.Fprintf(&b, "repl.log_head %d\n", st.Head)
		fmt.Fprintf(&b, "repl.log_floor %d\n", st.Floor)
		fmt.Fprintf(&b, "repl.log_entries %d\n", st.Entries)
		fmt.Fprintf(&b, "repl.log_pending %d\n", st.Pending)
		fmt.Fprintf(&b, "repl.followers %d\n", len(st.Peers))
		for _, p := range st.Peers {
			fmt.Fprintf(&b, "repl.follower %s acked %d lag %d\n", p.Name, p.Acked, p.Lag)
		}
		ae := s.cfg.Repl.AEStatsSnapshot()
		fmt.Fprintf(&b, "repl.snap_bytes %d\n", ae.SnapshotBytes)
		fmt.Fprintf(&b, "repl.ae_sessions %d\n", ae.AESessions)
		fmt.Fprintf(&b, "repl.ae_bytes %d\n", ae.AEBytes)
		fmt.Fprintf(&b, "repl.ae_nodes %d\n", ae.AENodes)
		fmt.Fprintf(&b, "repl.ae_leaves %d\n", ae.AELeaves)
	}
	return b.String()
}

// reply answers the request into its cycle, whose owner writes the frame
// out and then frees the request's in-flight slot. (seq, epoch) is the
// position the answer was served at, which a session folds into its token:
// a write's committed sequence, a read's applied sequence, a NOT_READY's
// current one; zero on replies that have none.
func (r *request) reply(st wire.Status, seq, epoch uint64, payload []byte) {
	cy := r.cy
	cy.out = wire.AppendFrame(cy.out, wire.Frame{Op: r.op, Status: st, ID: r.id, Seq: seq, Epoch: epoch, Payload: payload})
	cy.starts = append(cy.starts, r.start)
}

// fail answers with StatusError and the engine's message.
func (r *request) fail(err error) {
	r.reply(wire.StatusError, 0, 0, []byte(err.Error()))
}
