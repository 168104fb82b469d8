package server

import (
	"fmt"
	"strings"
	"sync/atomic"

	"hyperdb/internal/stats"
	"hyperdb/internal/wire"
)

// Stats is the server's observable state, built on the stats package's
// atomic counters so the coalescing claim is measurable, not asserted.
// All fields are safe to read while the server runs.
type Stats struct {
	ConnsAccepted stats.Counter
	ConnsRejected stats.Counter
	connsActive   atomic.Int64

	// BadFrames counts connections dropped for an undecodable stream;
	// BadRequests counts well-framed requests with malformed payloads
	// (answered with StatusBadRequest, connection kept).
	BadFrames   stats.Counter
	BadRequests stats.Counter

	// ReplConns counts accepted replication streams; replActive tracks
	// currently attached follower streams.
	ReplConns  stats.Counter
	replActive atomic.Int64

	// ops counts completed requests per op code (indexed by wire.Op).
	ops [32]stats.Counter

	// Session-read (follower-read) accounting. The rule: a GET, MGET or SCAN
	// is a session read when its frame carried a non-zero token or the node
	// serving it is a follower — a plain read of a primary is neither and
	// counts nowhere here. ReplReadServed counts session reads answered on
	// this node; ReplReadParked those whose token was ahead of the applied
	// position and had to wait; ReplReadNotReady those refused, after the
	// bounded wait or for naming another lineage; ReplReadFallbacks
	// token-carrying reads served while in the primary role — under the
	// bounded policy, retries after a follower's NOT_READY. ReplReadWait
	// records how long parked reads waited.
	ReplReadServed    stats.Counter
	ReplReadParked    stats.Counter
	ReplReadNotReady  stats.Counter
	ReplReadFallbacks stats.Counter
	ReplReadWait      *stats.Histogram

	// Cycle accounting. Drains counts every cycle and DrainedRequests sums
	// the requests each one held (their ratio is the mean requests per
	// cycle). Service records each request's service time, from the frame
	// decoded to the reply handed to the socket.
	// WriteBatches/WriteOps measure how many wire-level write ops each
	// DB.WriteBatch carried; ReadBatches/ReadOps the same for DB.MultiGet.
	Drains          stats.Counter
	DrainedRequests stats.Counter
	Service         *stats.Histogram
	WriteBatches    stats.Counter
	WriteOps        stats.Counter
	ReadBatches     stats.Counter
	ReadOps         stats.Counter

	// Merge coalescing. MergeOps counts logical counter merges received
	// over the wire (INCR requests plus batch merge ops); MergeFolded those
	// absorbed into an already-pending entry for the same key instead of
	// submitting their own — each folded op is a logical write the engine,
	// WAL, and replication stream never saw.
	MergeOps    stats.Counter
	MergeFolded stats.Counter

	// RateLimited counts requests refused by the per-connection token
	// bucket (Config.ConnRate).
	RateLimited stats.Counter

	// EpochRejected counts reads refused because their token named a
	// different write lineage.
	EpochRejected stats.Counter
}

// ActiveConns returns the number of currently served connections.
func (s *Stats) ActiveConns() int64 { return s.connsActive.Load() }

// ActiveReplConns returns the number of attached follower streams.
func (s *Stats) ActiveReplConns() int64 { return s.replActive.Load() }

// OpCount returns completed requests for one op.
func (s *Stats) OpCount(op wire.Op) uint64 {
	if int(op) >= len(s.ops) {
		return 0
	}
	return s.ops[op].Load()
}

func (s *Stats) countOp(op wire.Op) {
	if int(op) < len(s.ops) {
		s.ops[op].Inc()
	}
}

// MeanWriteBatch is the mean wire write-ops per cycle's DB.WriteBatch —
// the end-to-end group-commit factor. >1 means pipelined writes coalesced.
func (s *Stats) MeanWriteBatch() float64 {
	return mean(s.WriteOps.Load(), s.WriteBatches.Load())
}

// MeanReadBatch is the mean point lookups per cycle's DB.MultiGet.
func (s *Stats) MeanReadBatch() float64 {
	return mean(s.ReadOps.Load(), s.ReadBatches.Load())
}

// MeanDrainDepth is the mean requests per cycle.
func (s *Stats) MeanDrainDepth() float64 {
	return mean(s.DrainedRequests.Load(), s.Drains.Load())
}

// LogicalWritesPerDBCall is the mean logical writes carried per engine
// write call: submitted batch entries plus the merges folding absorbed,
// over WriteBatches. The headline coalescing ratio — how many acked wire
// writes each physical engine call (and its WAL/replication record)
// represents.
func (s *Stats) LogicalWritesPerDBCall() float64 {
	return mean(s.WriteOps.Load()+s.MergeFolded.Load(), s.WriteBatches.Load())
}

func mean(sum, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// String renders the server section of a STATS response: one "key value"
// per line, machine-parseable and stable.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "server.conns_accepted %d\n", s.ConnsAccepted.Load())
	fmt.Fprintf(&b, "server.conns_rejected %d\n", s.ConnsRejected.Load())
	fmt.Fprintf(&b, "server.conns_active %d\n", s.ActiveConns())
	fmt.Fprintf(&b, "server.bad_frames %d\n", s.BadFrames.Load())
	fmt.Fprintf(&b, "server.bad_requests %d\n", s.BadRequests.Load())
	fmt.Fprintf(&b, "server.repl_conns %d\n", s.ReplConns.Load())
	fmt.Fprintf(&b, "server.repl_active %d\n", s.ActiveReplConns())
	for _, op := range []wire.Op{
		wire.OpPing, wire.OpPut, wire.OpGet, wire.OpDel, wire.OpBatch, wire.OpMGet, wire.OpScan, wire.OpStats,
		wire.OpIncr,
	} {
		fmt.Fprintf(&b, "server.ops.%s %d\n", strings.ToLower(op.String()), s.OpCount(op))
	}
	fmt.Fprintf(&b, "server.repl_read_served %d\n", s.ReplReadServed.Load())
	fmt.Fprintf(&b, "server.repl_read_parked %d\n", s.ReplReadParked.Load())
	fmt.Fprintf(&b, "server.repl_read_not_ready %d\n", s.ReplReadNotReady.Load())
	fmt.Fprintf(&b, "server.repl_read_fallbacks %d\n", s.ReplReadFallbacks.Load())
	if s.ReplReadWait != nil {
		fmt.Fprintf(&b, "server.repl_read_wait_mean_us %d\n", s.ReplReadWait.Mean().Microseconds())
		fmt.Fprintf(&b, "server.repl_read_wait_p99_us %d\n", s.ReplReadWait.P99().Microseconds())
	}
	fmt.Fprintf(&b, "server.drains %d\n", s.Drains.Load())
	fmt.Fprintf(&b, "server.drained_requests %d\n", s.DrainedRequests.Load())
	fmt.Fprintf(&b, "server.mean_drain_depth %.3f\n", s.MeanDrainDepth())
	if s.Service != nil {
		fmt.Fprintf(&b, "server.req_us.p50 %d\n", s.Service.Median().Microseconds())
		fmt.Fprintf(&b, "server.req_us.p99 %d\n", s.Service.P99().Microseconds())
	}
	fmt.Fprintf(&b, "server.write_batches %d\n", s.WriteBatches.Load())
	fmt.Fprintf(&b, "server.write_ops %d\n", s.WriteOps.Load())
	fmt.Fprintf(&b, "server.mean_write_batch %.3f\n", s.MeanWriteBatch())
	fmt.Fprintf(&b, "server.read_batches %d\n", s.ReadBatches.Load())
	fmt.Fprintf(&b, "server.read_ops %d\n", s.ReadOps.Load())
	fmt.Fprintf(&b, "server.mean_read_batch %.3f\n", s.MeanReadBatch())
	fmt.Fprintf(&b, "server.merge_ops %d\n", s.MergeOps.Load())
	fmt.Fprintf(&b, "server.merge_folded %d\n", s.MergeFolded.Load())
	fmt.Fprintf(&b, "server.logical_writes_per_dbcall %.3f\n", s.LogicalWritesPerDBCall())
	fmt.Fprintf(&b, "server.rate_limited %d\n", s.RateLimited.Load())
	fmt.Fprintf(&b, "server.epoch_rejected %d\n", s.EpochRejected.Load())
	return b.String()
}
