package server

import (
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"hyperdb"
	"hyperdb/internal/wire"
)

// exchange sends one frame on a raw connection and reads its reply.
func exchange(t *testing.T, nc net.Conn, f wire.Frame) wire.Frame {
	t.Helper()
	if _, err := nc.Write(wire.AppendFrame(nil, f)); err != nil {
		t.Fatal(err)
	}
	r, err := wire.ReadFrame(nc, wire.MaxFrame)
	if err != nil {
		t.Fatalf("reply to %s %d: %v", f.Op, f.ID, err)
	}
	if r.ID != f.ID || r.Op != f.Op {
		t.Fatalf("reply %s %d to request %s %d", r.Op, r.ID, f.Op, f.ID)
	}
	return r
}

// TestRetiredOpBytesAreUnknown: the twelve bytes past the end of the op
// table that once named ops — the cluster ops' and the old anti-entropy
// positions (16–20), then the v2 ops' (21–27) — are refused as unknown ops,
// with or without a token, and the connection keeps serving.
func TestRetiredOpBytesAreUnknown(t *testing.T) {
	env := newTestEnv(t, nil)
	nc := rawDial(t, env.addr)
	id := uint64(0)
	for op := wire.OpTreeDiff + 1; op <= 27; op++ {
		id++
		r := exchange(t, nc, wire.Frame{Op: op, ID: id, Seq: id % 2 * 99, Epoch: id % 2 * 5, Payload: wire.AppendKeyReq(nil, []byte("k"))})
		if r.Status != wire.StatusBadRequest || !strings.Contains(string(r.Payload), "unknown op") {
			t.Fatalf("op byte %d: status %s payload %q, want bad request / unknown op", uint8(op), r.Status, r.Payload)
		}
	}
	if r := exchange(t, nc, wire.Frame{Op: wire.OpPing, ID: 100}); r.Status != wire.StatusOK {
		t.Fatalf("ping after unknown ops: %s", r.Status)
	}
	if got := env.srv.Stats().BadRequests.Load(); got != 12 {
		t.Fatalf("bad requests = %d, want 12", got)
	}
}

// TestEveryKeyedReplyCarriesPosition: a plain request — zero token — is
// answered with the position it was served at, by every keyed op and on
// hits and misses alike; the value of a GET is the payload itself; replies
// to unkeyed ops carry none; and a token on a write gates nothing.
func TestEveryKeyedReplyCarriesPosition(t *testing.T) {
	const epoch = 9
	env, _ := newReplEnv(t, false, nil, func(c *Config) { c.Epoch = func() uint64 { return epoch } })
	nc := rawDial(t, env.addr)
	k, v := []byte("k"), []byte("value")

	var id, last uint64
	ask := func(op wire.Op, seq uint64, payload []byte) wire.Frame {
		id++
		return exchange(t, nc, wire.Frame{Op: op, ID: id, Seq: seq, Payload: payload})
	}
	// stamped checks a keyed reply's position: this node's epoch, and a
	// sequence that moved forward (a write) or held (a read).
	stamped := func(r wire.Frame, st wire.Status, write bool) {
		t.Helper()
		if r.Status != st || r.Epoch != epoch || r.Seq < last || write && r.Seq == last {
			t.Fatalf("%s %d: status %s position %d@%d after %d, want %s at epoch %d", r.Op, r.ID, r.Status, r.Seq, r.Epoch, last, st, epoch)
		}
		last = r.Seq
	}

	stamped(ask(wire.OpGet, 0, wire.AppendKeyReq(nil, k)), wire.StatusNotFound, false)
	// A far-future token on a write is ignored, not waited on.
	stamped(ask(wire.OpPut, 1<<40, wire.AppendPutReq(nil, k, v)), wire.StatusOK, true)
	r := ask(wire.OpGet, 0, wire.AppendKeyReq(nil, k))
	stamped(r, wire.StatusOK, false)
	if !bytes.Equal(r.Payload, v) {
		t.Fatalf("GET payload %q, want the bare value %q", r.Payload, v)
	}
	r = ask(wire.OpMGet, last, wire.AppendMGetReq(nil, [][]byte{k, []byte("absent")}))
	stamped(r, wire.StatusOK, false)
	if vals, err := wire.DecodeMGetResp(r.Payload); err != nil || len(vals) != 2 || !bytes.Equal(vals[0], v) || vals[1] != nil {
		t.Fatalf("MGET payload: %q %v", vals, err)
	}
	r = ask(wire.OpScan, last, wire.AppendScanReq(nil, nil, 10))
	stamped(r, wire.StatusOK, false)
	if kvs, err := wire.DecodeScanResp(r.Payload); err != nil || len(kvs) != 1 || !bytes.Equal(kvs[0].Value, v) {
		t.Fatalf("SCAN payload: %v %v", kvs, err)
	}
	r = ask(wire.OpIncr, 0, wire.AppendIncrReq(nil, []byte("c"), 4))
	stamped(r, wire.StatusOK, true)
	if n, err := wire.DecodeIncrResp(r.Payload); err != nil || n != 4 {
		t.Fatalf("INCR payload: %d %v", n, err)
	}
	stamped(ask(wire.OpBatch, 0, wire.AppendBatchReq(nil, []wire.BatchOp{{Key: []byte("b"), Value: v}})), wire.StatusOK, true)
	stamped(ask(wire.OpDel, 0, wire.AppendKeyReq(nil, k)), wire.StatusOK, true)
	if last != env.db.CommitSeq() {
		t.Fatalf("last reply at %d, engine committed %d", last, env.db.CommitSeq())
	}

	for _, op := range []wire.Op{wire.OpPing, wire.OpStats} {
		if r := ask(op, 0, nil); r.Status != wire.StatusOK || r.Seq != 0 || r.Epoch != 0 {
			t.Fatalf("%s reply carries %d@%d", op, r.Seq, r.Epoch)
		}
	}
	if r := ask(wire.OpGet, 0, nil); r.Status != wire.StatusBadRequest || r.Seq != 0 || r.Epoch != 0 {
		t.Fatalf("bad request reply: %s %d@%d", r.Status, r.Seq, r.Epoch)
	}
}

// TestReplReadStatsRule pins what the repl_read_* counters count now that
// no op code marks a session read: a read counts when it carried a non-zero
// token or was served by a follower.
func TestReplReadStatsRule(t *testing.T) {
	get := wire.AppendKeyReq(nil, []byte("k"))
	counts := func(e *testEnv) [4]uint64 {
		st := e.srv.Stats()
		return [4]uint64{st.ReplReadServed.Load(), st.ReplReadParked.Load(), st.ReplReadNotReady.Load(), st.ReplReadFallbacks.Load()}
	}
	expect := func(e *testEnv, what string, want [4]uint64) {
		t.Helper()
		if got := counts(e); got != want {
			t.Fatalf("after %s: served/parked/not_ready/fallbacks = %v, want %v", what, got, want)
		}
	}

	prim, _ := newReplEnv(t, false, nil, func(c *Config) { c.Epoch = func() uint64 { return 9 } })
	if err := prim.db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	pc := rawDial(t, prim.addr)
	exchange(t, pc, wire.Frame{Op: wire.OpGet, ID: 1, Payload: get})
	exchange(t, pc, wire.Frame{Op: wire.OpScan, ID: 2, Payload: wire.AppendScanReq(nil, nil, 5)})
	expect(prim, "plain reads of a primary", [4]uint64{})
	// A token on a primary read is a fallback after a follower's refusal.
	if r := exchange(t, pc, wire.Frame{Op: wire.OpGet, ID: 3, Seq: 1, Epoch: 9, Payload: get}); r.Status != wire.StatusOK {
		t.Fatalf("satisfiable gated read: %s", r.Status)
	}
	exchange(t, pc, wire.Frame{Op: wire.OpMGet, ID: 4, Seq: 1, Payload: wire.AppendMGetReq(nil, [][]byte{[]byte("k")})})
	expect(prim, "gated reads of a primary", [4]uint64{2, 0, 0, 2})
	// A token on a write is not a read.
	exchange(t, pc, wire.Frame{Op: wire.OpPut, ID: 5, Seq: 1, Payload: wire.AppendPutReq(nil, []byte("k"), []byte("w"))})
	expect(prim, "a token-carrying write", [4]uint64{2, 0, 0, 2})

	fol, _ := newReplEnv(t, true, nil, func(c *Config) {
		c.Epoch = func() uint64 { return 9 }
		c.ReadWait = time.Millisecond
	})
	if err := fol.db.ApplyReplicated([]hyperdb.BatchOp{{Key: []byte("k"), Value: []byte("v")}}, 1); err != nil {
		t.Fatal(err)
	}
	fc := rawDial(t, fol.addr)
	// Any read a follower serves counts, token or not; none is a fallback.
	exchange(t, fc, wire.Frame{Op: wire.OpGet, ID: 1, Payload: get})
	exchange(t, fc, wire.Frame{Op: wire.OpGet, ID: 2, Seq: 1, Epoch: 9, Payload: get})
	expect(fol, "reads of a follower", [4]uint64{2, 0, 0, 0})
	// A gate ahead of the follower parks, then is refused with its position.
	r := exchange(t, fc, wire.Frame{Op: wire.OpGet, ID: 3, Seq: 50, Epoch: 9, Payload: get})
	if r.Status != wire.StatusNotReady || r.Seq != 1 || r.Epoch != 9 || len(r.Payload) != 0 {
		t.Fatalf("unreachable gate: %s %d@%d %q, want not ready at 1@9", r.Status, r.Seq, r.Epoch, r.Payload)
	}
	expect(fol, "an unreachable gate", [4]uint64{2, 1, 1, 0})
	// A gate from another lineage is refused at once, never parked.
	r = exchange(t, fc, wire.Frame{Op: wire.OpScan, ID: 4, Seq: 1, Epoch: 8, Payload: wire.AppendScanReq(nil, nil, 5)})
	if r.Status != wire.StatusNotReady || r.Seq != 1 || r.Epoch != 9 {
		t.Fatalf("foreign-lineage gate: %s %d@%d, want not ready at 1@9", r.Status, r.Seq, r.Epoch)
	}
	expect(fol, "a foreign-lineage gate", [4]uint64{2, 1, 2, 0})
	if got := fol.srv.Stats().EpochRejected.Load(); got != 1 {
		t.Fatalf("epoch_rejected = %d, want 1", got)
	}
}
