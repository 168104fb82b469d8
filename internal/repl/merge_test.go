package repl

import (
	"testing"

	"hyperdb/internal/core"
	"hyperdb/internal/wire"
)

func mergeOp(k string, d int64) core.BatchOp {
	return core.BatchOp{Key: []byte(k), Merge: true, Delta: d}
}

func TestLogShipsUnresolvedMergeDeltas(t *testing.T) {
	// The log snapshots ops at Append time — before the engine resolves
	// merges in place — so followers receive the unresolved delta and apply
	// it against their own identical base.
	l := NewLog(LogConfig{})
	ops := []core.BatchOp{mergeOp("ctr", 5), op("a", "1")}
	tok := l.Append(1, ops)
	// Simulate the engine's post-resolution write-back on the caller's
	// slice; the log's clone must be unaffected.
	ops[0].Merge = false
	ops[0].Value = []byte("resolved")
	l.Commit(tok, true)

	cur, ok := l.Subscribe(0)
	if !ok {
		t.Fatal("subscribe refused")
	}
	base, shipped, err := cur.Next(make(chan struct{}))
	if err != nil || base != 1 {
		t.Fatalf("next: base=%d err=%v", base, err)
	}
	if len(shipped) != 2 || !shipped[0].Merge || shipped[0].Delta != 5 || len(shipped[0].Value) != 0 {
		t.Fatalf("shipped merge op mutated: %+v", shipped[0])
	}
	if shipped[1].Merge || string(shipped[1].Value) != "1" {
		t.Fatalf("shipped put op mutated: %+v", shipped[1])
	}
}

func TestLogBytesAccountsEncodedEntries(t *testing.T) {
	l := NewLog(LogConfig{})
	if l.Bytes() != 0 {
		t.Fatalf("fresh log reports %d bytes", l.Bytes())
	}
	// Bytes() must equal the real encoded size of the op stream — the
	// arithmetic mirror and the actual encoder agree, including the zig-zag
	// delta and multi-byte varint cases.
	e1 := []core.BatchOp{mergeOp("ctr", 300), mergeOp("c2", -1), op("key", "value")}
	l.Commit(l.Append(1, e1), true)
	want := uint64(len(wire.AppendReplFrame(nil, 1, e1)))
	if l.Bytes() != want {
		t.Fatalf("Bytes() = %d after entry 1, want %d", l.Bytes(), want)
	}
	e2 := []core.BatchOp{{Key: []byte("k"), Delete: true}}
	l.Commit(l.Append(4, e2), true)
	want += uint64(len(wire.AppendReplFrame(nil, 4, e2)))
	if l.Bytes() != want {
		t.Fatalf("Bytes() = %d after entry 2, want %d", l.Bytes(), want)
	}
}
