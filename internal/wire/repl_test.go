package wire

import (
	"bytes"
	"testing"
)

func TestReplHelloRoundTrip(t *testing.T) {
	for _, seq := range []uint64{0, 1, 1 << 40} {
		p := AppendReplHelloReq(nil, seq*3+1, seq)
		if p[0] != ReplProtoVersion || p[1] != 0 {
			t.Fatalf("hello opens %d %d, want version %d flags 0", p[0], p[1], ReplProtoVersion)
		}
		// The flags byte is ignored on receipt, whatever it holds.
		for _, flags := range []uint8{0, 1} {
			p[1] = flags
			epoch, got, err := DecodeReplHelloReq(p)
			if err != nil || got != seq || epoch != seq*3+1 {
				t.Fatalf("hello req %d/%d: got epoch %d seq %d err %v", seq, flags, epoch, got, err)
			}
		}
	}
	if _, _, err := DecodeReplHelloReq(nil); err == nil {
		t.Fatal("empty hello accepted")
	}
	if _, _, err := DecodeReplHelloReq([]byte{99, 0, 0}); err == nil {
		t.Fatal("bad version accepted")
	}
	if _, _, err := DecodeReplHelloReq(append(AppendReplHelloReq(nil, 3, 7), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	if _, _, err := DecodeReplHelloReq([]byte{ReplProtoVersion, 0, 5}); err == nil {
		t.Fatal("truncated hello accepted")
	}
	if _, _, err := DecodeReplHelloReq([]byte{ReplProtoVersion}); err == nil {
		t.Fatal("hello without flags byte accepted")
	}
	if _, _, err := DecodeReplHelloReq([]byte{2, 3, 7}); err == nil {
		t.Fatal("flags-free version-2 hello accepted")
	}

	for _, mode := range []uint8{ReplModeTail, ReplModeSnapshot, ReplModeAntiEntropy} {
		p := AppendReplHelloResp(nil, mode, 9, 42)
		m, e, s, err := DecodeReplHelloResp(p)
		if err != nil || m != mode || e != 9 || s != 42 {
			t.Fatalf("hello resp mode %d: got %d/%d/%d err %v", mode, m, e, s, err)
		}
	}
	if _, _, _, err := DecodeReplHelloResp([]byte{9, 1, 1}); err == nil {
		t.Fatal("bad mode accepted")
	}
	if _, _, _, err := DecodeReplHelloResp([]byte{ReplModeTail, 5}); err == nil {
		t.Fatal("truncated hello resp accepted")
	}
}

func TestReplFrameRoundTrip(t *testing.T) {
	ops := []BatchOp{
		{Key: []byte("a"), Value: []byte("1")},
		{Key: []byte("b"), Delete: true},
		{Key: []byte("c"), Value: nil}, // empty value put
	}
	p := AppendReplFrame(nil, 99, ops)
	base, got, err := DecodeReplFrame(p)
	if err != nil {
		t.Fatal(err)
	}
	if base != 99 || len(got) != 3 {
		t.Fatalf("base=%d n=%d", base, len(got))
	}
	for i := range ops {
		if !bytes.Equal(got[i].Key, ops[i].Key) || !bytes.Equal(got[i].Value, ops[i].Value) || got[i].Delete != ops[i].Delete {
			t.Fatalf("op %d mismatch: %+v vs %+v", i, got[i], ops[i])
		}
	}
	if _, _, err := DecodeReplFrame(AppendReplFrame(nil, 0, ops)); err == nil {
		t.Fatal("base 0 accepted")
	}
	if _, _, err := DecodeReplFrame(AppendReplFrame(nil, 5, nil)); err == nil {
		t.Fatal("empty frame accepted")
	}
}

func TestReplAckRoundTrip(t *testing.T) {
	p := AppendReplAck(nil, 1234567)
	got, err := DecodeReplAck(p)
	if err != nil || got != 1234567 {
		t.Fatalf("ack: got %d err %v", got, err)
	}
	if _, err := DecodeReplAck(nil); err == nil {
		t.Fatal("empty ack accepted")
	}
	if _, err := DecodeReplAck(append(p, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestReplSnapshotRoundTrip(t *testing.T) {
	kvs := []KV{
		{Key: []byte("k1"), Value: []byte("v1")},
		{Key: []byte("k2"), Value: []byte{}},
	}
	p := AppendReplSnapshot(nil, 77, kvs, false)
	seq, got, done, err := DecodeReplSnapshot(p)
	if err != nil || done || seq != 77 || len(got) != 2 {
		t.Fatalf("chunk: seq=%d n=%d done=%v err=%v", seq, len(got), done, err)
	}
	for i := range kvs {
		if !bytes.Equal(got[i].Key, kvs[i].Key) || !bytes.Equal(got[i].Value, kvs[i].Value) {
			t.Fatalf("pair %d mismatch", i)
		}
	}
	// Final chunk may be empty.
	seq, got, done, err = DecodeReplSnapshot(AppendReplSnapshot(nil, 77, nil, true))
	if err != nil || !done || seq != 77 || len(got) != 0 {
		t.Fatalf("final: seq=%d n=%d done=%v err=%v", seq, len(got), done, err)
	}
	// A non-final empty chunk is malformed.
	if _, _, _, err := DecodeReplSnapshot(AppendReplSnapshot(nil, 77, nil, false)); err == nil {
		t.Fatal("empty non-final chunk accepted")
	}
	if _, _, _, err := DecodeReplSnapshot([]byte{2, 0, 0}); err == nil {
		t.Fatal("bad done byte accepted")
	}
}

func TestReplOpsValidAndNamed(t *testing.T) {
	for _, op := range []Op{OpReplHello, OpReplFrame, OpReplAck, OpReplSnapshot} {
		if !op.Valid() {
			t.Fatalf("%s not valid", op)
		}
		if op.String()[:5] != "REPL_" {
			t.Fatalf("unexpected name %q", op.String())
		}
	}
	for _, op := range []Op{OpTreeRoot, OpTreeDiff} {
		if !op.Valid() {
			t.Fatalf("%s not valid", op)
		}
		if op.String()[:5] != "TREE_" {
			t.Fatalf("unexpected name %q", op.String())
		}
	}
}

func TestTreeRootRoundTrip(t *testing.T) {
	var root [TreeHashLen]byte
	for i := range root {
		root[i] = byte(i * 7)
	}
	for _, bits := range []int{1, 10, treeMaxBits} {
		p := AppendTreeRoot(nil, bits, root)
		gotBits, gotRoot, err := DecodeTreeRoot(p)
		if err != nil || gotBits != bits || gotRoot != root {
			t.Fatalf("tree root bits=%d: got %d err %v", bits, gotBits, err)
		}
	}
	if _, _, err := DecodeTreeRoot(AppendTreeRoot(nil, 0, root)); err == nil {
		t.Fatal("bits 0 accepted")
	}
	if _, _, err := DecodeTreeRoot(AppendTreeRoot(nil, treeMaxBits+1, root)); err == nil {
		t.Fatal("oversized bits accepted")
	}
	if _, _, err := DecodeTreeRoot(AppendTreeRoot(nil, 4, root)[:10]); err == nil {
		t.Fatal("truncated root accepted")
	}
	if _, _, err := DecodeTreeRoot(append(AppendTreeRoot(nil, 4, root), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestTreeDiffRoundTrip(t *testing.T) {
	ids := []uint32{1, 2, 3, 1 << 10, 2<<treeMaxBits - 1}
	hashes := make([][TreeHashLen]byte, len(ids))
	for i := range hashes {
		hashes[i][0] = byte(i + 1)
	}

	// Hash query (flags 0, no hashes).
	flags, gotIDs, gotHashes, err := DecodeTreeDiff(AppendTreeDiff(nil, 0, ids, nil))
	if err != nil || flags != 0 || len(gotHashes) != 0 {
		t.Fatalf("query: flags=%d hashes=%d err=%v", flags, len(gotHashes), err)
	}
	for i := range ids {
		if gotIDs[i] != ids[i] {
			t.Fatalf("query id %d: got %d want %d", i, gotIDs[i], ids[i])
		}
	}

	// Hash response.
	flags, gotIDs, gotHashes, err = DecodeTreeDiff(AppendTreeDiff(nil, TreeDiffHashes, ids, hashes))
	if err != nil || flags != TreeDiffHashes || len(gotIDs) != len(ids) || len(gotHashes) != len(ids) {
		t.Fatalf("response: flags=%d ids=%d hashes=%d err=%v", flags, len(gotIDs), len(gotHashes), err)
	}
	for i := range hashes {
		if gotHashes[i] != hashes[i] {
			t.Fatalf("hash %d mismatch", i)
		}
	}

	// Empty fetch is the legal "nothing diverged" terminal.
	flags, gotIDs, _, err = DecodeTreeDiff(AppendTreeDiff(nil, TreeDiffFetch, nil, nil))
	if err != nil || flags != TreeDiffFetch || len(gotIDs) != 0 {
		t.Fatalf("empty fetch: flags=%d ids=%d err=%v", flags, len(gotIDs), err)
	}

	if _, _, _, err := DecodeTreeDiff(nil); err == nil {
		t.Fatal("empty diff accepted")
	}
	if _, _, _, err := DecodeTreeDiff(AppendTreeDiff(nil, 1<<7, ids, nil)); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if _, _, _, err := DecodeTreeDiff(AppendTreeDiff(nil, 0, []uint32{0}, nil)); err == nil {
		t.Fatal("node id 0 accepted")
	}
	if _, _, _, err := DecodeTreeDiff(AppendTreeDiff(nil, 0, []uint32{2 << treeMaxBits}, nil)); err == nil {
		t.Fatal("out-of-range node id accepted")
	}
	short := AppendTreeDiff(nil, TreeDiffHashes, ids, hashes)
	if _, _, _, err := DecodeTreeDiff(short[:len(short)-1]); err == nil {
		t.Fatal("truncated hashes accepted")
	}
	if _, _, _, err := DecodeTreeDiff(append(AppendTreeDiff(nil, 0, ids, nil), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}
