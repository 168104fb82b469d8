package wire

import (
	"bytes"
	"math"
	"testing"
)

// FuzzDecodeFrame feeds arbitrary bytes through the frame decoder and, when
// a frame survives the CRC, through every payload decoder. The contract:
// malformed input returns an error — no panics, and no allocation larger
// than the bounds-checked frame length (enforced here by capping the fuzz
// decoder at 1 MiB so an over-allocation would OOM the fuzz engine's
// malloc limit rather than pass silently).
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 16})
	f.Add(AppendFrame(nil, Frame{Op: OpPing, ID: 1}))
	f.Add(AppendFrame(nil, Frame{Op: OpPut, ID: 2, Payload: AppendPutReq(nil, []byte("k"), []byte("v"))}))
	f.Add(AppendFrame(nil, Frame{Op: OpBatch, ID: 3, Payload: AppendBatchReq(nil, []BatchOp{
		{Key: []byte("a"), Value: []byte("1")}, {Key: []byte("b"), Delete: true},
	})}))
	f.Add(AppendFrame(nil, Frame{Op: OpMGet, ID: 4, Payload: AppendMGetReq(nil, [][]byte{[]byte("x")})}))
	f.Add(AppendFrame(nil, Frame{Op: OpScan, ID: 5, Payload: AppendScanReq(nil, []byte("s"), 10)}))
	f.Add(AppendFrame(nil, Frame{Op: OpReplHello, ID: 7, Payload: AppendReplHelloReq(nil, 3, 12)}))
	// A hello with a non-zero flags byte, which the decoder ignores.
	flagged := AppendReplHelloReq(nil, 3, 12)
	flagged[1] = 1
	f.Add(AppendFrame(nil, Frame{Op: OpReplHello, ID: 7, Payload: flagged}))
	f.Add(AppendFrame(nil, Frame{Op: OpReplHello, Status: StatusOK, ID: 7, Payload: AppendReplHelloResp(nil, ReplModeSnapshot, 3, 12)}))
	f.Add(AppendFrame(nil, Frame{Op: OpReplFrame, ID: 8, Payload: AppendReplFrame(nil, 9, []BatchOp{
		{Key: []byte("r"), Value: []byte("1")}, {Key: []byte("s"), Delete: true},
	})}))
	f.Add(AppendFrame(nil, Frame{Op: OpReplAck, ID: 9, Payload: AppendReplAck(nil, 33)}))
	f.Add(AppendFrame(nil, Frame{Op: OpReplSnapshot, ID: 10, Payload: AppendReplSnapshot(nil, 5, []KV{
		{Key: []byte("k"), Value: []byte("v")},
	}, true)}))
	// Session frames: read requests gated on a (seq, epoch) token in the
	// header, responses stamped with the serving position, and the bare
	// positions of write responses and NOT_READY refusals.
	f.Add(AppendFrame(nil, Frame{Op: OpGet, ID: 11, Seq: 99, Epoch: 17, Payload: AppendKeyReq(nil, []byte("k"))}))
	f.Add(AppendFrame(nil, Frame{Op: OpGet, Status: StatusOK, ID: 11, Seq: 104, Epoch: 17, Payload: []byte("v")}))
	f.Add(AppendFrame(nil, Frame{Op: OpGet, Status: StatusNotReady, ID: 11, Seq: 52, Epoch: 17}))
	f.Add(AppendFrame(nil, Frame{Op: OpMGet, ID: 12, Seq: 7, Payload: AppendMGetReq(nil, [][]byte{[]byte("a"), []byte("b")})}))
	f.Add(AppendFrame(nil, Frame{Op: OpMGet, Status: StatusOK, ID: 12, Seq: 8, Epoch: 17, Payload: AppendMGetResp(nil, [][]byte{[]byte("1"), nil})}))
	f.Add(AppendFrame(nil, Frame{Op: OpScan, ID: 13, Seq: 3, Epoch: 17, Payload: AppendScanReq(nil, []byte("s"), 10)}))
	f.Add(AppendFrame(nil, Frame{Op: OpScan, Status: StatusOK, ID: 13, Seq: 20, Epoch: 17, Payload: AppendScanResp(nil, []KV{{Key: []byte("k"), Value: []byte("v")}})}))
	f.Add(AppendFrame(nil, Frame{Op: OpPut, ID: 14, Seq: 1, Epoch: 1, Payload: AppendPutReq(nil, []byte("k"), []byte("v"))}))
	f.Add(AppendFrame(nil, Frame{Op: OpPut, Status: StatusOK, ID: 14, Seq: 105, Epoch: 17}))
	f.Add(AppendFrame(nil, Frame{Op: OpBatch, Status: StatusOK, ID: 15, Seq: 1 << 63, Epoch: math.MaxUint64}))
	// A gated GET whose payload is a truncated varint (continuation bit set,
	// nothing follows), and a retired op byte behind a widest-possible token.
	f.Add(AppendFrame(nil, Frame{Op: OpGet, ID: 16, Seq: math.MaxUint64, Epoch: 1 << 63, Payload: []byte{0x80}}))
	f.Add(AppendFrame(nil, Frame{Op: opMax + 3, ID: 16, Seq: math.MaxUint64, Epoch: math.MaxUint64, Payload: AppendKeyReq(nil, []byte("k"))}))
	// Header token varints that are truncated (the continuation runs into
	// the CRC) or padded with a zero group, behind a valid checksum.
	f.Add(reframe([]byte{byte(OpGet), 0, 0, 0, 0, 0, 0, 0, 0, 16, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}))
	f.Add(reframe([]byte{byte(OpGet), 0, 0, 0, 0, 0, 0, 0, 0, 16, 0x80, 0x00, 0, 1, 'k', 0}))
	// Merge frames: INCR requests and responses (plain and stamped), merge
	// ops in batches and repl frames, plus malformed deltas.
	f.Add(AppendFrame(nil, Frame{Op: OpIncr, ID: 17, Payload: AppendIncrReq(nil, []byte("c"), -42)}))
	f.Add(AppendFrame(nil, Frame{Op: OpIncr, Status: StatusOK, ID: 17, Payload: AppendIncrResp(nil, 1<<62)}))
	f.Add(AppendFrame(nil, Frame{Op: OpIncr, ID: 18, Payload: AppendIncrReq(nil, []byte("c"), 9223372036854775807)}))
	f.Add(AppendFrame(nil, Frame{Op: OpIncr, Status: StatusOK, ID: 18, Seq: 7, Epoch: 17, Payload: AppendIncrResp(nil, -9223372036854775808)}))
	f.Add(AppendFrame(nil, Frame{Op: OpBatch, ID: 19, Payload: AppendBatchReq(nil, []BatchOp{
		{Key: []byte("c"), Merge: true, Delta: 5}, {Key: []byte("d"), Value: []byte("v")},
	})}))
	f.Add(AppendFrame(nil, Frame{Op: OpReplFrame, ID: 20, Payload: AppendReplFrame(nil, 11, []BatchOp{
		{Key: []byte("c"), Merge: true, Delta: -3},
	})}))
	// An INCR whose delta varint is truncated mid-continuation.
	f.Add(AppendFrame(nil, Frame{Op: OpIncr, ID: 21, Payload: []byte{1, 'c', 0xff, 0xff}}))
	// An 11-byte varint delta (overflows int64) inside a batch merge op.
	f.Add(AppendFrame(nil, Frame{Op: OpBatch, ID: 22, Payload: []byte{
		1, 2, 1, 'c', 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f,
	}}))
	// Anti-entropy frames: the TREE_ROOT opener, a hash query, a hash
	// response, the divergent-leaf fetch (and the legal empty fetch), plus a
	// hello response choosing anti-entropy mode.
	var treeRoot [TreeHashLen]byte
	treeRoot[0], treeRoot[31] = 0xaa, 0x55
	treeIDs := []uint32{2, 3, 1 << 10, 1<<11 - 1}
	treeHashes := make([][TreeHashLen]byte, len(treeIDs))
	for i := range treeHashes {
		treeHashes[i][0] = byte(i + 1)
	}
	f.Add(AppendFrame(nil, Frame{Op: OpTreeRoot, Status: StatusOK, ID: 31, Payload: AppendTreeRoot(nil, 10, treeRoot)}))
	f.Add(AppendFrame(nil, Frame{Op: OpTreeDiff, ID: 32, Payload: AppendTreeDiff(nil, 0, treeIDs, nil)}))
	f.Add(AppendFrame(nil, Frame{Op: OpTreeDiff, Status: StatusOK, ID: 32, Payload: AppendTreeDiff(nil, TreeDiffHashes, treeIDs, treeHashes)}))
	f.Add(AppendFrame(nil, Frame{Op: OpTreeDiff, ID: 33, Payload: AppendTreeDiff(nil, TreeDiffFetch, []uint32{1 << 10, 1<<10 + 7}, nil)}))
	f.Add(AppendFrame(nil, Frame{Op: OpTreeDiff, ID: 34, Payload: AppendTreeDiff(nil, TreeDiffFetch, nil, nil)}))
	f.Add(AppendFrame(nil, Frame{Op: OpReplHello, Status: StatusOK, ID: 35, Payload: AppendReplHelloResp(nil, ReplModeAntiEntropy, 3, 12)}))
	// A TREE_DIFF whose hash block is one byte short of count × 32.
	shortDiff := AppendTreeDiff(nil, TreeDiffHashes, treeIDs, treeHashes)
	f.Add(AppendFrame(nil, Frame{Op: OpTreeDiff, ID: 36, Payload: shortDiff[:len(shortDiff)-1]}))
	// Every op byte past opMax that once named an op: 16–20, freed when the
	// cluster ops (14–18) went and the anti-entropy ops moved down from
	// 19–20, then the v2 ops' 21–27.
	for op := opMax; op < opMax+12; op++ {
		f.Add(AppendFrame(nil, Frame{Op: op, ID: 37, Payload: AppendKeyReq(nil, []byte("k"))}))
	}
	// A valid frame with a corrupted interior byte.
	corrupt := AppendFrame(nil, Frame{Op: OpGet, ID: 6, Payload: AppendKeyReq(nil, []byte("kk"))})
	corrupt[len(corrupt)/2] ^= 0x5a
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		const maxFrame = 1 << 20
		fr, n, err := DecodeFrame(data, maxFrame)
		if err != nil {
			if n != 0 {
				t.Fatalf("error %v but consumed %d bytes", err, n)
			}
			return
		}
		if n < 4+minBody || n > len(data) {
			t.Fatalf("consumed %d of %d", n, len(data))
		}
		// A decoded frame must re-encode to the exact bytes consumed.
		re := AppendFrame(nil, fr)
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", re, data[:n])
		}
		// Payload decoders must not panic either; aliasing is fine here.
		switch fr.Op {
		case OpPut:
			DecodePutReq(fr.Payload)
		case OpGet, OpDel:
			DecodeKeyReq(fr.Payload)
		case OpBatch:
			DecodeBatchReq(fr.Payload)
		case OpMGet:
			DecodeMGetReq(fr.Payload)
			DecodeMGetResp(fr.Payload)
		case OpScan:
			DecodeScanReq(fr.Payload)
			DecodeScanResp(fr.Payload)
		case OpReplHello:
			DecodeReplHelloReq(fr.Payload)
			DecodeReplHelloResp(fr.Payload)
		case OpReplFrame:
			DecodeReplFrame(fr.Payload)
		case OpReplAck:
			DecodeReplAck(fr.Payload)
		case OpReplSnapshot:
			DecodeReplSnapshot(fr.Payload)
		case OpIncr:
			DecodeIncrReq(fr.Payload)
			DecodeIncrResp(fr.Payload)
		case OpTreeRoot:
			DecodeTreeRoot(fr.Payload)
		case OpTreeDiff:
			DecodeTreeDiff(fr.Payload)
		}
		// The stream reader must agree with the buffer decoder.
		sf, serr := ReadFrame(bytes.NewReader(data[:n]), maxFrame)
		if serr != nil {
			t.Fatalf("ReadFrame disagreed: %v", serr)
		}
		if sf.Op != fr.Op || sf.Status != fr.Status || sf.ID != fr.ID || sf.Seq != fr.Seq || sf.Epoch != fr.Epoch || !bytes.Equal(sf.Payload, fr.Payload) {
			t.Fatalf("ReadFrame mismatch: %+v vs %+v", sf, fr)
		}
	})
}
