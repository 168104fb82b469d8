package wire

import (
	"encoding/binary"
	"fmt"
)

// Replication payloads. The stream is: follower sends REPL_HELLO as the
// first frame of its connection; the primary answers with a hello response
// choosing a mode from the follower's position alone: tail when its log
// still holds everything past lastApplied, otherwise a snapshot of the whole
// keyspace for a follower with no state, or the anti-entropy conversation
// (TREE_ROOT, then TREE_DIFF queries) that picks the key ranges to stream
// for one with state. REPL_SNAPSHOT and REPL_FRAME frames are then pushed
// primary→follower, while the follower reports progress with REPL_ACK
// frames flowing the other way on the same connection.

// ReplProtoVersion is the replication stream version carried in HELLO.
const ReplProtoVersion = 3

// Snapshot modes carried in the hello response.
const (
	ReplModeTail        = 0 // log retains everything past lastApplied: tail it
	ReplModeSnapshot    = 1 // fell off the window with no state: full snapshot, then tail
	ReplModeAntiEntropy = 2 // fell off the window with state: Merkle repair, then tail
)

// --- REPL_HELLO request: version | flags | epoch | lastApplied ---
//
// The flags byte is sent as 0 and ignored on receipt; it once advertised
// the anti-entropy capability, which every follower now has.

// AppendReplHelloReq encodes a follower's subscription request. epoch is
// the write-lineage identifier of the log the follower last replicated
// from (0 when it has never attached), and lastApplied is the highest
// sequence it has durably applied (0 for a fresh follower). A primary only
// grants tail mode when the epoch matches its own log's epoch or the
// follower holds no state at all.
func AppendReplHelloReq(dst []byte, epoch, lastApplied uint64) []byte {
	dst = append(dst, ReplProtoVersion, 0)
	dst = binary.AppendUvarint(dst, epoch)
	return binary.AppendUvarint(dst, lastApplied)
}

// DecodeReplHelloReq decodes a REPL_HELLO request payload.
func DecodeReplHelloReq(p []byte) (epoch, lastApplied uint64, err error) {
	if len(p) < 2 {
		return 0, 0, fmt.Errorf("%w: short hello", ErrBadPayload)
	}
	if p[0] != ReplProtoVersion {
		return 0, 0, fmt.Errorf("%w: repl proto version %d", ErrBadPayload, p[0])
	}
	epoch, rest, err := getUvarint(p[2:])
	if err != nil {
		return 0, 0, err
	}
	lastApplied, rest, err = getUvarint(rest)
	if err != nil {
		return 0, 0, err
	}
	if len(rest) != 0 {
		return 0, 0, fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, len(rest))
	}
	return epoch, lastApplied, nil
}

// --- REPL_HELLO response: mode | epoch | startSeq ---

// AppendReplHelloResp encodes the primary's answer. epoch is the primary
// log's write-lineage identifier; the follower records it and presents it
// on subsequent hellos. In tail mode startSeq is the follower's
// lastApplied echoed back (frames with base > startSeq follow); in
// snapshot mode it is the pinned snapshot sequence the streamed entries
// are tagged with, and tailing resumes past it.
func AppendReplHelloResp(dst []byte, mode uint8, epoch, startSeq uint64) []byte {
	dst = append(dst, mode)
	dst = binary.AppendUvarint(dst, epoch)
	return binary.AppendUvarint(dst, startSeq)
}

// DecodeReplHelloResp decodes a hello response payload.
func DecodeReplHelloResp(p []byte) (mode uint8, epoch, startSeq uint64, err error) {
	if len(p) == 0 {
		return 0, 0, 0, fmt.Errorf("%w: empty hello response", ErrBadPayload)
	}
	mode = p[0]
	if mode != ReplModeTail && mode != ReplModeSnapshot && mode != ReplModeAntiEntropy {
		return 0, 0, 0, fmt.Errorf("%w: repl mode %d", ErrBadPayload, mode)
	}
	epoch, rest, err := getUvarint(p[1:])
	if err != nil {
		return 0, 0, 0, err
	}
	startSeq, rest, err = getUvarint(rest)
	if err != nil {
		return 0, 0, 0, err
	}
	if len(rest) != 0 {
		return 0, 0, 0, fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, len(rest))
	}
	return mode, epoch, startSeq, nil
}

// --- REPL_FRAME push: base | count | per op: kind | klen | key | [vlen | value] ---
//
// One frame carries one committed batch; op i holds sequence base+i, so the
// frame is self-describing for apply-at-seq on the follower.

// AppendReplFrame encodes one shipped log entry.
func AppendReplFrame(dst []byte, base uint64, ops []BatchOp) []byte {
	dst = binary.AppendUvarint(dst, base)
	return AppendBatchReq(dst, ops)
}

// DecodeReplFrame decodes a REPL_FRAME payload; op slices alias p.
func DecodeReplFrame(p []byte) (base uint64, ops []BatchOp, err error) {
	base, rest, err := getUvarint(p)
	if err != nil {
		return 0, nil, err
	}
	if base == 0 {
		return 0, nil, fmt.Errorf("%w: repl frame base 0", ErrBadPayload)
	}
	ops, err = DecodeBatchReq(rest)
	if err != nil {
		return 0, nil, err
	}
	if len(ops) == 0 {
		return 0, nil, fmt.Errorf("%w: empty repl frame", ErrBadPayload)
	}
	return base, ops, nil
}

// --- REPL_ACK: appliedSeq ---

// AppendReplAck encodes a follower progress report.
func AppendReplAck(dst []byte, appliedSeq uint64) []byte {
	return binary.AppendUvarint(dst, appliedSeq)
}

// DecodeReplAck decodes a REPL_ACK payload.
func DecodeReplAck(p []byte) (appliedSeq uint64, err error) {
	appliedSeq, rest, err := getUvarint(p)
	if err != nil {
		return 0, err
	}
	if len(rest) != 0 {
		return 0, fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, len(rest))
	}
	return appliedSeq, nil
}

// --- REPL_SNAPSHOT push: done | seq | count | per pair: klen | key | vlen | value ---

// AppendReplSnapshot encodes one snapshot chunk. seq is the pinned snapshot
// sequence every streamed pair is applied at; done marks the final chunk
// (which may carry zero pairs).
func AppendReplSnapshot(dst []byte, seq uint64, kvs []KV, done bool) []byte {
	if done {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, seq)
	return AppendScanResp(dst, kvs)
}

// DecodeReplSnapshot decodes a snapshot chunk; pair slices alias p.
func DecodeReplSnapshot(p []byte) (seq uint64, kvs []KV, done bool, err error) {
	if len(p) == 0 {
		return 0, nil, false, fmt.Errorf("%w: empty snapshot chunk", ErrBadPayload)
	}
	switch p[0] {
	case 0:
	case 1:
		done = true
	default:
		return 0, nil, false, fmt.Errorf("%w: snapshot done byte %d", ErrBadPayload, p[0])
	}
	seq, rest, err := getUvarint(p[1:])
	if err != nil {
		return 0, nil, false, err
	}
	kvs, err = DecodeScanResp(rest)
	if err != nil {
		return 0, nil, false, err
	}
	if !done && len(kvs) == 0 {
		return 0, nil, false, fmt.Errorf("%w: empty non-final snapshot chunk", ErrBadPayload)
	}
	return seq, kvs, done, nil
}

// --- TREE_ROOT push: bits | 32-byte root hash ---

// TreeHashLen is the Merkle node digest size on the wire.
const TreeHashLen = 32

// treeMaxBits bounds the advertised tree geometry; mirrors merkle.MaxBits
// without importing it (asserted in repl's tests).
const treeMaxBits = 16

// treeMaxIDs bounds a TREE_DIFF id list at the full node count of a
// treeMaxBits-deep tree; anything larger is a corrupt or hostile frame.
const treeMaxIDs = 2 << treeMaxBits

// AppendTreeRoot encodes the anti-entropy opener: the primary tree's leaf
// exponent and root digest.
func AppendTreeRoot(dst []byte, bits int, root [TreeHashLen]byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(bits))
	return append(dst, root[:]...)
}

// DecodeTreeRoot decodes a TREE_ROOT payload.
func DecodeTreeRoot(p []byte) (bits int, root [TreeHashLen]byte, err error) {
	b, rest, err := getUvarint(p)
	if err != nil {
		return 0, root, err
	}
	if b < 1 || b > treeMaxBits {
		return 0, root, fmt.Errorf("%w: tree bits %d", ErrBadPayload, b)
	}
	if len(rest) != TreeHashLen {
		return 0, root, fmt.Errorf("%w: tree root %d bytes", ErrBadPayload, len(rest))
	}
	copy(root[:], rest)
	return int(b), root, nil
}

// --- TREE_DIFF: flags | count | ids... | [count × 32-byte hashes] ---
//
// The follower walks the primary's tree with hash queries (flags 0: "send
// me these nodes' hashes"); the primary answers with TreeDiffHashes set and
// the digests appended. The walk ends with a TreeDiffFetch request naming
// the divergent leaf ids, which the primary answers with REPL_SNAPSHOT
// chunks restricted to those leaf ranges, adjacent leaves streamed as one
// range.

// TREE_DIFF flags.
const (
	// TreeDiffFetch asks the primary to stream the listed leaves' ranges.
	TreeDiffFetch = 1 << 0
	// TreeDiffHashes marks a response carrying one digest per id.
	TreeDiffHashes = 1 << 1
)

// AppendTreeDiff encodes a TREE_DIFF payload. hashes must be nil unless
// flags has TreeDiffHashes, in which case len(hashes) == len(ids).
func AppendTreeDiff(dst []byte, flags uint8, ids []uint32, hashes [][TreeHashLen]byte) []byte {
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	for _, id := range ids {
		dst = binary.AppendUvarint(dst, uint64(id))
	}
	for _, h := range hashes {
		dst = append(dst, h[:]...)
	}
	return dst
}

// DecodeTreeDiff decodes a TREE_DIFF payload.
func DecodeTreeDiff(p []byte) (flags uint8, ids []uint32, hashes [][TreeHashLen]byte, err error) {
	if len(p) == 0 {
		return 0, nil, nil, fmt.Errorf("%w: empty tree diff", ErrBadPayload)
	}
	flags = p[0]
	if flags&^uint8(TreeDiffFetch|TreeDiffHashes) != 0 {
		return 0, nil, nil, fmt.Errorf("%w: tree diff flags %#x", ErrBadPayload, flags)
	}
	count, rest, err := getUvarint(p[1:])
	if err != nil {
		return 0, nil, nil, err
	}
	// count 0 is legal: an empty TreeDiffFetch means "nothing diverged".
	if count > treeMaxIDs {
		return 0, nil, nil, fmt.Errorf("%w: tree diff count %d", ErrBadPayload, count)
	}
	ids = make([]uint32, count)
	for i := range ids {
		var id uint64
		id, rest, err = getUvarint(rest)
		if err != nil {
			return 0, nil, nil, err
		}
		if id < 1 || id >= 2<<treeMaxBits {
			return 0, nil, nil, fmt.Errorf("%w: tree node id %d", ErrBadPayload, id)
		}
		ids[i] = uint32(id)
	}
	if flags&TreeDiffHashes != 0 {
		if len(rest) != int(count)*TreeHashLen {
			return 0, nil, nil, fmt.Errorf("%w: tree diff hashes %d bytes for %d ids", ErrBadPayload, len(rest), count)
		}
		hashes = make([][TreeHashLen]byte, count)
		for i := range hashes {
			copy(hashes[i][:], rest[i*TreeHashLen:])
		}
		rest = rest[count*TreeHashLen:]
	}
	if len(rest) != 0 {
		return 0, nil, nil, fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, len(rest))
	}
	return flags, ids, hashes, nil
}
