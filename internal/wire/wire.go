// Package wire implements hyperd's framed binary protocol.
//
// Every message — request or response — travels as one frame:
//
//	uint32   length   big-endian, bytes that follow (body), 16 ≤ length ≤ MaxFrame
//	uint8    op       request op code (echoed in responses)
//	uint8    status   0 in requests; a Status code in responses
//	uint64   id       big-endian request id, chosen by the client, echoed back
//	uvarint  seq      session token, sequence half (see Frame.Seq)
//	uvarint  epoch    session token, write-lineage half
//	[]byte   payload  op-specific encoding (see the Append*/Decode* pairs)
//	uint32   crc      big-endian CRC-32 (IEEE) over op..payload
//
// The (seq, epoch) pair is what makes a plain op and a session op the same
// op. In a request it is the reader's gate: "answer only once your applied
// replication position is ≥ seq, and only if your write lineage is epoch";
// 0,0 asks for nothing, and a node ignores the pair on ops that do not
// read. In a response it is the position the answer was served at — a
// write's committed sequence, a read's applied sequence, and on NOT_READY
// the position the node had reached — which clients fold into their session
// token for read-your-writes and monotonic reads. The epoch is the
// write-lineage identifier minted by the replication log (package repl). A
// request epoch of 0 makes no lineage claim and gates on the sequence alone,
// which is what a freshly seeded session sends; a non-zero request epoch
// that differs from the node's is answered NOT_READY, because sequences from
// different lineages are not comparable and clamping would hide a failover
// instead of surfacing it.
//
// Integers inside payloads are unsigned varints (encoding/binary); byte
// strings are varint-length-prefixed. The codec never panics on malformed
// input and never allocates more than the declared (and bounds-checked)
// frame length, so arbitrary bytes from the network are safe to feed in —
// see FuzzDecodeFrame.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Op identifies a request type.
type Op uint8

// Request op codes. Zero is reserved so an all-zero frame is invalid.
const (
	OpPing Op = iota + 1
	OpPut
	OpGet
	OpDel
	OpBatch
	OpMGet
	OpScan
	OpStats

	// Replication ops (primary↔follower log shipping, package repl).
	// OpReplHello opens a replication stream and must be the first frame on
	// its connection; OpReplFrame and OpReplSnapshot are server→follower
	// pushes; OpReplAck is the follower's applied-seq report.
	OpReplHello
	OpReplFrame
	OpReplAck
	OpReplSnapshot

	// OpIncr adds an int64 delta to a counter key and returns the post-merge
	// value. Deltas to the same key in one server cycle coalesce and commit
	// as a single net-delta write.
	OpIncr

	// Anti-entropy ops (Merkle-tree replica repair, package repl).
	// OpTreeRoot is the primary's opening push on an anti-entropy stream:
	// tree geometry plus root hash. OpTreeDiff flows both ways — the
	// follower queries node hashes (or requests leaf-range fetches) and the
	// primary answers with the hashes.
	OpTreeRoot
	OpTreeDiff

	opMax
)

// Valid reports whether o is a known op code.
func (o Op) Valid() bool { return o >= OpPing && o < opMax }

func (o Op) String() string {
	switch o {
	case OpPing:
		return "PING"
	case OpPut:
		return "PUT"
	case OpGet:
		return "GET"
	case OpDel:
		return "DEL"
	case OpBatch:
		return "BATCH"
	case OpMGet:
		return "MGET"
	case OpScan:
		return "SCAN"
	case OpStats:
		return "STATS"
	case OpReplHello:
		return "REPL_HELLO"
	case OpReplFrame:
		return "REPL_FRAME"
	case OpReplAck:
		return "REPL_ACK"
	case OpReplSnapshot:
		return "REPL_SNAPSHOT"
	case OpIncr:
		return "INCR"
	case OpTreeRoot:
		return "TREE_ROOT"
	case OpTreeDiff:
		return "TREE_DIFF"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Status is a response outcome code, carried in the frame's status byte.
type Status uint8

const (
	StatusOK Status = iota
	StatusNotFound
	StatusBadRequest   // payload decodes but the request is invalid
	StatusError        // engine error; payload is the message text
	StatusShuttingDown // server is shutting down and refused the request
	// StatusNotReady answers a read whose gate the node could not reach
	// within its bounded wait, or whose epoch names another lineage: the
	// client should retry on another node (typically falling back to the
	// primary). The frame's (seq, epoch) is the node's position at the time
	// of the refusal; the payload is empty.
	StatusNotReady
	// StatusRateLimited answers a request rejected by the connection's
	// admission token bucket before it reached a server cycle. The client may
	// retry after backing off; the payload is the message text.
	StatusRateLimited
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusNotFound:
		return "not found"
	case StatusBadRequest:
		return "bad request"
	case StatusError:
		return "error"
	case StatusShuttingDown:
		return "shutting down"
	case StatusNotReady:
		return "not ready"
	case StatusRateLimited:
		return "rate limited"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

const (
	// MaxFrame bounds the body length a peer may declare. Decoders reject
	// larger claims before allocating, so a hostile 4-byte prefix cannot
	// force a large allocation.
	MaxFrame = 16 << 20

	// minBody is op(1)+status(1)+id(8)+seq(1)+epoch(1)+crc(4): an empty
	// payload behind a zero token.
	minBody  = 16
	fixedLen = 10 // op+status+id, before the token varints
)

// Protocol errors. ErrTruncated means more bytes may complete the frame;
// every other decode error is terminal for the stream.
var (
	ErrTruncated     = errors.New("wire: truncated frame")
	ErrFrameTooLarge = errors.New("wire: frame exceeds max size")
	ErrFrameTooSmall = errors.New("wire: frame below minimum size")
	ErrBadCRC        = errors.New("wire: frame CRC mismatch")
	ErrBadPayload    = errors.New("wire: malformed payload")
)

// Frame is one decoded protocol frame. Payload aliases the bytes it was
// decoded from: the caller's buffer for DecodeFrame, a fresh allocation the
// caller owns for ReadFrame.
type Frame struct {
	Op     Op
	Status Status
	ID     uint64
	// Seq and Epoch are the session token: a request's gate, a response's
	// served-at position (see the package comment). Zero in frames that
	// carry neither.
	Seq     uint64
	Epoch   uint64
	Payload []byte
}

// BeginFrame appends the header of f to dst with the length left blank and
// f.Payload ignored; the caller appends the payload in place and closes the
// frame with FinishFrame, so a payload is encoded once, straight into the
// buffer that goes to the socket.
func BeginFrame(dst []byte, f Frame) []byte {
	dst = append(dst, 0, 0, 0, 0, byte(f.Op), byte(f.Status))
	dst = binary.BigEndian.AppendUint64(dst, f.ID)
	dst = binary.AppendUvarint(dst, f.Seq)
	return binary.AppendUvarint(dst, f.Epoch)
}

// FinishFrame closes the frame BeginFrame opened at dst[start:]: it patches
// the length and appends the CRC over everything after it.
func FinishFrame(dst []byte, start int) []byte {
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start))
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start+4:]))
}

// AppendFrame appends the encoded frame to dst and returns the result.
func AppendFrame(dst []byte, f Frame) []byte {
	start := len(dst)
	dst = BeginFrame(dst, f)
	dst = append(dst, f.Payload...)
	return FinishFrame(dst, start)
}

// checkLen validates a declared body length against the frame bounds.
func checkLen(body, maxFrame uint32) error {
	if maxFrame == 0 || maxFrame > MaxFrame {
		maxFrame = MaxFrame
	}
	if body < minBody {
		return ErrFrameTooSmall
	}
	if body > maxFrame {
		return ErrFrameTooLarge
	}
	return nil
}

// parseBody decodes a whole frame body (op through crc) of at least minBody
// bytes. The payload aliases b, its capacity ending where it does.
func parseBody(b []byte) (Frame, error) {
	end := len(b) - 4
	if crc32.ChecksumIEEE(b[:end]) != binary.BigEndian.Uint32(b[end:]) {
		return Frame{}, ErrBadCRC
	}
	f := Frame{Op: Op(b[0]), Status: Status(b[1]), ID: binary.BigEndian.Uint64(b[2:fixedLen])}
	rest := b[fixedLen:end:end]
	var err error
	if f.Seq, rest, err = getTokenUvarint(rest); err != nil {
		return Frame{}, err
	}
	if f.Epoch, rest, err = getTokenUvarint(rest); err != nil {
		return Frame{}, err
	}
	f.Payload = rest
	return f, nil
}

// getTokenUvarint consumes one header varint. Unlike the payload varints it
// must be minimally encoded (no trailing zero group), so that a frame has
// exactly one encoding and a decoded frame re-encodes to the bytes it came
// from.
func getTokenUvarint(p []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 || (n > 1 && p[n-1] == 0) {
		return 0, nil, fmt.Errorf("%w: frame token", ErrBadPayload)
	}
	return v, p[n:], nil
}

// DecodeFrame parses one frame from the start of buf, returning the frame
// and the number of bytes consumed. The returned payload aliases buf. It
// never panics and never allocates, whatever buf holds.
func DecodeFrame(buf []byte, maxFrame uint32) (Frame, int, error) {
	if len(buf) < 4 {
		return Frame{}, 0, ErrTruncated
	}
	body := binary.BigEndian.Uint32(buf)
	if err := checkLen(body, maxFrame); err != nil {
		return Frame{}, 0, err
	}
	total := 4 + int(body)
	if len(buf) < total {
		return Frame{}, 0, ErrTruncated
	}
	f, err := parseBody(buf[4:total])
	if err != nil {
		return Frame{}, 0, err
	}
	return f, total, nil
}

// ReadFrame reads exactly one frame from r. The allocation for the body is
// bounded by maxFrame (MaxFrame when zero). io.EOF is returned only on a
// clean boundary; a partial frame yields io.ErrUnexpectedEOF.
//
// Ownership: the payload is a fresh allocation owned by the caller. No later
// ReadFrame reuses it, so keys and values decoded out of it may be kept, or
// handed to another goroutine, without copying. Its capacity ends where the
// payload does, and every byte string the payload decoders return is capped
// the same way, so appending to one never writes into its neighbour.
func ReadFrame(r io.Reader, maxFrame uint32) (Frame, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return Frame{}, err // io.EOF on a clean frame boundary
	}
	body := binary.BigEndian.Uint32(lenBuf[:])
	if err := checkLen(body, maxFrame); err != nil {
		return Frame{}, err
	}
	b := make([]byte, body)
	if _, err := io.ReadFull(r, b); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	return parseBody(b)
}

// Buffered reports whether br already holds the whole next frame, so that
// ReadFrame(br, ...) returns it without reading from br's source. It never
// reads from the source itself.
func Buffered(br *bufio.Reader) bool {
	n := br.Buffered()
	if n < 4 {
		return false
	}
	hdr, _ := br.Peek(4)
	return n-4 >= int(binary.BigEndian.Uint32(hdr))
}

// WriteFrame encodes f and writes it to w in one call.
func WriteFrame(w io.Writer, f Frame) error {
	_, err := w.Write(AppendFrame(nil, f))
	return err
}
