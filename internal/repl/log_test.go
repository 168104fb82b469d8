package repl

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"hyperdb/internal/core"
)

func op(k, v string) core.BatchOp {
	return core.BatchOp{Key: []byte(k), Value: []byte(v)}
}

// collect drains n entries from a cursor with a timeout guard.
func collect(t *testing.T, c *Cursor, n int) []uint64 {
	t.Helper()
	stop := make(chan struct{})
	timer := time.AfterFunc(5*time.Second, func() { close(stop) })
	defer timer.Stop()
	var bases []uint64
	for i := 0; i < n; i++ {
		base, _, err := c.Next(stop)
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		bases = append(bases, base)
	}
	return bases
}

func TestLogShipsResolvedPrefixInBaseOrder(t *testing.T) {
	l := NewLog(LogConfig{})
	t1 := l.Append(1, []core.BatchOp{op("a", "1"), op("b", "1")}) // 1..2
	t2 := l.Append(3, []core.BatchOp{op("c", "1")})               // 3
	t3 := l.Append(4, []core.BatchOp{op("d", "1")})               // 4

	cur, ok := l.Subscribe(0)
	if !ok {
		t.Fatal("subscribe at 0 refused on empty-floor log")
	}

	// Resolve out of order: 3 commits first, then 1; nothing ships past the
	// pending entry 1 until it resolves.
	l.Commit(t2, true)
	stop := make(chan struct{})
	close(stop)
	if _, _, err := cur.Next(stop); !errors.Is(err, ErrStopped) {
		t.Fatalf("shipped past a pending entry: %v", err)
	}
	l.Commit(t1, true)
	if got := collect(t, cur, 2); got[0] != 1 || got[1] != 3 {
		t.Fatalf("bases %v, want [1 3]", got)
	}
	// Aborted entries never ship: after aborting 4, the cursor stays dry.
	l.Commit(t3, false)
	stop2 := make(chan struct{})
	close(stop2)
	if _, _, err := cur.Next(stop2); !errors.Is(err, ErrStopped) {
		t.Fatalf("aborted entry shipped: %v", err)
	}
	if l.Head() != 4 {
		t.Fatalf("head %d, want 4", l.Head())
	}
}

func TestLogTruncationFloorAndOverrun(t *testing.T) {
	l := NewLog(LogConfig{MaxEntries: 2})
	seq := uint64(1)
	appendN := func(n int) {
		for i := 0; i < n; i++ {
			tok := l.Append(seq, []core.BatchOp{op(fmt.Sprintf("k%d", seq), "v")})
			l.Commit(tok, true)
			seq++
		}
	}
	appendN(6)
	if l.Floor() != 4 {
		t.Fatalf("floor %d, want 4 (entries 1-4 truncated)", l.Floor())
	}
	// A follower below the floor must snapshot.
	if _, ok := l.Subscribe(3); ok {
		t.Fatal("subscribe below floor accepted")
	}
	// At or above the floor it can tail.
	cur, ok := l.Subscribe(4)
	if !ok {
		t.Fatal("subscribe at floor refused")
	}
	if got := collect(t, cur, 2); got[0] != 5 || got[1] != 6 {
		t.Fatalf("bases %v, want [5 6]", got)
	}
	// A slow cursor that falls off the window overruns.
	slow, ok := l.Subscribe(4)
	if !ok {
		t.Fatal("subscribe refused")
	}
	appendN(4)
	stop := make(chan struct{})
	close(stop)
	if _, _, err := slow.Next(stop); !errors.Is(err, ErrOverrun) {
		t.Fatalf("want ErrOverrun, got %v", err)
	}
	// A subscriber claiming a sequence above everything the log has ever
	// covered holds state from some other history: tailing would silently
	// skip it, so it must be refused into a snapshot instead.
	if _, ok := l.Subscribe(l.Head() + 1); ok {
		t.Fatal("subscribe above head accepted")
	}
	if _, ok := l.Subscribe(l.Head()); !ok {
		t.Fatal("subscribe at head refused")
	}
}

func TestLogEpochMintedAndRecovered(t *testing.T) {
	a, b := NewLog(LogConfig{}), NewLog(LogConfig{})
	if a.Epoch() == 0 || b.Epoch() == 0 {
		t.Fatal("zero epoch minted")
	}
	if a.Epoch() == b.Epoch() {
		t.Fatal("two fresh logs share an epoch")
	}
}

func TestLogSyncAckTimeoutEvictsDeadPeer(t *testing.T) {
	l := NewLog(LogConfig{SyncAck: true, AckTimeout: 50 * time.Millisecond})
	evicted := make(chan struct{})
	l.Register("dead", 0, func() { close(evicted) })

	tok := l.Append(1, []core.BatchOp{op("a", "1")})
	done := make(chan struct{})
	go func() { l.Commit(tok, true); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("commit never timed out on a peer that never acks")
	}
	select {
	case <-evicted:
	case <-time.After(time.Second):
		t.Fatal("laggard peer's evict hook never ran")
	}
	if st := l.Status(); len(st.Peers) != 0 {
		t.Fatalf("evicted peer still registered: %+v", st)
	}

	// With the laggard gone, later synchronous commits are unimpeded.
	tok = l.Append(2, []core.BatchOp{op("b", "1")})
	done = make(chan struct{})
	go func() { l.Commit(tok, true); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("commit blocked after eviction")
	}
}

func TestLogPinHoldsWindow(t *testing.T) {
	l := NewLog(LogConfig{MaxEntries: 2})
	for seq := uint64(1); seq <= 3; seq++ {
		l.Commit(l.Append(seq, []core.BatchOp{op(fmt.Sprintf("k%d", seq), "v")}), true)
	}
	pin := l.PinHead()
	if pin != 3 {
		t.Fatalf("pin %d, want 3", pin)
	}
	// With seq 3 pinned, entries above it must survive any overflow.
	for seq := uint64(4); seq <= 10; seq++ {
		l.Commit(l.Append(seq, []core.BatchOp{op(fmt.Sprintf("k%d", seq), "v")}), true)
	}
	cur, ok := l.Subscribe(pin)
	if !ok {
		t.Fatal("tail from pinned seq refused")
	}
	if got := collect(t, cur, 7); got[0] != 4 || got[6] != 10 {
		t.Fatalf("bases %v, want 4..10", got)
	}
	// Unpinning releases the window.
	l.Unpin(pin)
	if l.Floor() <= pin {
		t.Fatalf("floor %d did not advance past unpinned %d", l.Floor(), pin)
	}
}

func TestLogSyncAckWaits(t *testing.T) {
	l := NewLog(LogConfig{SyncAck: true})

	// No followers: commits return immediately.
	tok := l.Append(1, []core.BatchOp{op("a", "1")})
	done := make(chan struct{})
	go func() { l.Commit(tok, true); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("commit with no peers blocked")
	}

	p := l.Register("f1", 1, nil)
	tok = l.Append(2, []core.BatchOp{op("b", "1"), op("c", "1")}) // 2..3
	done = make(chan struct{})
	go func() { l.Commit(tok, true); close(done) }()
	select {
	case <-done:
		t.Fatal("sync commit returned before ack")
	case <-time.After(50 * time.Millisecond):
	}
	p.Ack(2) // partial: entry ends at 3
	select {
	case <-done:
		t.Fatal("sync commit returned on partial ack")
	case <-time.After(50 * time.Millisecond):
	}
	p.Ack(3)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("sync commit never returned after full ack")
	}

	// A follower that disconnects stops gating commits.
	tok = l.Append(4, []core.BatchOp{op("d", "1")})
	done = make(chan struct{})
	go func() { l.Commit(tok, true); close(done) }()
	select {
	case <-done:
		t.Fatal("sync commit returned before ack or disconnect")
	case <-time.After(50 * time.Millisecond):
	}
	l.Unregister(p)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("sync commit never returned after peer left")
	}

	st := l.Status()
	if len(st.Peers) != 0 || st.Head != 4 {
		t.Fatalf("status %+v", st)
	}
}

func TestLogStatusLag(t *testing.T) {
	l := NewLog(LogConfig{})
	p := l.Register("f1", 0, nil)
	for seq := uint64(1); seq <= 5; seq++ {
		l.Commit(l.Append(seq, []core.BatchOp{op(fmt.Sprintf("k%d", seq), "v")}), true)
	}
	st := l.Status()
	if len(st.Peers) != 1 || st.Peers[0].Lag != 5 {
		t.Fatalf("status %+v, want lag 5", st)
	}
	p.Ack(5)
	if st = l.Status(); st.Peers[0].Lag != 0 {
		t.Fatalf("lag %d after full ack", st.Peers[0].Lag)
	}
}
