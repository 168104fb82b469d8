package core

import (
	"time"
)

// Session-consistency support: follower reads gated on replication
// progress.
//
// The readable sequence is the highest replication position whose writes
// are fully visible to readers. On a primary every committed write is
// readable the moment WriteBatch returns, so the readable sequence is
// simply the allocation counter. On a follower it advances only after an
// ApplyReplicated entry (or the terminal snapshot-bootstrap stamp) has
// fully applied — never mid-apply — so a reader holding the apply lock in
// shared mode cannot observe state newer than the token it samples.
//
// The serving layer gates a session read carrying minSeq on
// WaitReadable(minSeq, ...) and answers it with the token from the
// matching *Session read, which the client folds into its session state:
// read-your-writes because a session's writes return their committed
// sequence, monotonic reads because the token only grows.

// ReadableSeq returns the highest sequence whose effects are visible to
// readers on this node: the allocation counter on a primary, the fully
// applied replication position on a follower.
func (db *DB) ReadableSeq() uint64 {
	if db.follower.Load() {
		return db.readSeq.Load()
	}
	return db.seq.Load()
}

// advanceReadSeq lifts the readable position to at least s and wakes every
// WaitReadable waiter when it advanced.
func (db *DB) advanceReadSeq(s uint64) {
	for {
		cur := db.readSeq.Load()
		if cur >= s {
			return
		}
		if db.readSeq.CompareAndSwap(cur, s) {
			break
		}
	}
	db.readMu.Lock()
	ch := db.readCh
	db.readCh = make(chan struct{})
	db.readMu.Unlock()
	close(ch)
}

// WaitReadable blocks until the readable position reaches min, the timeout
// elapses, or abort closes, and reports whether the position was reached.
// Promotion is also observed: a follower promoted mid-wait re-evaluates
// against its (now authoritative) allocation counter on the next advance or
// timeout tick. Callers that must not block (a server connection's reader)
// park a goroutine on this instead.
func (db *DB) WaitReadable(min uint64, timeout time.Duration, abort <-chan struct{}) bool {
	if db.ReadableSeq() >= min {
		return true
	}
	if timeout <= 0 {
		return false
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		db.readMu.Lock()
		ch := db.readCh
		db.readMu.Unlock()
		// Re-check under a fresh channel: an advance between the first
		// check and the subscription would otherwise be missed.
		if db.ReadableSeq() >= min {
			return true
		}
		select {
		case <-ch:
		case <-deadline.C:
			return db.ReadableSeq() >= min
		case <-abort:
			return db.ReadableSeq() >= min
		}
	}
}

// MultiGetSession is MultiGet plus the session token: the node's readable
// sequence, sampled such that no observed state can be newer than the token.
func (db *DB) MultiGetSession(keyList [][]byte) (vals [][]byte, appliedSeq uint64, err error) {
	db.applyRW.RLock()
	defer db.applyRW.RUnlock()
	vals, err = db.MultiGet(keyList)
	return vals, db.ReadableSeq(), err
}

// ScanSession is Scan plus the session token.
func (db *DB) ScanSession(start []byte, limit int) (kvs []KV, appliedSeq uint64, err error) {
	db.applyRW.RLock()
	defer db.applyRW.RUnlock()
	kvs, err = db.Scan(start, limit)
	return kvs, db.ReadableSeq(), err
}
