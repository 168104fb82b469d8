package rocksish

import (
	"encoding/binary"
	"fmt"
	"sort"

	"hyperdb/internal/device"
	"hyperdb/internal/keys"
	"hyperdb/internal/lsm"
	"hyperdb/internal/skiplist"
	"hyperdb/internal/wal"
)

// replayWALs replays every surviving WAL generation (oldest first) into the
// memtable, ingests the records into L0, and only then deletes the old logs
// and opens the next generation — so a crash during recovery itself loses
// nothing: at worst the next open replays records whose sequence numbers
// already exist in the LSM, which is idempotent. It returns the largest
// sequence replayed.
func (db *DB) replayWALs() (uint64, error) {
	walDev := db.opts.walDevice()
	var gens []int
	for _, name := range walDev.List() {
		var gen int
		if _, err := fmt.Sscanf(name, "rocksish-wal-%d", &gen); err == nil {
			gens = append(gens, gen)
		}
	}
	sort.Ints(gens)
	var walSeq uint64
	for _, gen := range gens {
		w, err := wal.Open(walDev, fmt.Sprintf("rocksish-wal-%d", gen))
		if err != nil {
			return 0, err
		}
		err = w.Replay(func(p []byte) error {
			kind, seq, k, v, err := decodeRecord(p)
			if err != nil {
				return err
			}
			if seq > walSeq {
				walSeq = seq
			}
			db.mem.Insert(keys.InternalKey{User: k, Seq: seq, Kind: kind}, v)
			return nil
		})
		if err != nil {
			return 0, err
		}
	}

	// Make the replayed records durable in L0 before the logs go away.
	if db.mem.Len() > 0 {
		var entries []lsm.Entry
		it := db.mem.Iter()
		for it.First(); it.Valid(); it.Next() {
			entries = append(entries, lsm.Entry{Key: it.Key(), Value: it.Value()})
		}
		if err := db.lsm.Ingest(entries, device.Bg); err != nil {
			return 0, err
		}
		db.mem = skiplist.New()
	}

	if n := len(gens); n > 0 {
		db.walGen = gens[n-1] + 1
	}
	w, err := wal.Open(walDev, fmt.Sprintf("rocksish-wal-%d", db.walGen))
	if err != nil {
		return 0, err
	}
	db.memWAL = w
	for _, gen := range gens {
		walDev.Remove(fmt.Sprintf("rocksish-wal-%d", gen))
	}
	return walSeq, nil
}

// decodeRecord is the inverse of encodeRecord.
func decodeRecord(p []byte) (kind keys.Kind, seq uint64, key, value []byte, err error) {
	if len(p) < 17 {
		return 0, 0, nil, nil, fmt.Errorf("rocksish: short wal record (%d bytes)", len(p))
	}
	kind = keys.Kind(p[0])
	seq = binary.LittleEndian.Uint64(p[1:])
	kl := int(binary.LittleEndian.Uint32(p[9:]))
	vl := int(binary.LittleEndian.Uint32(p[13:]))
	if 17+kl+vl != len(p) {
		return 0, 0, nil, nil, fmt.Errorf("rocksish: wal record length mismatch (%d+%d+17 != %d)", kl, vl, len(p))
	}
	key = append([]byte(nil), p[17:17+kl]...)
	value = append([]byte(nil), p[17+kl:]...)
	return kind, seq, key, value, nil
}
