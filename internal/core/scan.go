package core

import (
	"bytes"
	"errors"

	"hyperdb/internal/device"
	"hyperdb/internal/engine"
	"hyperdb/internal/keys"
	"hyperdb/internal/slot"
	"hyperdb/internal/zone"
)

// kindOf maps a tombstone flag to the internal-key kind.
func kindOf(tombstone bool) keys.Kind {
	if tombstone {
		return keys.KindDelete
	}
	return keys.KindSet
}

// KV is one scan result.
type KV = engine.KV

// Scan returns up to limit live key-value pairs with key >= start, in key
// order, merging the performance and capacity tiers. Per §4.2 the zone tier
// is consulted by sequential point lookups over its ordered index while the
// LSM side streams blocks.
func (db *DB) Scan(start []byte, limit int) ([]KV, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	if limit <= 0 {
		return nil, nil
	}
	out := make([]KV, 0, limit)
	// Partitions are key-ranged, so visiting them in order preserves the
	// global order.
	startPart := db.partFor(start)
	for pi := startPart.id; pi < len(db.parts) && len(out) < limit; pi++ {
		p := db.parts[pi]
		lo := start
		if pi != startPart.id {
			lo = nil
		}
		kvs, err := db.scanPartition(p, lo, limit-len(out))
		if err != nil {
			return nil, err
		}
		out = append(out, kvs...)
	}
	return out, nil
}

// scanPartition merges one partition's two tiers from lo upward.
//
// Sources are consulted in the direction data moves — zone tier, then the
// tree (which goes on L1 → Lmax) — so a demotion racing the scan cannot hide
// a key: one that left the zone index before the refs were taken was durable
// in the tree before the tree iterator was opened. The zone tier is read in
// chunks of index refs, and every chunk repeats that order: refs first, then
// a tree iterator opened at the chunk's start, which costs a block per level
// and not one per table. A ref whose slot was freed in the meantime falls
// back to a point lookup. A slot page is read at most once (memo), into a
// buffer a later scan reuses.
func (db *DB) scanPartition(p *partition, lo []byte, limit int) ([]KV, error) {
	type zref struct {
		key []byte // the index walk's own copy
		loc zone.Location
	}
	memo := make(slot.Pages)
	defer memo.Release() // readZone hands out copies, never views into its pages
	// readZone returns the live value behind a zone ref, if there is one.
	readZone := func(r zref) (v []byte, ok bool, err error) {
		if r.loc.Tombstone {
			return nil, false, nil
		}
		v, err = p.zones.ReadAt(r.key, r.loc, device.Fg, memo)
		if errors.Is(err, zone.ErrMoved) {
			v, ok, _, err = p.lookup(r.key)
			return v, ok, err
		}
		return v, err == nil, err
	}

	out := make([]KV, 0, limit)
	zrefs := make([]zref, 0, limit)
	for from := lo; ; from = keys.Successor(zrefs[len(zrefs)-1].key) {
		want := limit - len(out)
		zrefs = zrefs[:0]
		p.zones.Scan(from, nil, func(k []byte, loc zone.Location) bool {
			zrefs = append(zrefs, zref{key: k, loc: loc})
			return len(zrefs) < want
		})
		// A full chunk means the zone tier may hold more keys behind it:
		// tree keys past the chunk's last ref wait for the next chunk.
		more := len(zrefs) == want
		ti := p.tree.NewScanIter(from, device.Fg)
		zi := 0
		for len(out) < limit && (zi < len(zrefs) || (!more && ti.Valid())) {
			c := 1 // which tier holds the smaller key: <0 zone, 0 both, >0 tree
			if zi < len(zrefs) {
				c = -1
				if ti.Valid() {
					c = bytes.Compare(zrefs[zi].key, ti.Key())
				}
			}
			if c > 0 {
				out = append(out, KV{Key: bytes.Clone(ti.Key()), Value: bytes.Clone(ti.Value())})
				ti.Next()
				continue
			}
			// The zone tier is authoritative for the keys it holds: the
			// newest version, or a tombstone shadowing the tree's.
			v, ok, err := readZone(zrefs[zi])
			if err != nil {
				ti.Close()
				return nil, err
			}
			if ok {
				out = append(out, KV{Key: zrefs[zi].key, Value: v})
			}
			zi++
			if c == 0 {
				ti.Next()
			}
		}
		err := ti.Err()
		ti.Close()
		if err != nil {
			return nil, err
		}
		if !more || len(out) == limit {
			return out, nil
		}
	}
}
