// Package cluster implements HyperDB's shard layer: a versioned map from
// consistent-hash slots to primary groups, the per-node ownership state the
// server consults on every keyed op, and the helpers both sides of a slot
// handoff share.
//
// The unit of ownership is the slot: a key hashes (FNV-1a) to one of a
// fixed number of slots, and the map names the group serving each slot.
// Rebalancing moves slots, never individual keys, so a map stays a few
// hundred bytes regardless of dataset size. Clients cache the map and route
// directly — nodes never proxy; a mis-routed op is bounced with
// StatusWrongShard plus the server's (newer) map, which is simultaneously
// the redirect and the refresh.
package cluster

import (
	"fmt"
	"hash/fnv"

	"hyperdb/internal/wire"
)

// DefaultSlots is the slot count hyperd uses when none is configured. Small
// enough that the map encodes in well under a KiB, large enough to balance
// across any plausible group count.
const DefaultSlots = 128

// Map is an immutable shard map. Share it by pointer; never mutate one
// that has been installed or handed out — derive a successor with Clone.
type Map struct {
	wire.ShardMap
}

// New builds a version-1 map spreading slots round-robin over groups.
func New(slots int, groups []string) (*Map, error) {
	m := &Map{wire.ShardMap{
		Version: 1,
		Groups:  append([]string(nil), groups...),
		Slots:   make([]uint32, slots),
	}}
	for i := range m.Slots {
		m.Slots[i] = uint32(i % max(len(groups), 1))
	}
	if err := wire.ValidateShardMap(&m.ShardMap); err != nil {
		return nil, err
	}
	return m, nil
}

// Decode parses an encoded map; wire.DecodeShardMap checks every invariant
// ValidateShardMap does.
func Decode(p []byte) (*Map, error) {
	sm, err := wire.DecodeShardMap(p)
	if err != nil {
		return nil, err
	}
	return &Map{*sm}, nil
}

// Encode appends the wire form of m to dst.
func (m *Map) Encode(dst []byte) []byte { return wire.AppendShardMap(dst, &m.ShardMap) }

// SlotOf returns the slot a key hashes to.
func (m *Map) SlotOf(key []byte) uint32 {
	h := fnv.New64a()
	h.Write(key)
	return uint32(h.Sum64() % uint64(len(m.Slots)))
}

// OwnerGroup returns the group index owning a slot.
func (m *Map) OwnerGroup(slot uint32) uint32 { return m.Slots[slot] }

// Owner returns the address of the group owning key's slot.
func (m *Map) Owner(key []byte) string { return m.Groups[m.Slots[m.SlotOf(key)]] }

// GroupOf returns the index of addr in the group table, or -1.
func (m *Map) GroupOf(addr string) int {
	for i, a := range m.Groups {
		if a == addr {
			return i
		}
	}
	return -1
}

// SlotsOf returns the slots a group currently owns.
func (m *Map) SlotsOf(group uint32) []uint32 {
	var out []uint32
	for s, g := range m.Slots {
		if g == group {
			out = append(out, uint32(s))
		}
	}
	return out
}

// Clone returns a deep copy safe to mutate into a successor map.
func (m *Map) Clone() *Map {
	return &Map{wire.ShardMap{
		Version: m.Version,
		Groups:  append([]string(nil), m.Groups...),
		Slots:   append([]uint32(nil), m.Slots...),
	}}
}

// Reassign derives the successor map moving the given slots to group,
// bumping the version.
func (m *Map) Reassign(slots []uint32, group uint32) (*Map, error) {
	if int(group) >= len(m.Groups) {
		return nil, fmt.Errorf("cluster: group %d of %d", group, len(m.Groups))
	}
	next := m.Clone()
	next.Version++
	for _, s := range slots {
		if int(s) >= len(next.Slots) {
			return nil, fmt.Errorf("cluster: slot %d of %d", s, len(next.Slots))
		}
		next.Slots[s] = group
	}
	return next, nil
}
