package wire

import (
	"encoding/binary"
	"fmt"
)

// Cluster payloads: the versioned shard map and the handoff admin/stream
// messages.
//
// A shard map assigns every consistent-hash slot to one primary group.
// Clients fetch it with OpShardMap, cache it, and route each key directly
// to the owning node; a node that receives a keyed op for a slot it does
// not own answers StatusWrongShard with its current map as the payload, so
// one stale round trip both refreshes the client and redirects the op.

const (
	// MaxShardGroups bounds the group table a map may declare.
	MaxShardGroups = 1024
	// MaxShardSlots bounds the slot table a map may declare.
	MaxShardSlots = 16384
	// MaxShardAddrLen bounds one group address string.
	MaxShardAddrLen = 256
)

// ShardMap is the cluster routing table: Slots[i] is the index into Groups
// of the primary group owning slot i. Version is bumped on every ownership
// change; clients keep the highest version they have seen.
type ShardMap struct {
	Version uint64
	Groups  []string // primary address per group
	Slots   []uint32 // owning group index per slot
}

// ValidateShardMap checks the structural invariants every decoded or
// installed map must hold.
func ValidateShardMap(m *ShardMap) error {
	if m.Version == 0 {
		return fmt.Errorf("%w: shard map version 0", ErrBadPayload)
	}
	if len(m.Groups) == 0 || len(m.Groups) > MaxShardGroups {
		return fmt.Errorf("%w: shard map with %d groups", ErrBadPayload, len(m.Groups))
	}
	if len(m.Slots) == 0 || len(m.Slots) > MaxShardSlots {
		return fmt.Errorf("%w: shard map with %d slots", ErrBadPayload, len(m.Slots))
	}
	for _, a := range m.Groups {
		if len(a) == 0 || len(a) > MaxShardAddrLen {
			return fmt.Errorf("%w: shard map address length %d", ErrBadPayload, len(a))
		}
	}
	for s, g := range m.Slots {
		if int(g) >= len(m.Groups) {
			return fmt.Errorf("%w: slot %d owned by group %d of %d", ErrBadPayload, s, g, len(m.Groups))
		}
	}
	return nil
}

// --- SHARDMAP payload: version | ngroups | per group: alen | addr |
//     nslots | per slot: uvarint owner ---

// AppendShardMap encodes a shard map. It assumes m passes ValidateShardMap.
func AppendShardMap(dst []byte, m *ShardMap) []byte {
	dst = binary.AppendUvarint(dst, m.Version)
	dst = binary.AppendUvarint(dst, uint64(len(m.Groups)))
	for _, a := range m.Groups {
		dst = appendBytes(dst, []byte(a))
	}
	dst = binary.AppendUvarint(dst, uint64(len(m.Slots)))
	for _, g := range m.Slots {
		dst = binary.AppendUvarint(dst, uint64(g))
	}
	return dst
}

// DecodeShardMap decodes and validates a shard map payload. The returned
// map does not alias p.
func DecodeShardMap(p []byte) (*ShardMap, error) {
	var m ShardMap
	var err error
	m.Version, p, err = getUvarint(p)
	if err != nil {
		return nil, err
	}
	if m.Version == 0 {
		return nil, fmt.Errorf("%w: shard map version 0", ErrBadPayload)
	}
	ngroups, p, err := getUvarint(p)
	if err != nil {
		return nil, err
	}
	if ngroups == 0 || ngroups > MaxShardGroups {
		return nil, fmt.Errorf("%w: shard map with %d groups", ErrBadPayload, ngroups)
	}
	m.Groups = make([]string, 0, ngroups)
	for i := uint64(0); i < ngroups; i++ {
		var a []byte
		a, p, err = getBytes(p, MaxShardAddrLen)
		if err != nil {
			return nil, err
		}
		if len(a) == 0 {
			return nil, fmt.Errorf("%w: empty shard map address", ErrBadPayload)
		}
		m.Groups = append(m.Groups, string(a))
	}
	nslots, p, err := getUvarint(p)
	if err != nil {
		return nil, err
	}
	if nslots == 0 || nslots > MaxShardSlots {
		return nil, fmt.Errorf("%w: shard map with %d slots", ErrBadPayload, nslots)
	}
	m.Slots = make([]uint32, 0, nslots)
	for i := uint64(0); i < nslots; i++ {
		var g uint64
		g, p, err = getUvarint(p)
		if err != nil {
			return nil, err
		}
		if g >= ngroups {
			return nil, fmt.Errorf("%w: slot %d owned by group %d of %d", ErrBadPayload, i, g, ngroups)
		}
		m.Slots = append(m.Slots, uint32(g))
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, len(p))
	}
	return &m, nil
}

// --- HANDOFF request: count | per slot: uvarint slot ---
//
// The admin trigger, sent to the *target* node, which pulls the named slots
// from their current owner. The success response carries the new shard map
// (AppendShardMap) after the flip.

// AppendHandoffReq encodes a HANDOFF admin request.
func AppendHandoffReq(dst []byte, slots []uint32) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(slots)))
	for _, s := range slots {
		dst = binary.AppendUvarint(dst, uint64(s))
	}
	return dst
}

// DecodeHandoffReq decodes a HANDOFF admin request.
func DecodeHandoffReq(p []byte) ([]uint32, error) {
	count, rest, err := getUvarint(p)
	if err != nil {
		return nil, err
	}
	if count == 0 || count > MaxShardSlots {
		return nil, fmt.Errorf("%w: handoff of %d slots", ErrBadPayload, count)
	}
	slots := make([]uint32, 0, count)
	for i := uint64(0); i < count; i++ {
		var s uint64
		s, rest, err = getUvarint(rest)
		if err != nil {
			return nil, err
		}
		if s >= MaxShardSlots {
			return nil, fmt.Errorf("%w: handoff slot %d", ErrBadPayload, s)
		}
		slots = append(slots, uint32(s))
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, len(rest))
	}
	return slots, nil
}

// --- HANDOFF_HELLO request: targetGroup | count | per slot: uvarint slot ---
//
// First frame on a handoff stream, target→source. targetGroup is the
// map index the slots will flip to. The response is:
//
//	mapVersion | snapSeq
//
// where mapVersion is the source's current map version (the flip will
// install mapVersion+1) and snapSeq the pinned sequence the snapshot
// chunks that follow are consistent at.

// AppendHandoffHelloReq encodes a HANDOFF_HELLO request.
func AppendHandoffHelloReq(dst []byte, targetGroup uint32, slots []uint32) []byte {
	dst = binary.AppendUvarint(dst, uint64(targetGroup))
	return AppendHandoffReq(dst, slots)
}

// DecodeHandoffHelloReq decodes a HANDOFF_HELLO request.
func DecodeHandoffHelloReq(p []byte) (targetGroup uint32, slots []uint32, err error) {
	g, rest, err := getUvarint(p)
	if err != nil {
		return 0, nil, err
	}
	if g >= MaxShardGroups {
		return 0, nil, fmt.Errorf("%w: handoff target group %d", ErrBadPayload, g)
	}
	slots, err = DecodeHandoffReq(rest)
	if err != nil {
		return 0, nil, err
	}
	return uint32(g), slots, nil
}

// AppendHandoffHelloResp encodes a HANDOFF_HELLO success response.
func AppendHandoffHelloResp(dst []byte, mapVersion, snapSeq uint64) []byte {
	dst = binary.AppendUvarint(dst, mapVersion)
	return binary.AppendUvarint(dst, snapSeq)
}

// DecodeHandoffHelloResp decodes a HANDOFF_HELLO success response.
func DecodeHandoffHelloResp(p []byte) (mapVersion, snapSeq uint64, err error) {
	mapVersion, rest, err := getUvarint(p)
	if err != nil {
		return 0, 0, err
	}
	snapSeq, rest, err = getUvarint(rest)
	if err != nil {
		return 0, 0, err
	}
	if len(rest) != 0 {
		return 0, 0, fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, len(rest))
	}
	return mapVersion, snapSeq, nil
}

// --- HANDOFF_FLIP ---
//
// Sent target→source on the handoff stream once the target has applied the
// full snapshot; an empty request body. The source keeps shipping tail
// frames, flips ownership, and answers with the *new* shard map
// (AppendShardMap) — written after the final tail frame, so by stream
// order the target holds every pre-flip write when the response arrives.
// Tail frames are BATCH pushes (AppendBatchReq) of the slot-filtered ops of
// one log entry, the frame ID carrying the entry's base sequence.
