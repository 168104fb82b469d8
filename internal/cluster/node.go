package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Node is one server's view of the cluster: the current map, its own group
// index, and the set of slots it is mid-way through acquiring. The server's
// cycles consult it on every keyed op; the handoff drivers mutate it.
//
// Ownership answers are three-valued: a node owns a slot, is acquiring it
// (a handoff into this node is in flight — park the request briefly, the
// flip is imminent), or neither (bounce with WRONG_SHARD).
type Node struct {
	self uint32 // this node's group index

	cur atomic.Pointer[Map]

	mu        sync.Mutex
	acquiring map[uint32]bool
	change    chan struct{} // closed and remade on every acquiring-set change
}

// NewNode wires a node at group index self serving map m.
func NewNode(m *Map, self uint32) (*Node, error) {
	if int(self) >= len(m.Groups) {
		return nil, fmt.Errorf("cluster: self group %d of %d", self, len(m.Groups))
	}
	n := &Node{self: self, acquiring: make(map[uint32]bool), change: make(chan struct{})}
	n.cur.Store(m)
	return n, nil
}

// Self returns this node's group index.
func (n *Node) Self() uint32 { return n.self }

// Map returns the current map. The result is immutable.
func (n *Node) Map() *Map { return n.cur.Load() }

// Install adopts m if it is newer than the current map and returns whether
// it did. Handoff flips go through here: the swap is atomic, so a request
// checked after Install commits under the new ownership.
func (n *Node) Install(m *Map) bool {
	for {
		cur := n.cur.Load()
		if m.Version <= cur.Version {
			return false
		}
		if n.cur.CompareAndSwap(cur, m) {
			return true
		}
	}
}

// Owns reports whether this node owns the slot under the current map.
func (n *Node) Owns(slot uint32) bool {
	m := n.cur.Load()
	return int(slot) < len(m.Slots) && m.Slots[slot] == n.self
}

// Acquiring reports whether a handoff into this node covers slot, and
// returns a channel closed at the next acquiring-set change so callers can
// wait for the flip (or abort) instead of bouncing the client.
func (n *Node) Acquiring(slot uint32) (bool, <-chan struct{}) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.acquiring[slot], n.change
}

// BeginAcquire marks slots as being handed off into this node. It fails if
// any slot is already owned or already being acquired.
func (n *Node) BeginAcquire(slots []uint32) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	m := n.cur.Load()
	for _, s := range slots {
		if int(s) >= len(m.Slots) {
			return fmt.Errorf("cluster: slot %d of %d", s, len(m.Slots))
		}
		if m.Slots[s] == n.self {
			return fmt.Errorf("cluster: slot %d already owned", s)
		}
		if n.acquiring[s] {
			return fmt.Errorf("cluster: slot %d already being acquired", s)
		}
	}
	for _, s := range slots {
		n.acquiring[s] = true
	}
	n.bump()
	return nil
}

// FinishAcquire installs the post-flip map and clears the acquiring marks.
func (n *Node) FinishAcquire(slots []uint32, m *Map) {
	n.Install(m)
	n.mu.Lock()
	for _, s := range slots {
		delete(n.acquiring, s)
	}
	n.bump()
	n.mu.Unlock()
}

// AbortAcquire clears the acquiring marks after a failed handoff.
func (n *Node) AbortAcquire(slots []uint32) {
	n.mu.Lock()
	for _, s := range slots {
		delete(n.acquiring, s)
	}
	n.bump()
	n.mu.Unlock()
}

// bump wakes every Acquiring waiter. Callers hold n.mu.
func (n *Node) bump() {
	close(n.change)
	n.change = make(chan struct{})
}
