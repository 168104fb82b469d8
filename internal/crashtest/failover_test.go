package crashtest

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"hyperdb/internal/core"
	"hyperdb/internal/device"
	"hyperdb/internal/repl"
)

// failoverCycle is the replication analogue of runCycle: a primary with an
// armed fault plan ships every committed batch to a live follower in
// synchronous-ack mode, the seeded workload runs until an injected fault
// kills the primary, and the follower is promoted in its place. Because an
// acknowledged write waited for the follower's ack and a failed batch is
// aborted before it ships, the promoted follower must hold EXACTLY the
// acknowledged state — no uncertainty window at all, which is a strictly
// stronger check than single-node recovery allows.
func failoverCycle(seed int64, trace []op, failNVMe, failSATA int64, torn bool) (violation string, crashed bool) {
	pnvme := device.New(device.UnthrottledProfile("p-nvme", 64<<10))
	psata := device.New(device.UnthrottledProfile("p-sata", 1<<20))
	fnvme := device.New(device.UnthrottledProfile("f-nvme", 64<<10))
	fsata := device.New(device.UnthrottledProfile("f-sata", 1<<20))

	rlog := repl.NewLog(repl.LogConfig{SyncAck: true})
	mkOpts := func(nv, sa *device.Device) core.Options {
		return core.Options{
			NVMeDevice:        nv,
			SATADevice:        sa,
			Partitions:        2,
			CacheBytes:        64 << 10,
			MigrationBatch:    8 << 10,
			MaxLevels:         3,
			DisableBackground: true,
		}
	}
	popts := mkOpts(pnvme, psata)
	popts.Tee = rlog
	pdb, err := core.Open(popts)
	if err != nil {
		return fmt.Sprintf("open primary: %v", err), false
	}
	fopts := mkOpts(fnvme, fsata)
	fopts.Follower = true
	fdb, err := core.Open(fopts)
	if err != nil {
		return fmt.Sprintf("open follower: %v", err), false
	}
	defer fdb.Close()

	pc, fc := net.Pipe()
	stop := make(chan struct{})
	fdone := make(chan error, 1)
	go (&repl.Primary{DB: pdb, Log: rlog}).Serve(pc)
	go func() { fdone <- (&repl.Follower{DB: fdb}).Run(fc, stop) }()
	deadline := time.Now().Add(10 * time.Second)
	for len(rlog.Status().Peers) == 0 {
		if time.Now().After(deadline) {
			return "follower never registered", false
		}
		time.Sleep(time.Millisecond)
	}

	// Only the primary's devices are armed: the scenario is a primary
	// dying mid-load, not a correlated double failure.
	pnvme.InjectFaults(device.FaultPlan{Seed: seed, FailWriteAfter: failNVMe, TornWrites: torn})
	psata.InjectFaults(device.FaultPlan{Seed: seed + 1, FailWriteAfter: failSATA, TornWrites: torn})

	m := model{}
	step := func() error {
		for pid := 0; pid < pdb.Partitions(); pid++ {
			if err := pdb.MigrationStep(pid); err != nil {
				return err
			}
			if _, err := pdb.CompactionStep(pid); err != nil {
				return err
			}
		}
		return nil
	}
	for i, o := range trace {
		switch o.kind {
		case opPut:
			if err := pdb.Put([]byte(o.key), []byte(o.value)); err != nil {
				// Unacked and aborted: the batch never shipped, so the
				// follower keeps the previous acknowledged state — the model
				// is deliberately NOT updated.
				crashed = true
			} else {
				s := m.at(o.key)
				s.present, s.cur = true, o.value
			}
		case opDelete:
			if err := pdb.Delete([]byte(o.key)); err != nil {
				crashed = true
			} else {
				m.at(o.key).present = false
			}
		case opGet:
			v, err := pdb.Get([]byte(o.key))
			s := m.at(o.key)
			switch {
			case err == nil:
				if !s.present || s.cur != string(v) {
					return fmt.Sprintf("live get op %d: %s returned %dB, model present=%v", i, o.key, len(v), s.present), crashed
				}
			case errors.Is(err, core.ErrNotFound):
				if s.present {
					return fmt.Sprintf("live get op %d: %s missing, model has %dB", i, o.key, len(s.cur)), crashed
				}
			default:
				crashed = true
			}
		case opIncr:
			s := m.at(o.key)
			base, ok := s.counterBase()
			if !ok {
				return fmt.Sprintf("trace bug: incr target %s holds a non-counter model value", o.key), crashed
			}
			want := core.SatAdd(base, o.delta)
			v, err := pdb.Incr([]byte(o.key), o.delta)
			if err != nil {
				// Unacked and aborted before shipping: like a failed put, the
				// follower keeps the previous acknowledged counter exactly.
				crashed = true
			} else {
				if v != want {
					return fmt.Sprintf("live incr op %d: %s = %d, model %d", i, o.key, v, want), crashed
				}
				s.present, s.cur = true, string(core.EncodeCounter(want))
			}
		case opStep:
			if err := step(); err != nil {
				crashed = true
			}
		}
		if crashed {
			break
		}
	}

	// The primary is dead: power-cut its devices and abandon the instance
	// (no shutdown, no recovery — failover replaces it). Stop the applier
	// and promote the follower.
	pnvme.PowerCut()
	psata.PowerCut()
	close(stop)
	if err := <-fdone; err != nil {
		return fmt.Sprintf("follower applier: %v", err), crashed
	}
	fdb.Promote()
	if fdb.IsFollower() {
		return "promote did not take effect", crashed
	}

	// Point reads: exact agreement with the acknowledged model.
	for k, s := range m {
		v, err := fdb.Get([]byte(k))
		if err != nil && !errors.Is(err, core.ErrNotFound) {
			return fmt.Sprintf("promoted get %s: %v", k, err), crashed
		}
		present := err == nil
		if present != s.present || (present && string(v) != s.cur) {
			return fmt.Sprintf("promoted get %s: present=%v val=%q, acked present=%v val=%q",
				k, present, trunc(string(v)), s.present, trunc(s.cur)), crashed
		}
	}

	// Scan: strict order, exact model agreement, no resurrected keys.
	kvs, err := fdb.Scan(nil, len(m)+16)
	if err != nil {
		return fmt.Sprintf("promoted scan: %v", err), crashed
	}
	seen := make(map[string]string, len(kvs))
	prev := ""
	for _, kv := range kvs {
		k := string(kv.Key)
		if prev != "" && k <= prev {
			return fmt.Sprintf("promoted scan order violation: %q after %q", k, prev), crashed
		}
		prev = k
		seen[k] = string(kv.Value)
	}
	for k, s := range m {
		v, ok := seen[k]
		if ok != s.present || (ok && v != s.cur) {
			return fmt.Sprintf("promoted scan key %s: present=%v val=%q, acked present=%v val=%q",
				k, ok, trunc(v), s.present, trunc(s.cur)), crashed
		}
	}
	for k := range seen {
		if _, known := m[k]; !known {
			return fmt.Sprintf("promoted scan resurrected never-acked key %q", k), crashed
		}
	}

	// Liveness: the promoted node serves writes, background work, and
	// exact reads on its own healthy devices.
	for k := range m {
		want := "post-failover-" + k
		if err := fdb.Put([]byte(k), []byte(want)); err != nil {
			return fmt.Sprintf("post-failover put %s: %v", k, err), crashed
		}
		v, err := fdb.Get([]byte(k))
		if err != nil || string(v) != want {
			return fmt.Sprintf("post-failover get %s = %q (%v), want %q", k, trunc(string(v)), err, want), crashed
		}
	}
	for pid := 0; pid < fdb.Partitions(); pid++ {
		if err := fdb.MigrationStep(pid); err != nil {
			return fmt.Sprintf("post-failover migration step: %v", err), crashed
		}
		if _, err := fdb.CompactionStep(pid); err != nil {
			return fmt.Sprintf("post-failover compaction step: %v", err), crashed
		}
	}
	return "", crashed
}

// TestFailoverPromotedFollowerHoldsAckedState kills a sync-ack primary
// mid-load under a seeded fault plan and promotes its follower: every
// acknowledged write must read back exactly and nothing unacknowledged may
// resurrect. Reproduce a failure from the printed seed.
func TestFailoverPromotedFollowerHoldsAckedState(t *testing.T) {
	const cycles = 24
	midCrash := 0
	for i := 0; i < cycles; i++ {
		seed := int64(5100 + 37*i)
		rng := rand.New(rand.NewSource(seed))
		trace := genTrace(rng, 48, 160)
		failNVMe := 1 + rng.Int63n(120)
		failSATA := 1 + rng.Int63n(60)
		v, crashed := failoverCycle(seed, trace, failNVMe, failSATA, i%2 == 0)
		if v != "" {
			t.Fatalf("cycle %d seed=%d failNVMe=%d failSATA=%d: %s", i, seed, failNVMe, failSATA, v)
		}
		if crashed {
			midCrash++
		}
	}
	if midCrash < cycles/4 {
		t.Fatalf("only %d/%d cycles crashed mid-load; fault plans are not firing", midCrash, cycles)
	}
	t.Logf("%d/%d cycles crashed mid-load", midCrash, cycles)
}

// TestFailoverMergeHeavyExactCounters kills a sync-ack primary mid
// merge-heavy load and promotes its follower: the promoted node's counters
// must equal the acked model EXACTLY. This is the end-to-end check that
// unresolved deltas ship through the replication log and resolve to the
// same values on the follower — a folded or reordered delta would surface
// here as a counter drift.
func TestFailoverMergeHeavyExactCounters(t *testing.T) {
	const cycles = 16
	midCrash := 0
	for i := 0; i < cycles; i++ {
		seed := int64(6300 + 53*i)
		rng := rand.New(rand.NewSource(seed))
		trace := genMergeTrace(rng, 24, 8, 160)
		failNVMe := 1 + rng.Int63n(120)
		failSATA := 1 + rng.Int63n(60)
		v, crashed := failoverCycle(seed, trace, failNVMe, failSATA, i%2 == 0)
		if v != "" {
			t.Fatalf("cycle %d seed=%d failNVMe=%d failSATA=%d: %s", i, seed, failNVMe, failSATA, v)
		}
		if crashed {
			midCrash++
		}
	}
	if midCrash < cycles/4 {
		t.Fatalf("only %d/%d cycles crashed mid-load; fault plans are not firing", midCrash, cycles)
	}
	t.Logf("%d/%d cycles crashed mid-load", midCrash, cycles)
}
