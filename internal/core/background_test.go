package core

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"hyperdb/internal/device"
)

// TestWorkersRecordBackgroundErrors fails every capacity-tier write while
// the workers demote: the passes they abandon must be counted and the
// newest error kept, in Stats and in its rendering, and once the device
// heals the workers carry on and every acked key reads back.
func TestWorkersRecordBackgroundErrors(t *testing.T) {
	db := openCore(t, 3<<20, true)
	if st := db.Stats(); st.BackgroundErrors != 0 || st.LastBackgroundError != "" {
		t.Fatalf("fresh engine reports background errors: %+v", st)
	}
	db.opts.SATADevice.InjectFaults(device.FaultPlan{Seed: 1, WriteErrorProb: 1})
	rng := rand.New(rand.NewSource(11))
	var acked [][]byte
	for i := 0; i < 30000; i++ {
		k := k8(rng.Uint64())
		if err := db.Put(k, make([]byte, 128)); err != nil {
			break // the tier is full and the stalled put could not demote either
		}
		acked = append(acked, k)
	}
	// The injected fault is not the only error a wedged tier produces (a
	// full NVMe fails zone rebuilds too), so wait for it to be the newest.
	deadline := time.Now().Add(10 * time.Second)
	var st Stats
	for {
		st = db.Stats()
		if strings.Contains(st.LastBackgroundError, device.ErrInjected.Error()) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("workers on a failing device recorded %d errors, last %q", st.BackgroundErrors, st.LastBackgroundError)
		}
		time.Sleep(time.Millisecond)
	}
	if st.BackgroundErrors == 0 || !strings.HasPrefix(st.LastBackgroundError, "migration p") {
		t.Fatalf("errors=%d last=%q", st.BackgroundErrors, st.LastBackgroundError)
	}
	if s := st.String(); !strings.Contains(s, "background: errors=") || !strings.Contains(s, "injected") {
		t.Fatalf("stats rendering omits the background errors:\n%s", s)
	}

	db.opts.SATADevice.ClearFaults()
	if err := db.DrainBackground(); err == nil {
		t.Fatal("the drain after the device healed reported none of the workers' errors")
	}
	if err := db.DrainBackground(); err != nil {
		t.Fatalf("second drain after the device healed: %v", err)
	}
	if db.Stats().Zone.Migrations == 0 {
		t.Fatal("nothing migrated after the device healed")
	}
	for _, k := range acked {
		if _, err := db.Get(k); err != nil {
			t.Fatalf("acked key %x after background errors: %v", k, err)
		}
	}
}

// TestDrainReportsWorkerErrorOnce fails one capacity-tier write while the
// workers demote. The drain that follows returns that error, once: the next
// drain returns nil. The workers' passes are run here, one at a time, and
// noted in the engine's ledger as engine.Work notes them, so exactly one pass
// meets the failure: free-running workers could race a second pass into the
// full tier before the fault is cleared.
func TestDrainReportsWorkerErrorOnce(t *testing.T) {
	db := openCore(t, 3<<20, false)
	rng := rand.New(rand.NewSource(12))
	for db.opts.NVMeDevice.UsedFraction() < db.opts.HighWatermark {
		if err := db.Put(k8(rng.Uint64()), make([]byte, 128)); err != nil {
			t.Fatal(err)
		}
	}
	db.opts.SATADevice.InjectFaults(device.FaultPlan{FailWriteAfter: 1})
	failed := false
passes:
	for round := 0; round < 10; round++ {
		for _, p := range db.parts {
			for _, pass := range []func(*partition) (bool, error){db.migrationPass, db.compactionPass} {
				if _, err := pass(p); err != nil {
					db.errs.Note(err)
					failed = true
					break passes
				}
			}
		}
	}
	if !failed {
		t.Fatal("no worker pass met the injected write failure")
	}
	db.opts.SATADevice.ClearFaults()
	err := db.DrainBackground()
	if !errors.Is(err, device.ErrInjected) || !strings.Contains(err.Error(), "1 background errors") {
		t.Fatalf("first drain: %v, want the one injected write failure", err)
	}
	if err := db.DrainBackground(); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestPromotionOntoFullTierIsDropped drains a queued promotion while the
// performance tier has no free page. A promotion is only a copy of an object
// the capacity tier holds, so the pass must drop it, count the drop, and go
// on to the demotions that free space, not return ErrNoSpace.
func TestPromotionOntoFullTierIsDropped(t *testing.T) {
	db := openCore(t, 1<<20, false)
	ballast, err := db.opts.NVMeDevice.Create("ballast")
	if err != nil {
		t.Fatal(err)
	}
	for err == nil {
		_, err = ballast.Append(make([]byte, 4096))
	}
	if !errors.Is(err, device.ErrNoSpace) {
		t.Fatalf("filling the tier: %v", err)
	}
	db.enqueuePromotion(db.parts[0], k8(1), make([]byte, 128), db.parts[0].applied.Load())
	if err := db.MigrationStep(0); err != nil {
		t.Fatalf("migration step with a promotion queued on a full tier: %v", err)
	}
	if n := db.Stats().PromotionsDropped; n != 1 {
		t.Fatalf("PromotionsDropped = %d, want 1", n)
	}
	if zoneHas(db.parts[0], k8(1)) {
		t.Fatal("the dropped promotion is indexed in the performance tier")
	}
}

// TestPromotionCannotReviveAnOverwrittenValue: a hot read of a tree-resident
// key queues a promotion of its value; then a put overwrites the key, and a
// demotion moves the put's zone to the tree before the promotion drains. The
// zone tier no longer holds the key, so only the position the read saw can
// tell that the queued value is stale: the promotion is dropped, and the key
// reads as the put left it.
func TestPromotionCannotReviveAnOverwrittenValue(t *testing.T) {
	db := openCore(t, 64<<20, false)
	key := k8(42 << 40)
	p := db.partFor(key)
	demoteAll := func() {
		for z := p.zones.PickDemotionVictim(); z != nil; z = p.zones.PickDemotionVictim() {
			if err := db.demoteZone(p, z); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Put(key, []byte("old")); err != nil {
		t.Fatal(err)
	}
	demoteAll()
	// A read the tracker calls hot, answered by the tree.
	if v, found, err := db.read(p, key, true); err != nil || !found || string(v) != "old" {
		t.Fatalf("hot read = %q %v %v, want \"old\" from the tree", v, found, err)
	}
	if len(p.promoCh) != 1 {
		t.Fatal("the hot tree read queued no promotion")
	}
	if err := db.Put(key, []byte("new")); err != nil {
		t.Fatal(err)
	}
	demoteAll()
	if zoneHas(p, key) {
		t.Fatal("the put's zone was not demoted")
	}
	drops := p.promoDrop.Load()
	if err := db.MigrationStep(p.id); err != nil {
		t.Fatal(err)
	}
	if v, err := db.Get(key); err != nil || string(v) != "new" {
		t.Fatalf("after the promotion drained, Get = %q %v, want \"new\"", v, err)
	}
	if n := p.promoDrop.Load() - drops; n != 1 {
		t.Fatalf("%d promotions dropped, want the stale one", n)
	}
}
