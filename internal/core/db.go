package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"hyperdb/internal/cache"
	"hyperdb/internal/compress"
	"hyperdb/internal/device"
	"hyperdb/internal/engine"
	"hyperdb/internal/hotness"
	"hyperdb/internal/keys"
	"hyperdb/internal/lsm"
	"hyperdb/internal/merkle"
	"hyperdb/internal/zone"
)

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = errors.New("hyperdb: closed")

// ErrNotFound is returned by Get for missing or deleted keys.
var ErrNotFound = engine.ErrNotFound

var _ engine.Engine = (*DB)(nil)

// ErrFollower is returned by foreground writes on a DB opened in follower
// mode: replicas accept writes only through the replication apply path
// until Promote makes them primary.
var ErrFollower = errors.New("hyperdb: follower is read-only")

// promotion is one pending hot-object copy into the performance tier: the
// value a read found in the capacity tier, the sequence the copy is written
// at, and pos, the partition's applied position when the read began.
type promotion struct {
	key   []byte
	value []byte
	seq   uint64
	pos   uint64
}

// partition is one shared-nothing slice of the key space (§3.1): its own
// zone group, LSM tree, tracker and background workers.
type partition struct {
	id      int
	keyLo   uint64
	keyHi   uint64
	zones   *zone.Manager
	tree    *lsm.Tree
	tracker *hotness.Tracker

	// writeMu is held by every write to the partition from its sequence
	// draw to the end of its apply, so a key's writes apply in sequence
	// order and a merge's read-modify-write sees no write in between.
	writeMu sync.Mutex
	// applied is the sequence of the newest write applied to the partition,
	// stored under writeMu once the write is in the zone tier. Writes draw
	// their sequences under writeMu, so every write a read that loaded
	// applied first could not see carries a larger sequence.
	applied atomic.Uint64

	promoCh chan *promotion
	// promoSlots is the queue's free-slot semaphore: enqueuePromotion
	// reserves a slot *before* copying the object, so overflow drops cost
	// nothing, and a successful reservation guarantees the channel send
	// cannot block (slots never exceed the channel capacity).
	promoSlots atomic.Int64
	wakeMig    chan struct{}
	wakeComp   chan struct{}
	promoDrop  atomic.Uint64
}

// DB is the HyperDB engine.
type DB struct {
	opts  Options
	cache *cache.LRU
	parts []*partition
	seq   atomic.Uint64

	// promoPool recycles promotion buffers between enqueue and drain,
	// keeping steady-state promotions allocation-free on the read path.
	promoPool sync.Pool

	// follower marks replica mode (see Options.Follower); Promote clears it.
	follower atomic.Bool
	// replApplied is the replication apply position: the highest sequence
	// covered by an ApplyReplicated entry, reset by each snapshot bootstrap
	// to the snapshot sequence. ApplyReplicated rejects an entry whose base
	// does not advance past it, so a buggy or malicious upstream sending a
	// non-increasing base errors the stream instead of corrupting state (or
	// tripping the replication log's ordering panic via the re-tee path).
	replApplied atomic.Uint64
	// replMu orders sequence-block allocation and the replication tee's
	// Append so the shipped log is strictly base-ordered. Only taken when a
	// tee is installed — the unreplicated hot path stays lock-free.
	replMu sync.Mutex

	// Session-read support (see session.go). readSeq is the readable
	// position on a follower: the highest replication sequence whose apply
	// has fully completed. readCh is closed and replaced on each advance to
	// wake WaitReadable; applyRW excludes session reads from observing a
	// half-applied replicated entry (appliers hold it exclusively, session
	// reads share it). The foreground write path never touches applyRW, so
	// primaries pay nothing for it.
	readSeq atomic.Uint64
	readMu  sync.Mutex
	readCh  chan struct{}
	applyRW sync.RWMutex

	// mergeOps counts merge ops resolved through the batch path.
	mergeOps atomic.Uint64

	// errs notes the migration and compaction passes the workers abandoned
	// on an error (the next pass retries).
	errs engine.Errors

	// tree is the incremental Merkle tree over the keyspace, maintained
	// from every apply path when Options.AntiEntropy is set; nil otherwise.
	tree *merkle.Tree

	closed    atomic.Bool
	closeOnce sync.Once
	wg        sync.WaitGroup
	stop      chan struct{}
}

// Open assembles a DB over the two devices (built fresh when nil, see
// Options) and whatever they hold: nothing, or a previous instance's state
// after a crash or a clean Close. An unknown Compress codec fails it. The
// performance tier recovers KVell-style by scanning slot files and keeping
// the newest checksummed version per key; the capacity tier reopens its
// self-describing semi-SSTables; either creates what an empty device lacks.
// The hotness trackers start cold — access history is ephemeral by design
// (§3.3), so objects re-earn hot status.
func Open(opts Options) (*DB, error) {
	codec, err := compress.Parse(opts.Compress)
	if err != nil {
		return nil, err
	}
	opts.fill()
	db := &DB{
		opts:   opts,
		cache:  cache.NewLRU(opts.CacheBytes+opts.CacheBytes/4, nil),
		stop:   make(chan struct{}),
		readCh: make(chan struct{}),
	}
	db.follower.Store(opts.Follower)
	if opts.AntiEntropy {
		db.tree = merkle.New(merkle.DefaultBits)
	}

	p := uint64(opts.Partitions)
	width := math.MaxUint64/p + 1
	var metaDev *device.Device
	if !opts.DisableIndexMirror {
		metaDev = opts.NVMeDevice
	}
	hotCap := int64(float64(opts.NVMeDevice.Capacity()) / float64(p) * opts.HotZoneFraction)
	var maxSeq uint64
	for i := 0; i < opts.Partitions; i++ {
		lo := uint64(i) * width
		hi := lo + width
		if i == opts.Partitions-1 {
			hi = math.MaxUint64
		}
		zm, zseq, err := zone.Recover(zone.Config{
			Dev:         opts.NVMeDevice,
			Partition:   i,
			BatchSize:   opts.MigrationBatch,
			HotCapacity: hotCap,
			Cache:       db.cache,
		})
		if err != nil {
			return nil, fmt.Errorf("hyperdb: open partition %d zones: %w", i, err)
		}
		tree, tseq, err := lsm.Open(lsm.Options{
			Prefix:        fmt.Sprintf("p%d", i),
			Dev:           opts.SATADevice,
			KeyLo:         lo,
			KeyHi:         hi,
			Ratio:         opts.Ratio,
			L1Segments:    opts.L1Segments,
			FileSize:      opts.MigrationBatch, // §3.6: zone size == semi-SST size
			MaxLevels:     opts.MaxLevels,
			Depth:         opts.CompactionDepth,
			TClean:        opts.TClean,
			SpaceAmpLimit: opts.SpaceAmpLimit,
			PowerK:        opts.PowerK,
			PageCache:     db.cache,
			MetaBackup:    metaDev,
			Compress:      compress.Policy{Codec: codec, MinLevel: opts.CompressMinLevel},
			Seed:          uint64(i + 1),
		}, lsm.Segmented)
		if err != nil {
			return nil, fmt.Errorf("hyperdb: open partition %d tree: %w", i, err)
		}
		maxSeq = max(maxSeq, zseq, tseq)
		part := &partition{
			id:       i,
			keyLo:    lo,
			keyHi:    hi,
			zones:    zm,
			tree:     tree,
			tracker:  hotness.NewTracker(opts.Tracker),
			promoCh:  make(chan *promotion, promoteQueue),
			wakeMig:  make(chan struct{}, 1),
			wakeComp: make(chan struct{}, 1),
		}
		part.promoSlots.Store(int64(promoteQueue))
		db.parts = append(db.parts, part)
	}
	db.seq.Store(maxSeq)
	// A follower must not accept replicated entries at or below the
	// sequences its devices already hold; a snapshot bootstrap resets this
	// position explicitly. Everything found on the devices is fully applied,
	// so the readable position starts there too.
	db.replApplied.Store(maxSeq)
	db.readSeq.Store(maxSeq)
	for _, part := range db.parts {
		part.applied.Store(maxSeq)
	}
	if !opts.DisableBackground {
		for _, part := range db.parts {
			db.startWorkers(part)
		}
	}
	return db, nil
}

// Close stops the background workers and waits for them. It is idempotent
// and safe for concurrent callers: every caller — first or not — returns
// only after the workers have fully stopped, so a signal handler racing a
// deferred Close (the hyperd shutdown shape) cannot observe a half-closed
// engine.
func (db *DB) Close() error {
	db.closeOnce.Do(func() {
		db.closed.Store(true)
		close(db.stop)
		db.wg.Wait()
	})
	return nil
}

// partFor routes a key to its partition by key-range.
func (db *DB) partFor(key []byte) *partition {
	p := uint64(len(db.parts))
	if p == 1 {
		// MaxUint64/1+1 would wrap to zero width.
		return db.parts[0]
	}
	width := math.MaxUint64/p + 1
	i := zone.Key64(key) / width
	if i >= p {
		i = p - 1
	}
	return db.parts[i]
}

// IsHot classifies key against its partition's hotness discriminator
// without recording an access. Lock-free; experiments use it to audit
// promotion quality against known access distributions.
func (db *DB) IsHot(key []byte) bool {
	return db.partFor(key).tracker.IsHot(key)
}

// Put writes key=value. The write is durable in the performance tier when
// Put returns (in-place slot write, no WAL — §3.6). It is WriteBatch of one
// op; the op stays on the stack.
func (db *DB) Put(key, value []byte) error { return db.WriteBatch([]BatchOp{{Key: key, Value: value}}) }

// Delete removes key by writing a tombstone that later migrates down.
// Deleting an absent key is not an error. It is WriteBatch of one op.
func (db *DB) Delete(key []byte) error { return db.WriteBatch([]BatchOp{{Key: key, Delete: true}}) }

// putStalled demotes zones synchronously until the write succeeds. The
// device is shared, so when the writer's own partition has nothing left to
// demote, the best-scoring zone of any partition is demoted instead; hot
// zones are evicted as a last resort.
func (db *DB) putStalled(p *partition, retry func() error) error {
	for attempt := 0; attempt < 256; attempt++ {
		vp, z := p, p.zones.PickDemotionVictim()
		if z == nil {
			var best float64
			for _, cand := range db.parts {
				if cz := cand.zones.PickDemotionVictim(); cz != nil && (z == nil || cz.Score() > best) {
					vp, z, best = cand, cz, cz.Score()
				}
			}
		}
		if z == nil {
			// No key-range zones anywhere: evict the largest hot zone.
			var hp *partition
			for _, cand := range db.parts {
				if hp == nil || cand.zones.HotZoneBytes() > hp.zones.HotZoneBytes() {
					hp = cand
				}
			}
			if hp == nil || hp.zones.HotZoneBytes() == 0 {
				break
			}
			if err := hp.zones.EvictHotZone(hp.tracker.IsHot); err != nil {
				return err
			}
		} else if err := db.demoteZone(vp, z); err != nil {
			if errors.Is(err, device.ErrNoSpace) {
				continue // another stalled writer freed/consumed space; retry
			}
			return err
		}
		err := retry()
		if err == nil || !errors.Is(err, device.ErrNoSpace) {
			return err
		}
	}
	return retry()
}

// Get returns the value for key, or ErrNotFound. Hot objects found in the
// capacity tier are queued for promotion into the hot zone (§3.5).
func (db *DB) Get(key []byte) ([]byte, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	p := db.partFor(key)
	v, found, err := db.read(p, key, p.tracker.Record(key))
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, ErrNotFound
	}
	return v, nil
}

// read is the per-key read Get and MultiGet share, for a key whose access
// the caller has recorded: its newest live version, queued for promotion
// when the tracker called it hot and the capacity tier answered. The
// promotion carries the applied position loaded before the lookup, so it
// can tell a later write apart from one the read saw.
func (db *DB) read(p *partition, key []byte, hot bool) ([]byte, bool, error) {
	pos := p.applied.Load()
	v, found, fromTree, err := p.lookup(key)
	if found && hot && fromTree {
		db.enqueuePromotion(p, key, v, pos)
	}
	return v, found, err
}

// lookup reads key's newest live version: zone tier first, then the tree —
// the direction data moves, so a demotion racing the read cannot hide the
// key. fromTree reports which tier answered.
func (p *partition) lookup(key []byte) (v []byte, found, fromTree bool, err error) {
	v, _, tomb, found, err := p.zones.Get(key, device.Fg)
	if err != nil || found {
		return v, found && !tomb, false, err
	}
	v, kind, _, found, err := p.tree.Get(key, keys.MaxSeq, device.Fg)
	if err != nil || !found || kind == keys.KindDelete {
		return nil, false, false, err
	}
	return v, true, true, nil
}

// enqueuePromotion hands a hot capacity-tier object, read at applied
// position pos, to the partition's object cache for asynchronous promotion.
// Best-effort: overflow drops. The slot is reserved before the object is
// copied, so a drop costs two atomic ops and no allocation, and the buffers
// come from a pool so steady-state promotion enqueues allocate nothing.
func (db *DB) enqueuePromotion(p *partition, key, value []byte, pos uint64) {
	if db.follower.Load() {
		// A promotion mints a fresh local sequence; on a follower that could
		// collide with a sequence the primary has yet to ship, leaving two
		// different versions of a key tagged identically after a crash.
		// Replicas therefore serve capacity-tier hits without promoting.
		return
	}
	if p.promoSlots.Add(-1) < 0 {
		p.promoSlots.Add(1)
		p.promoDrop.Add(1)
		return
	}
	pr, _ := db.promoPool.Get().(*promotion)
	if pr == nil {
		pr = &promotion{}
	}
	pr.key = append(pr.key[:0], key...)
	pr.value = append(pr.value[:0], value...)
	pr.seq, pr.pos = db.seq.Add(1), pos
	// Cannot block: every send holds a reserved slot and the channel's
	// capacity equals the slot count.
	p.promoCh <- pr
	db.wake(p.wakeMig)
}

func (db *DB) wake(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// maybeTriggerMigration wakes the partition's migration worker when the
// performance tier crosses its high watermark.
func (db *DB) maybeTriggerMigration(p *partition) {
	if db.opts.NVMeDevice.UsedFraction() >= db.opts.HighWatermark || p.zones.HotZoneOver() {
		db.wake(p.wakeMig)
	}
}

// IsFollower reports whether the DB is currently in replica mode.
func (db *DB) IsFollower() bool { return db.follower.Load() }

// Promote flips a follower to primary: foreground writes are accepted and
// reads may promote again. The caller must have stopped the replication
// applier first — a replicated apply racing a promotion would interleave
// primary-minted and upstream sequences. Idempotent.
func (db *DB) Promote() { db.follower.Store(false) }

// CommitSeq returns the highest sequence the engine has issued (primary) or
// applied (follower). On a primary with a replication tee this is also the
// upper bound of the shipped log.
func (db *DB) CommitSeq() uint64 { return db.seq.Load() }

// Partitions returns the partition count (for harness introspection).
func (db *DB) Partitions() int { return len(db.parts) }

// MerkleTree returns the anti-entropy Merkle tree, nil unless
// Options.AntiEntropy was set.
func (db *DB) MerkleTree() *merkle.Tree { return db.tree }

// Options returns the resolved configuration.
func (db *DB) Options() Options { return db.opts }

// NVMe returns the performance-tier device (for harness inspection).
func (db *DB) NVMe() *device.Device { return db.opts.NVMeDevice }

// SATA returns the capacity-tier device (for harness inspection).
func (db *DB) SATA() *device.Device { return db.opts.SATADevice }

// Engine returns db. It dates from when the root package's DB wrapped this
// one; the benchmark under bench/ still calls it.
func (db *DB) Engine() *DB { return db }
