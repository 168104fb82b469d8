// Command hyperd serves a HyperDB instance over TCP with the wire
// protocol. Pipelined client writes coalesce into engine WriteBatch calls
// and point reads into MultiGet — the server turns network concurrency
// into the batch hot path's group commits.
//
// The storage devices are simulated (as everywhere in this repository), so
// a hyperd's data lives for the life of the process: it is a serving
// harness for the engine, not a persistence daemon.
//
//	hyperd -addr :4980 -partitions 8 -nvme 268435456 -sata 8589934592
//
// Replication: -role=primary ships a sequence-tagged op log to followers
// that attach with REPL_HELLO; -role=follower dials -upstream, applies the
// stream (bootstrapping via snapshot when it has fallen off the retained
// window), rejects foreground writes, and re-ships its own log so further
// replicas can chain off it. SIGHUP promotes a follower to primary: the
// applier stops and the node starts accepting writes.
//
//	hyperd -addr :4980 -role primary -repl-sync
//	hyperd -addr :4981 -role follower -upstream 127.0.0.1:4980
//
// Followers serve session reads: a read carrying a session token is
// answered once the node has applied that position, waiting up to
// -read-wait before refusing with NOT_READY so the client retries on the
// primary. See hyperctl's -policy flag and DESIGN.md §follower reads.
//
// SIGINT/SIGTERM trigger the graceful sequence: stop accepting, drain
// in-flight requests, flush responses, DrainBackground, Close. Exit code 0
// means every acknowledged write reached the engine before exit.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"hyperdb"
	"hyperdb/internal/client"
	"hyperdb/internal/repl"
	"hyperdb/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:4980", "TCP listen address")
		partitions  = flag.Int("partitions", 8, "shared-nothing partition count")
		nvme        = flag.Int64("nvme", 256<<20, "NVMe (performance tier) capacity bytes")
		sata        = flag.Int64("sata", 8<<30, "SATA (capacity tier) capacity bytes")
		cacheBytes  = flag.Int64("cache", 64<<20, "DRAM page-cache budget bytes")
		unthrottled = flag.Bool("unthrottled", false, "zero-latency devices (testing)")
		maxConns    = flag.Int("max-conns", 256, "max concurrent connections")
		maxInflight = flag.Int("max-inflight", 128, "per-connection pipelining window")
		maxScan     = flag.Int("max-scan", 4096, "cap on per-request scan limits")
		quiet       = flag.Bool("quiet", false, "suppress connection logging")
		role        = flag.String("role", "", "replication role: empty (standalone), primary, or follower")
		upstream    = flag.String("upstream", "", "primary address to replicate from (follower role)")
		replSync    = flag.Bool("repl-sync", false, "writes wait for every attached follower's ack")
		replEntries = flag.Int("repl-log-entries", 0, "retained replication log entries (0 = default)")
		replAckWait = flag.Duration("repl-ack-timeout", 0, "synchronous-ack wait before evicting a stalled follower (0 = default, negative = forever)")
		antiEntropy = flag.Bool("anti-entropy", false, "maintain a Merkle tree so diverged replicas rejoin via O(divergence) range repair")
		compressArg = flag.String("compress", "", "capacity-tier block codec: off (default) or on/lz; the NVMe zone tier always stays raw")
		compressMin = flag.Int("compress-min-level", 0, "shallowest LSM level the codec applies to (0 = default 1)")
		readWait    = flag.Duration("read-wait", 0, "max wait for a session read's token before NOT_READY (0 = default)")
		connRate    = flag.Float64("conn-rate", 0, "per-connection request rate limit in ops/sec (0 = unlimited)")
		connBurst   = flag.Int("conn-burst", 0, "per-connection rate-limit burst (0 = max(1, conn-rate))")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "hyperd: unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}
	switch *role {
	case "", "primary", "follower":
	default:
		fmt.Fprintf(os.Stderr, "hyperd: -role must be primary or follower, got %q\n", *role)
		os.Exit(2)
	}
	if *role == "follower" && *upstream == "" {
		fmt.Fprintln(os.Stderr, "hyperd: -role follower requires -upstream")
		os.Exit(2)
	}

	opts := hyperdb.Options{
		Partitions:       *partitions,
		NVMeCapacity:     *nvme,
		SATACapacity:     *sata,
		CacheBytes:       *cacheBytes,
		Unthrottled:      *unthrottled,
		Follower:         *role == "follower",
		Compress:         *compressArg,
		CompressMinLevel: *compressMin,
		AntiEntropy:      *antiEntropy,
	}
	// Any replicating role ships a log: a primary feeds its followers, and
	// a follower re-ships what it applies so replicas can chain — and so it
	// has a live log the moment it is promoted.
	var rlog *repl.Log
	if *role != "" {
		rlog = repl.NewLog(repl.LogConfig{MaxEntries: *replEntries, SyncAck: *replSync, AckTimeout: *replAckWait})
		opts.Tee = rlog
	}
	db, err := hyperdb.Open(opts)
	if err != nil {
		log.Fatalf("hyperd: open engine: %v", err)
	}

	logf := log.Printf
	if *quiet {
		logf = nil
	}
	cfg := server.Config{
		DB:           db,
		OwnDB:        true, // Shutdown drains background work and closes the DB
		MaxConns:     *maxConns,
		MaxInflight:  *maxInflight,
		MaxScanLimit: *maxScan,
		ReadWait:     *readWait,
		ConnRate:     *connRate,
		ConnBurst:    *connBurst,
		Logf:         logf,
	}
	// A follower serves session reads under the lineage it applies from —
	// the upstream's epoch — not its own chaining log's epoch, which names
	// the lineage it would ship after a promotion. The promotion itself
	// flips IsFollower, switching the node to its own epoch.
	var fol *repl.Follower
	if *role == "follower" {
		fol = &repl.Follower{DB: db, Log: rlog, Tree: db.MerkleTree()}
	}
	if rlog != nil {
		cfg.Repl = &repl.Primary{DB: db, Log: rlog, Tree: db.MerkleTree()}
		cfg.Epoch = func() uint64 {
			if fol != nil && db.IsFollower() {
				return fol.Epoch()
			}
			return rlog.Epoch()
		}
	}
	srv, err := server.New(cfg)
	if err != nil {
		db.Close()
		log.Fatalf("hyperd: %v", err)
	}

	bound, err := srv.Listen(*addr)
	if err != nil {
		db.Close()
		log.Fatalf("hyperd: listen: %v", err)
	}
	roleDesc := "standalone"
	if *role != "" {
		roleDesc = *role
	}
	log.Printf("hyperd: serving on %s as %s (%d partitions, NVMe %d MiB, SATA %d MiB)",
		bound, roleDesc, *partitions, *nvme>>20, *sata>>20)

	// The follower applier: dial the upstream, attach, apply the stream;
	// redial with capped backoff when the upstream goes away.
	applierStop := make(chan struct{})
	applierDone := make(chan struct{})
	var stopApplier = func() {}
	if *role == "follower" {
		go runApplier(fol, *upstream, applierStop, applierDone)
		var once sync.Once
		stopApplier = func() {
			once.Do(func() {
				close(applierStop)
				<-applierDone
			})
		}
	}

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	var sig os.Signal
	for {
		sig = <-sigCh
		if sig != syscall.SIGHUP {
			break
		}
		if !db.IsFollower() {
			log.Printf("hyperd: SIGHUP ignored (not a follower)")
			continue
		}
		stopApplier()
		db.Promote()
		log.Printf("hyperd: promoted to primary (applier stopped, accepting writes)")
	}
	log.Printf("hyperd: %s received, draining...", sig)
	stopApplier()
	// A second signal while draining force-exits; the deferred Close race
	// this used to create is why DB.Close is concurrency-safe.
	go func() {
		s := <-sigCh
		log.Printf("hyperd: %s received again, forcing exit", s)
		db.Close()
		os.Exit(1)
	}()

	t0 := time.Now()
	if err := srv.Shutdown(); err != nil {
		log.Printf("hyperd: shutdown: %v", err)
		os.Exit(1)
	}
	st := srv.Stats()
	log.Printf("hyperd: drained in %v (%d conns served, %d write batches, mean %0.2f ops/batch)",
		time.Since(t0).Round(time.Millisecond), st.ConnsAccepted.Load(),
		st.WriteBatches.Load(), st.MeanWriteBatch())
}

// runApplier keeps a follower attached to its upstream: dial, REPL_HELLO at
// the node's applied sequence, apply the stream until it breaks, then redial
// with capped exponential backoff. Each reattach resumes from CommitSeq, so
// a follower that fell off the retained window during an outage bootstraps
// again via snapshot automatically.
func runApplier(fol *repl.Follower, upstream string, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	var bo client.Backoff
	wait := func() bool {
		select {
		case <-stop:
			return false
		case <-time.After(bo.Next()):
			return true
		}
	}
	for {
		select {
		case <-stop:
			return
		default:
		}
		nc, err := net.DialTimeout("tcp", upstream, 5*time.Second)
		if err != nil {
			log.Printf("hyperd: dial upstream %s: %v", upstream, err)
			if !wait() {
				return
			}
			continue
		}
		bo.Reset()
		log.Printf("hyperd: attached to upstream %s at seq %d", upstream, fol.DB.CommitSeq())
		if err := fol.Run(nc, stop); err != nil {
			log.Printf("hyperd: replication stream: %v", err)
		}
		select {
		case <-stop:
			return
		default:
		}
		if !wait() {
			return
		}
	}
}
