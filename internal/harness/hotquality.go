package harness

import (
	"fmt"
	"io"
	"sort"

	"hyperdb/internal/core"
	"hyperdb/internal/ycsb"
)

// HotQuality measures promotion quality of the hotness discriminator on a
// skewed-Zipf YCSB-A run: the deterministic client streams are replayed
// offline to tally every key's true access count, the top 1% of accessed
// keys form the ground-truth hot set, and the tracker's classification over
// the whole keyspace is scored against it (recall = share of truly-hot keys
// classified hot; precision = share of classified keys that are truly hot).
// The background traffic the promotion decisions cause and the tracker's
// memory cost ride along.
func HotQuality(s Scale, progress io.Writer) (*Table, error) {
	t := &Table{ID: "HotQ", Caption: "Hotness discriminator promotion quality on zipfian YCSB-A (top-1% ground truth)"}
	const seed = 42
	wl := ycsb.WorkloadA
	// One client, and background workers off (below): the engine sees one
	// fixed operation sequence, so the row is exactly reproducible.
	// Multi-client interleaving would reshuffle stall-driven migrations by
	// ±50% run to run.
	s.Clients = 1

	// Replay the exact generator streams Run will use and tally true access
	// counts. Workload A never inserts, so the key population is stable.
	truth := make(map[string]int64, s.Records)
	perClient := s.Ops / int64(s.Clients)
	if perClient == 0 {
		perClient = 1
	}
	for id := int64(0); id < int64(s.Clients); id++ {
		gen := ycsb.NewGenerator(wl, s.Records, s.ValueSize, seed*1000+id)
		gen.SetInsertStride(id, int64(s.Clients))
		for i := int64(0); i < perClient; i++ {
			truth[string(gen.Next().Key)]++
		}
	}
	type kc struct {
		key string
		n   int64
	}
	ranked := make([]kc, 0, len(truth))
	for k, n := range truth {
		ranked = append(ranked, kc{k, n})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].n != ranked[j].n {
			return ranked[i].n > ranked[j].n
		}
		return ranked[i].key < ranked[j].key
	})
	topN := int(s.Records / 100)
	if topN < 1 {
		topN = 1
	}
	if topN > len(ranked) {
		topN = len(ranked)
	}
	top := make(map[string]bool, topN)
	for _, e := range ranked[:topN] {
		top[e.key] = true
	}

	cfg := s.config()
	// Async background workers make migration traffic depend on goroutine
	// scheduling (±2× run to run). With workers off, demotion happens
	// synchronously on write stalls and in the final drain — so the
	// traffic is attributable to the discriminator's promotion
	// decisions, not timing luck.
	cfg.DisableBackground = true
	inst, err := Build(KindHyperDB, cfg)
	if err != nil {
		return nil, err
	}
	defer inst.Engine.Close()
	if err := Load(inst.Engine, s.Records, s.ValueSize, s.Clients, 7); err != nil {
		return nil, err
	}
	nv0 := inst.NVMe.Counters().Snapshot()
	sa0 := inst.SATA.Counters().Snapshot()
	if _, err := Run(inst, RunConfig{
		Clients: s.Clients, Ops: s.Ops, Workload: wl,
		Records: s.Records, ValueSize: s.ValueSize, Seed: seed,
	}); err != nil {
		return nil, err
	}
	if err := inst.Engine.DrainBackground(); err != nil {
		return nil, err
	}
	nv := inst.NVMe.Counters().Snapshot().Sub(nv0)
	sa := inst.SATA.Counters().Snapshot().Sub(sa0)

	db := inst.Engine.(*core.DB)
	var hotCount, hit int
	for i := int64(0); i < s.Records; i++ {
		k := ycsb.Key(i)
		if db.IsHot(k) {
			hotCount++
			if top[string(k)] {
				hit++
			}
		}
	}
	recall := float64(hit) / float64(topN)
	precision := 0.0
	if hotCount > 0 {
		precision = float64(hit) / float64(hotCount)
	}
	var seals uint64
	var mem int64
	for _, ts := range db.Stats().Trackers {
		seals += ts.Seals
		mem += ts.MemoryBytes
	}
	t.Rows = append(t.Rows, Row{Label: "bloom", Cells: []Cell{
		{"recall", recall * 100, "%"},
		{"precision", precision * 100, "%"},
		{"hotKeys", float64(hotCount), ""},
		{"truthKeys", float64(topN), ""},
		{"bgTraffic", float64(nv.BgReadBytes+nv.BgWriteBytes+sa.BgReadBytes+sa.BgWriteBytes) / (1 << 20), "MiB"},
		{"sataWrite", float64(sa.WriteBytes) / (1 << 20), "MiB"},
		{"trackerMem", float64(mem) / (1 << 10), "KiB"},
		{"seals", float64(seals), ""},
	}})
	if progress != nil {
		fmt.Fprintln(progress, "hotq: done")
	}
	return t, nil
}
