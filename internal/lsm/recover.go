package lsm

import (
	"fmt"
	"sort"
	"strings"

	"hyperdb/internal/device"
	"hyperdb/internal/semisst"
)

// Recover rebuilds a capacity-tier tree from the semi-SSTables persisted on
// the device. Semi-SSTables are self-describing (footer → index block with
// block metadata, filters and checksums), and file names carry the
// (partition, level, segment, generation) coordinates, so no separate
// manifest is required.
//
// Crash artifacts are healed here: when a full compaction left two
// generations for the same (level, segment), the newest generation that
// actually opens wins — a new-generation file cut by power loss before its
// first sync is deleted and the previous generation restored. Superseded
// generations and orphaned index mirrors on the performance tier are removed.
// Returns the tree and the largest sequence seen.
func Recover(opts Options) (*Tree, uint64, error) {
	opts.fill()
	t := New(opts)
	prefix := fmt.Sprintf("p%d-L", opts.Partition)

	type coord struct {
		level, seg int
	}
	type candidate struct {
		name string
		gen  uint64
	}
	cands := make(map[coord][]candidate)
	for _, name := range opts.Dev.List() {
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".sst") {
			continue
		}
		var part, level, seg int
		var gen uint64
		if _, err := fmt.Sscanf(name, "p%d-L%d-S%d-G%d.sst", &part, &level, &seg, &gen); err != nil {
			continue
		}
		if level < 1 || level > opts.MaxLevels {
			return nil, 0, fmt.Errorf("lsm: recovered file %q at impossible level %d", name, level)
		}
		if gen > t.nextGen {
			t.nextGen = gen // never reuse a generation, even a discarded one
		}
		c := coord{level, seg}
		cands[c] = append(cands[c], candidate{name, gen})
	}

	coords := make([]coord, 0, len(cands))
	for c := range cands {
		coords = append(coords, c)
	}
	sort.Slice(coords, func(a, b int) bool {
		if coords[a].level != coords[b].level {
			return coords[a].level < coords[b].level
		}
		return coords[a].seg < coords[b].seg
	})

	var maxSeq uint64
	for _, c := range coords {
		list := cands[c]
		sort.Slice(list, func(a, b int) bool { return list[a].gen > list[b].gen })
		var metaDev *device.Device
		if c.level <= mirrorDepth {
			metaDev = opts.MetaBackup
		}
		opened := false
		for _, cand := range list {
			if opened {
				// Superseded generation left behind by a crash mid-swap.
				removeTableFile(opts, cand.name)
				continue
			}
			f, err := opts.Dev.Open(cand.name)
			if err != nil {
				return nil, 0, err
			}
			tbl, err := semisst.Open(f, t.tableOptions(c.level, metaDev), device.BgSeq)
			if err != nil {
				if device.IsIOError(err) {
					// The medium errored; the file may be perfectly good.
					// Deleting it here would turn a transient read fault
					// into data loss.
					return nil, 0, fmt.Errorf("lsm: recover %q: %w", cand.name, err)
				}
				// Crash artifact: a generation file cut before its first
				// sync has no valid footer. Drop it and fall back to the
				// previous generation.
				removeTableFile(opts, cand.name)
				continue
			}
			if s := tbl.MaxSeq(); s > maxSeq {
				maxSeq = s
			}
			fe := &fileEntry{table: tbl, seg: c.seg, dev: opts.Dev}
			fe.refs.Store(1)
			t.mu.Lock()
			t.levels[c.level][c.seg] = fe
			t.mu.Unlock()
			opened = true
		}
	}

	// Orphaned index mirrors: a crash can leave a mirror on the performance
	// tier whose table no longer exists (or was just discarded above).
	if opts.MetaBackup != nil {
		for _, name := range opts.MetaBackup.List() {
			if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".sst.idx") {
				continue
			}
			if _, err := opts.Dev.Open(strings.TrimSuffix(name, ".idx")); err != nil {
				opts.MetaBackup.Remove(name)
			}
		}
	}
	return t, maxSeq, nil
}

// removeTableFile deletes a table file and its index mirror, if any.
func removeTableFile(opts Options, name string) {
	opts.Dev.Remove(name)
	if opts.MetaBackup != nil {
		opts.MetaBackup.Remove(name + ".idx")
	}
}
