package leveled

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"hyperdb/internal/device"
	"hyperdb/internal/semisst"
)

// Open builds a leveled LSM from the tables persisted on devs: none on empty
// devices. File names carry (level, generation) and entries their sequence
// numbers, so no manifest is needed; each table's index holds its key bounds
// and largest sequence, so no entry is read.
//
// Generation numbers are not a cross-level recency order — a deep compaction
// output can have a higher generation than an L0 flush holding newer
// versions of the same keys — so tables are restored at their named levels,
// where the shallowest-level-wins read path stays correct. Within L0, flushes
// are serialized, so generation order is arrival order. A crash mid-compaction
// can leave its outputs installed next to its not-yet-removed inputs; the
// resulting same-level overlaps at L1+ are repaired by a sequence-aware merge
// of each overlapping group into fresh tables. Files with no valid footer
// (cut before it synced) are deleted: their content is either
// replayable (flush, WAL retained) or still present in the compaction's
// inputs. A device I/O error during open aborts recovery instead — the file
// may be intact, so deleting it would turn a transient fault into data loss.
//
// Returns the LSM and the largest sequence number seen.
func Open(opts Options, devs ...*device.Device) (*LSM, uint64, error) {
	opts.fill()
	if opts.Place == nil {
		return nil, 0, fmt.Errorf("leveled: Placement required")
	}
	l := &LSM{
		opts:      opts,
		levels:    make([][]*table, opts.MaxLevels),
		rr:        make([]int, opts.MaxLevels),
		busy:      make(map[*table]bool),
		activeOut: make([]bool, opts.MaxLevels+1),
		traffic:   make([]*LevelTraffic, opts.MaxLevels),
		stallCh:   make(chan struct{}),
	}
	for i := range l.traffic {
		l.traffic[i] = &LevelTraffic{}
	}
	type cand struct {
		dev   *device.Device
		name  string
		level int
		gen   uint64
	}
	var cands []cand
	prefix := l.opts.Name + "-L"
	for _, dev := range devs {
		for _, name := range dev.List() {
			if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".sst") {
				continue
			}
			var level int
			var gen uint64
			if _, err := fmt.Sscanf(name, l.opts.Name+"-L%d-G%d.sst", &level, &gen); err != nil {
				continue
			}
			if level < 0 {
				continue
			}
			cands = append(cands, cand{dev, name, level, gen})
		}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].gen < cands[b].gen })

	var maxSeq uint64
	for _, c := range cands {
		if c.gen > l.nextGen {
			l.nextGen = c.gen // never reuse a generation, even a discarded one
		}
		level := c.level
		if level >= l.opts.MaxLevels {
			level = l.opts.MaxLevels - 1
		}
		f, err := c.dev.Open(c.name)
		if err != nil {
			return nil, 0, err
		}
		sst, err := semisst.Open(f, l.tableOptions(level), device.BgSeq)
		if err != nil && device.IsIOError(err) {
			// Medium error, not a torn file: deleting would lose data.
			return nil, 0, fmt.Errorf("leveled: recover %q: %w", c.name, err)
		}
		if err != nil || sst.NumLiveBlocks() == 0 {
			c.dev.Remove(c.name)
			continue
		}
		maxSeq = max(maxSeq, sst.MaxSeq())
		l.levels[level] = append(l.levels[level], newTable(sst, c.dev))
	}

	for level := 1; level < l.opts.MaxLevels; level++ {
		sortTables(l.levels[level])
		if err := l.repairLevel(level); err != nil {
			return nil, 0, err
		}
	}
	return l, maxSeq, nil
}

// repairLevel restores the non-overlap invariant of a sorted level by
// merging each group of key-overlapping tables into fresh tables. Entries
// carry sequence numbers, so the newest version always wins regardless of
// which crash window produced the overlap.
func (l *LSM) repairLevel(level int) error {
	tables := l.levels[level]
	var out []*table
	i := 0
	for i < len(tables) {
		group := []*table{tables[i]}
		hi := tables[i].largest
		j := i + 1
		for j < len(tables) && bytes.Compare(tables[j].smallest, hi) <= 0 {
			if bytes.Compare(tables[j].largest, hi) > 0 {
				hi = tables[j].largest
			}
			group = append(group, tables[j])
			j++
		}
		if len(group) == 1 {
			out = append(out, tables[i])
		} else {
			merged, err := l.rewrite(group, level, device.BgSeq)
			if err != nil {
				return err
			}
			for _, t := range group {
				t.release()
			}
			out = append(out, merged...)
		}
		i = j
	}
	sortTables(out)
	l.levels[level] = out
	return nil
}
