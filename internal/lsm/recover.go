package lsm

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"hyperdb/internal/device"
	"hyperdb/internal/semisst"
)

// recover rebuilds the tree from the tables on devs and returns the largest
// sequence they hold. Tables are self-describing and names carry their
// coordinates (level, Segmented segment, generation): no manifest is read.
// At each coordinate, candidates open newest generation first and the
// policy's same-coordinate rule settles them. A file with no valid footer
// (cut before its first sync) is deleted: its content is replayable or
// still in the tables it was built from. Orphaned index mirrors go too. A
// device I/O error aborts instead: the file may be intact.
func (t *Tree) recover(devs []*device.Device) (uint64, error) {
	type cand struct {
		dev        *device.Device
		name       string
		level, seg int
		gen        uint64
	}
	var cands []cand
	for _, dev := range devs {
		for _, name := range dev.List() {
			c := cand{dev: dev, name: name}
			if !t.parseName(name, &c.level, &c.seg, &c.gen) {
				continue
			}
			if c.level < t.top || c.level > t.bottom {
				return 0, fmt.Errorf("lsm: %s is at level %d, outside this tree's levels L%d..L%d", name, c.level, t.top, t.bottom)
			}
			t.gen.Store(max(t.gen.Load(), c.gen)) // never reuse a generation, even a discarded one
			cands = append(cands, c)
		}
	}
	slices.SortFunc(cands, func(a, b cand) int { return cmp.Or(a.level-b.level, a.seg-b.seg, cmp.Compare(b.gen, a.gen)) })

	var maxSeq uint64
	for i := 0; i < len(cands); {
		level, seg := cands[i].level, cands[i].seg
		var opened []*table
		for ; i < len(cands) && cands[i].level == level && cands[i].seg == seg; i++ {
			c := cands[i]
			f, err := c.dev.Open(c.name)
			if err != nil {
				return 0, err
			}
			sst, err := semisst.Open(f, t.tableOptions(level), device.BgSeq)
			if device.IsIOError(err) {
				return 0, fmt.Errorf("lsm: recover %q: %w", c.name, err)
			}
			if err != nil {
				t.removeFile(c.dev, c.name)
				continue
			}
			maxSeq = max(maxSeq, sst.MaxSeq())
			tb := &table{sst: sst, dev: c.dev, seg: seg}
			tb.refs.Store(1)
			opened = append(opened, tb)
		}
		if len(opened) == 0 {
			continue
		}
		kept, err := t.pol.settle(level, opened)
		if err != nil {
			return 0, err
		}
		t.levels[level] = append(t.levels[level], kept...)
	}

	if mb := t.opts.MetaBackup; mb != nil {
		for _, name := range mb.List() {
			table, ok := strings.CutSuffix(name, ".idx")
			if !ok || !strings.HasPrefix(table, t.opts.Prefix+"-L") {
				continue
			}
			if _, err := t.opts.Dev.Open(table); err != nil {
				mb.Remove(name)
			}
		}
	}
	return maxSeq, nil
}

// parseName reads a file name's coordinates, or reports it is no table of
// this tree.
func (t *Tree) parseName(name string, level, seg *int, gen *uint64) bool {
	rest, ok := strings.CutPrefix(name, t.opts.Prefix+"-L")
	if !ok || !strings.HasSuffix(rest, ".sst") {
		return false
	}
	var err error
	if t.seg != nil {
		_, err = fmt.Sscanf(rest, "%d-S%d-G%d.sst", level, seg, gen)
	} else {
		_, err = fmt.Sscanf(rest, "%d-G%d.sst", level, gen)
	}
	return err == nil
}
