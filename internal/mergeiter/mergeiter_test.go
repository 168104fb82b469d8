package mergeiter

import (
	"errors"
	"fmt"
	"testing"

	"hyperdb/internal/keys"
)

type ent struct {
	user string
	seq  uint64
	del  bool
}

// sliceSource is a sorted run in memory. failAt >= 0 makes it fail when the
// stream reaches that position.
type sliceSource struct {
	run    []ent
	i      int
	failAt int
}

func src(run ...ent) *sliceSource { return &sliceSource{run: run, failAt: -1} }

func (s *sliceSource) failed() bool { return s.failAt >= 0 && s.i >= s.failAt }
func (s *sliceSource) Valid() bool  { return s.i < len(s.run) && !s.failed() }
func (s *sliceSource) Next()        { s.i++ }
func (s *sliceSource) Value() []byte {
	return []byte(fmt.Sprintf("%s@%d", s.run[s.i].user, s.run[s.i].seq))
}
func (s *sliceSource) Key() keys.InternalKey {
	e := s.run[s.i]
	kind := keys.KindSet
	if e.del {
		kind = keys.KindDelete
	}
	return keys.InternalKey{User: []byte(e.user), Seq: e.seq, Kind: kind}
}
func (s *sliceSource) Err() error {
	if s.failed() {
		return errBoom
	}
	return nil
}

var errBoom = errors.New("boom")

func drain(m *Iter) []string {
	var out []string
	for ; m.Valid(); m.Next() {
		k := m.Key()
		out = append(out, fmt.Sprintf("%s#%d,%s=%s", k.User, k.Seq, k.Kind, m.Value()))
	}
	return out
}

func TestMergeNewestVersionWinsAndTombstonesAreTheCallersChoice(t *testing.T) {
	srcs := func() []Source {
		return []Source{
			src(ent{"a", 9, false}, ent{"c", 8, true}, ent{"e", 7, false}),
			src(ent{"a", 3, true}, ent{"b", 2, false}, ent{"c", 1, false}),
			src(), // exhausted from the start
			src(ent{"c", 5, false}, ent{"d", 4, true}, ent{"d", 1, false}),
		}
	}
	kept := drain(Merge(srcs(), false))
	want := []string{"a#9,set=a@9", "b#2,set=b@2", "c#8,delete=c@8", "d#4,delete=d@4", "e#7,set=e@7"}
	if fmt.Sprint(kept) != fmt.Sprint(want) {
		t.Fatalf("tombstones kept: got %v, want %v", kept, want)
	}
	dropped := drain(Merge(srcs(), true))
	want = []string{"a#9,set=a@9", "b#2,set=b@2", "e#7,set=e@7"}
	if fmt.Sprint(dropped) != fmt.Sprint(want) {
		t.Fatalf("tombstones dropped: got %v, want %v", dropped, want)
	}
}

func TestMergeStopsAtTheFirstSourceError(t *testing.T) {
	bad := src(ent{"b", 1, false}, ent{"d", 1, false})
	bad.failAt = 1
	m := Merge([]Source{src(ent{"a", 1, false}, ent{"c", 1, false}, ent{"e", 1, false}), bad}, true)
	got := drain(m)
	if !errors.Is(m.Err(), errBoom) {
		t.Fatalf("Err = %v after %v, want the source's error", m.Err(), got)
	}
	if len(got) != 2 { // a, b; the failure surfaces moving past b
		t.Fatalf("yielded %v before failing, want a and b", got)
	}

	bad = src(ent{"b", 1, false})
	bad.failAt = 0
	if m := Merge([]Source{src(ent{"a", 1, false}), bad}, true); m.Valid() || !errors.Is(m.Err(), errBoom) {
		t.Fatalf("a source that fails while positioning: Valid=%v Err=%v", m.Valid(), m.Err())
	}
}

func TestConcatOpensARunOnlyWhenReached(t *testing.T) {
	runs := [][]ent{
		{}, // empty runs are stepped over
		{{"a", 1, false}, {"b", 1, false}},
		{},
		{{"c", 1, false}},
		{{"d", 1, false}},
	}
	opened := 0
	c := NewConcat(len(runs), func(i int) Source {
		opened++
		return src(runs[i]...)
	})
	if opened != 2 || !c.Valid() || string(c.Key().User) != "a" {
		t.Fatalf("after creation: %d runs opened, valid=%v", opened, c.Valid())
	}
	c.Next()
	if opened != 2 || string(c.Key().User) != "b" {
		t.Fatalf("inside a run: %d runs opened", opened)
	}
	c.Next()
	if opened != 4 || string(c.Key().User) != "c" {
		t.Fatalf("crossing into the next non-empty run: %d runs opened", opened)
	}
	c.Next()
	c.Next()
	if c.Valid() || c.Err() != nil || opened != 5 {
		t.Fatalf("at the end: valid=%v err=%v opened=%d", c.Valid(), c.Err(), opened)
	}

	bad := src(ent{"x", 1, false}, ent{"y", 1, false})
	bad.failAt = 1
	c = NewConcat(2, func(i int) Source {
		if i == 0 {
			return bad
		}
		t.Fatal("opened the run behind a failed one")
		return nil
	})
	c.Next()
	if c.Valid() || !errors.Is(c.Err(), errBoom) {
		t.Fatalf("a failing run: valid=%v err=%v", c.Valid(), c.Err())
	}
}
