package semisst

import (
	"bytes"
	"testing"

	"hyperdb/internal/compress"
	"hyperdb/internal/device"
	"hyperdb/internal/keys"
)

// fuzzImage builds a small multi-block table and returns the file's bytes:
// merged once, so it carries a superseded index and dirty blocks, or fresh,
// as the baselines write every table. Small on purpose: the fuzzer minimizes
// every input that finds new coverage.
func fuzzImage(tb testing.TB, codec compress.Codec, merge bool) []byte {
	dev := newDev()
	f, _ := dev.Create("seed.sst")
	opts := Options{BlockSize: 64, Codec: codec}
	tbl, err := Build(f, opts, sortedEntries(8, 1), device.Bg)
	if err != nil {
		tb.Fatal(err)
	}
	if !merge {
		return fileImage(tb, f)
	}
	if _, err := tbl.Merge([]Entry{entry("key-00003", 100, "merged")}, false, device.Bg); err != nil {
		tb.Fatal(err)
	}
	return fileImage(tb, f)
}

// FuzzOpen opens a mutated table image and reads it every way the engine
// does — point lookups, a scan, and the whole table through the extent
// reader. Nothing may panic, a read either errors or returns entries the
// index vouches for, and a run that reads back is strictly ascending.
func FuzzOpen(f *testing.F) {
	raw, lz := fuzzImage(f, compress.None, true), fuzzImage(f, compress.LZ, true)
	f.Add(raw)
	f.Add(lz)
	f.Add(fuzzImage(f, compress.None, false))
	f.Add(fuzzImage(f, compress.LZ, false))
	// Torn tails: the merge's appended blocks, index and footer cut short,
	// so Open must fall back to the first build's footer.
	f.Add(raw[:len(raw)-footerSize/2])
	f.Add(lz[:len(lz)-len(lz)/4])
	// Damage a checksum must catch: an index that no longer matches its
	// footer, a data block that no longer matches its index segment.
	bad := bytes.Clone(raw)
	bad[len(bad)-footerSize-1] ^= 0xff
	f.Add(bad)
	bad = bytes.Clone(lz)
	bad[1] ^= 0xff
	f.Add(bad)
	f.Fuzz(func(t *testing.T, img []byte) {
		tbl, err := openImage(t, img)
		if err != nil {
			return // failed closed
		}
		probes := [][]byte{[]byte("key-00003"), []byte("zzz"), {}}
		for _, bm := range tbl.LiveBlockMetas() {
			probes = append(probes, bm.First, bm.Last)
		}
		for _, k := range probes {
			if v, _, found, err := tbl.Get(k, keys.MaxSeq, device.Fg); err != nil && (found || v != nil) {
				t.Fatalf("get %q errored (%v) yet returned found=%v value=%q", k, err, found, v)
			}
		}
		it := tbl.NewIter(device.Fg)
		for it.First(); it.Valid(); it.Next() {
			_, _ = it.Key(), it.Value()
		}
		run, _, err := tbl.AllEntries(device.Bg)
		if err != nil {
			return
		}
		if len(run) != tbl.NumEntries() {
			t.Fatalf("extent reader returned %d entries, index counts %d", len(run), tbl.NumEntries())
		}
		for i := 1; i < len(run); i++ {
			if bytes.Compare(run[i-1].Key.User, run[i].Key.User) >= 0 {
				t.Fatalf("run not ascending at %d: %q then %q", i, run[i-1].Key.User, run[i].Key.User)
			}
		}
	})
}
