package device

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"
)

// granules is the number of granules a page is cut into: 32 bytes each on a
// 4 KiB page.
const granules = 128

// pageTable holds a file's contents page by page, so growing a file never
// copies what it holds, and it is the file's one record of the pages it
// holds on the device ledger. A held page stores a granule if and only if
// the granule holds a non-zero byte, so its memory follows its contents,
// and a slot's zero padding takes none. A punched page (TRIM) is not held:
// it reads as zeros and stores nothing. The bytes of the last page past size
// are zero, so a file that grows reads zeros.
type pageTable struct {
	ps     int
	gb     int // log2 of the granule size: at most granules cover a page
	pages  []chunk
	size   int64
	stored int64 // bytes the pages' stored granules take
}

// chunk is one page: the granules it stores, in granule order, and whether
// the device ledger counts it.
type chunk struct {
	mask mask
	data []byte // len is mask.count() granules
	held bool
}

func newPageTable(ps int) pageTable {
	return pageTable{ps: ps, gb: bits.Len(uint((ps+granules-1)/granules - 1))}
}

// mask has bit g set when granule g is stored.
type mask [2]uint64

var ones = mask{^uint64(0), ^uint64(0)}

func (m mask) has(g int) bool { return m[g>>6]>>(g&63)&1 != 0 }

func (m mask) count() int { return bits.OnesCount64(m[0]) + bits.OnesCount64(m[1]) }

// below returns the bits of m under granule g.
func (m mask) below(g int) mask {
	return mask{m[0] & (1<<min(g, 64) - 1), m[1] & (1<<max(g-64, 0) - 1)}
}

// missing counts the pages claim(off, n) holds anew: the pages the table
// lacks to cover off+n bytes, and the punched pages [off, off+n) touches.
func (t *pageTable) missing(off, n int64) int64 {
	ps := int64(t.ps)
	add := max(0, (off+n+ps-1)/ps-int64(len(t.pages)))
	for p := off / ps; n > 0 && p <= (off+n-1)/ps && p < int64(len(t.pages)); p++ {
		if !t.pages[p].held {
			add++
		}
	}
	return add
}

// claim zero-extends the contents to off+n bytes (a no-op for pages already
// there, punched or not) and holds every page [off, off+n) touches. A page
// claimed stores nothing until a non-zero byte is written to it.
func (t *pageTable) claim(off, n int64) {
	ps := int64(t.ps)
	for int64(len(t.pages))*ps < off+n {
		t.pages = append(t.pages, chunk{held: true})
	}
	for p := off / ps; n > 0 && p <= (off+n-1)/ps; p++ {
		t.pages[p].held = true
	}
	t.size = max(t.size, off+n)
}

// truncate shrinks the contents to n bytes and returns how many of the pages
// it dropped were held.
func (t *pageTable) truncate(n int64) (freed int64) {
	ps := int64(t.ps)
	keep := (n + ps - 1) / ps
	for _, c := range t.pages[keep:] {
		if c.held {
			freed++
		}
		t.stored -= int64(len(c.data))
	}
	clear(t.pages[keep:])
	t.pages = t.pages[:keep]
	if x := int(n % ps); x > 0 {
		t.write(&t.pages[keep-1], x, t.ps, make([]byte, t.ps-x))
	}
	t.size = n
	return freed
}

// span calls fn with the page and the in-page range of every piece of
// [off, off+n), in order; the range is clipped to the contents.
func (t *pageTable) span(off, n int64, fn func(c *chunk, lo, hi int)) {
	ps := int64(t.ps)
	for end := min(off+n, t.size); off < end; {
		lo := off % ps
		hi := min(ps, lo+end-off)
		fn(&t.pages[off/ps], int(lo), int(hi))
		off += hi - lo
	}
}

// readAt copies the contents from off on into p and returns the count: per
// page, one copy and zeros when the granules the page stores of the range
// lead it (a full page, a record in its slot), else zeros and one copy per
// run of stored granules.
func (t *pageTable) readAt(p []byte, off int64) (n int) {
	t.span(off, int64(len(p)), func(c *chunk, lo, hi int) {
		dst, gb := p[n:n+hi-lo], t.gb
		n += hi - lo
		g0, g1 := lo>>gb, (hi-1)>>gb+1
		r0 := c.mask.below(g0).count()
		if k := c.mask.below(g1).count() - r0; k > 0 && c.mask.below(g0+k).count()-r0 == k {
			clear(dst[copy(dst, c.data[r0<<gb+lo-g0<<gb:(r0+k)<<gb]):])
		} else {
			clear(dst)
			copyRuns(dst, c.data, c.mask, r0, gb, lo, hi, false)
		}
	})
	return n
}

// writeAt overwrites [off, off+len(p)), whose pages must all be held.
func (t *pageTable) writeAt(p []byte, off int64) {
	t.span(off, int64(len(p)), func(c *chunk, lo, hi int) {
		t.write(c, lo, hi, p[:hi-lo])
		p = p[hi-lo:]
	})
}

// write overwrites bytes [lo, hi) of page c with src and keeps the page in
// canonical form: a granule the write leaves all zero is dropped, and one it
// makes non-zero is stored. Only the edge granules g0 and last can be partly
// written; they keep their old bytes outside [lo, hi).
func (t *pageTable) write(c *chunk, lo, hi int, src []byte) {
	gb, gs := t.gb, 1<<t.gb
	g0, g1, last := lo>>gb, (hi-1)>>gb+1, (hi-1)>>gb
	r0 := c.mask.below(g0).count()
	mo := c.mask.below(g1).count() - r0 // granules [g0, g1) stores now
	nm, below1 := c.mask.below(g0), ones.below(g1)
	nm[0], nm[1] = nm[0]|c.mask[0]&^below1[0], nm[1]|c.mask[1]&^below1[1]
	for g, end := (lo+gs-1)>>gb, hi>>gb; g < end; g++ {
		// Dense data shows in the first word of each granule: test four
		// granules at once for that.
		if x := src[g*gs-lo:]; g&3 == 0 && g+4 <= end && gs >= 8 && first(x) != 0 &&
			first(x[gs:]) != 0 && first(x[2*gs:]) != 0 && first(x[3*gs:]) != 0 {
			nm[g>>6] |= 15 << (g & 63)
			g += 3
		} else if nonZero(x[:gs]) {
			nm[g>>6] |= 1 << (g & 63)
		}
	}
	// A partly written edge keeps its old bytes, at rank r0 or r0+mo-1.
	for i, g := range [2]int{g0, last} {
		a, b, at := max(lo, g*gs), min(hi, g*gs+gs), (r0+i*(mo-1))*gs
		if b-a < gs && (nonZero(src[a-lo:b-lo]) || c.mask.has(g) &&
			(nonZero(c.data[at:at+a-g*gs]) || nonZero(c.data[at+b-g*gs:at+gs]))) {
			nm[g>>6] |= 1 << (g & 63)
		}
	}
	if nm == c.mask {
		// An update in place: one copy when the granules stored lead the
		// range, as a record leads its slot (the rest of src is zeros).
		if mo > 0 && c.mask.below(g0+mo).count()-r0 == mo {
			copy(c.data[r0*gs+lo-g0*gs:(r0+mo)*gs], src)
		} else {
			copyRuns(src, c.data, nm, r0, gb, lo, hi, true)
		}
		return
	}
	mn := nm.below(g1).count() - r0
	oldLen, newLen := len(c.data), len(c.data)+(mn-mo)*gs
	// The granules below g0 keep their place, and so does the first one
	// [g0, g1) stores; the suffix, from g1 on, moves by mn-mo granules, and
	// the last edge's old bytes past hi move with it.
	from, to := (r0+mo)*gs, (r0+mn)*gs
	if newLen > cap(c.data) {
		want := newLen
		if from == oldLen {
			// Granules past the highest stored one: a page filled slot by
			// slot, or an append. Reserve what the page holds once all of it
			// is as dense as [0, g1), so the rest fills in place.
			want = max(want, nm.count()*granules/g1*gs)
		}
		// Grow to the size class that fits, never by doubling: growth slack
		// would stay for the page's life.
		c.data = append(slices.Grow([]byte(nil), want), c.data...)
	}
	dst := c.data[:max(oldLen, newLen)]
	tail := hi < g1*gs && c.mask.has(last) && nm.has(last) && last > g0
	oldTail, newTail, x := (r0+mo-1)*gs, (r0+mn-1)*gs, hi-last*gs
	if tail && mn < mo {
		copy(dst[newTail+x:newTail+gs], dst[oldTail+x:])
	}
	copy(dst[to:], dst[from:oldLen])
	if tail && mn > mo {
		copy(dst[newTail+x:newTail+gs], dst[oldTail+x:])
	}
	dst = dst[:newLen]
	// An edge the page did not store reads as zeros outside [lo, hi).
	if lo > g0*gs && nm.has(g0) && !c.mask.has(g0) {
		clear(dst[r0*gs : r0*gs+lo-g0*gs])
	}
	if x < gs && nm.has(last) && !c.mask.has(last) {
		clear(dst[newTail+x : newTail+gs])
	}
	copyRuns(src, dst, nm, r0, gb, lo, hi, true)
	if mn < mo && newLen <= cap(dst)/2 {
		dst = append(slices.Grow([]byte(nil), newLen), dst...) // shrink
	}
	t.stored += int64(newLen - oldLen)
	c.mask, c.data = nm, dst
}

// nonZero reports whether b holds a non-zero byte.
func nonZero(b []byte) bool {
	for ; len(b) > 0; b = b[min(len(b), len(zeros)):] {
		if n := min(len(b), len(zeros)); !bytes.Equal(b[:n], zeros[:n]) {
			return true
		}
	}
	return false
}

var zeros [64]byte

func first(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

// copyRuns copies between flat, the bytes [lo, hi) of a page, and data,
// the granules m says the page stores, granule lo>>gb at rank r or later:
// into data when in is set, out of it otherwise. It makes one copy per run
// of stored granules.
func copyRuns(flat, data []byte, m mask, r, gb, lo, hi int, in bool) {
	gs, end := 1<<gb, (hi-1)>>gb+1
	for g := lo >> gb; g < end; {
		x := m[g>>6] >> (g & 63)
		if x == 0 {
			g = g | 63 + 1
			continue
		}
		if g += bits.TrailingZeros64(x); g >= end {
			return
		}
		n := min(bits.TrailingZeros64(^(m[g>>6] >> (g & 63))), end-g)
		a, b := max(lo, g*gs), min(hi, (g+n)*gs)
		if in {
			copy(data[r*gs+a-g*gs:], flat[a-lo:b-lo])
		} else {
			copy(flat[a-lo:b-lo], data[r*gs+a-g*gs:])
		}
		r, g = r+n, g+n
	}
}
