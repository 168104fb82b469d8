package device

// pageTable holds a file's contents as one page-sized chunk per device page,
// so growing a file never copies what it already holds, and the table is the
// file's one record of the pages it holds on the device ledger. A punched
// page (TRIM) is a nil entry: it reads as zeros and holds no memory until a
// write, an append or a Reallocate gives it a fresh zeroed chunk. The bytes
// of the last chunk past size are zero, so a file that grows reads zeros.
type pageTable struct {
	ps    int64
	pages [][]byte // nil for a punched page
	size  int64
}

// missing counts the chunks claim(off, n) adds: the pages the table lacks to
// cover off+n bytes, and the punched pages [off, off+n) touches.
func (t *pageTable) missing(off, n int64) int64 {
	add := max(0, (off+n+t.ps-1)/t.ps-int64(len(t.pages)))
	for p := off / t.ps; n > 0 && p <= (off+n-1)/t.ps && p < int64(len(t.pages)); p++ {
		if t.pages[p] == nil {
			add++
		}
	}
	return add
}

// claim zero-extends the contents to off+n bytes (a no-op for pages already
// there, punched or not) and gives every punched page [off, off+n) touches a
// zeroed chunk.
func (t *pageTable) claim(off, n int64) {
	for int64(len(t.pages))*t.ps < off+n {
		t.pages = append(t.pages, make([]byte, t.ps))
	}
	for p := off / t.ps; n > 0 && p <= (off+n-1)/t.ps; p++ {
		if t.pages[p] == nil {
			t.pages[p] = make([]byte, t.ps)
		}
	}
	t.size = max(t.size, off+n)
}

// truncate shrinks the contents to n bytes and returns how many of the pages
// it dropped held a chunk.
func (t *pageTable) truncate(n int64) (freed int64) {
	keep := (n + t.ps - 1) / t.ps
	for _, c := range t.pages[keep:] {
		if c != nil {
			freed++
		}
	}
	clear(t.pages[keep:])
	t.pages = t.pages[:keep]
	if keep > 0 && t.pages[keep-1] != nil {
		clear(t.pages[keep-1][n-(keep-1)*t.ps:])
	}
	t.size = n
	return freed
}

// held returns the bytes the table's chunks hold.
func (t *pageTable) held() (n int64) {
	for _, c := range t.pages {
		n += int64(len(c))
	}
	return n
}

// span calls fn with the chunk (nil for a punched page) and the in-page
// range of every piece of [off, off+n), in order; the range is clipped to
// the contents.
func (t *pageTable) span(off, n int64, fn func(chunk []byte, lo, hi int64)) {
	for end := min(off+n, t.size); off < end; {
		lo := off % t.ps
		hi := min(t.ps, lo+end-off)
		fn(t.pages[off/t.ps], lo, hi)
		off += hi - lo
	}
}

// readAt copies the contents from off on into p and returns the count.
func (t *pageTable) readAt(p []byte, off int64) (n int) {
	t.span(off, int64(len(p)), func(chunk []byte, lo, hi int64) {
		piece := p[n : n+int(hi-lo)]
		if chunk == nil {
			clear(piece)
		} else {
			copy(piece, chunk[lo:hi])
		}
		n += len(piece)
	})
	return n
}

// writeAt overwrites [off, off+len(p)), whose pages must all be held.
func (t *pageTable) writeAt(p []byte, off int64) {
	t.span(off, int64(len(p)), func(chunk []byte, lo, hi int64) { p = p[copy(chunk[lo:hi], p):] })
}
