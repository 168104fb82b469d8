package device

// extentSize is the unit a file's contents grow in. It is a multiple of every
// profile's page size, so a page read never straddles two extents.
const extentSize = 64 << 10

// extents holds a file's contents as fixed-size chunks, so that growing a
// file never copies what it already holds — one flat slice regrown by append
// moved every byte of a slot file or a table four times over while it was
// written, most of it page-faulting into fresh spans. Every chunk but the
// last is full. The first grows by append, so a small file (an index mirror,
// a WAL segment) takes only what it uses; every later chunk is allocated
// whole, so a large file carries under one extent of slack.
type extents struct {
	chunks [][]byte
	size   int64
}

// grow zero-extends the contents to n bytes; a no-op when they are longer.
func (e *extents) grow(n int64) {
	for e.size < n {
		last := len(e.chunks) - 1
		if last < 0 || len(e.chunks[last]) == extentSize {
			c := 0
			if last >= 0 {
				c = extentSize
			}
			e.chunks = append(e.chunks, make([]byte, 0, c))
			last++
		}
		c := e.chunks[last]
		room := min(int64(extentSize-len(c)), n-e.size)
		if len(c)+int(room) <= cap(c) {
			// Capacity a truncate left behind still holds the old bytes.
			c = c[:len(c)+int(room)]
			clear(c[len(c)-int(room):])
		} else {
			c = append(c, make([]byte, room)...)
		}
		e.chunks[last] = c
		e.size += room
	}
}

// truncate shrinks the contents to n bytes.
func (e *extents) truncate(n int64) {
	keep := int((n + extentSize - 1) / extentSize)
	clear(e.chunks[keep:])
	e.chunks = e.chunks[:keep]
	if keep > 0 {
		e.chunks[keep-1] = e.chunks[keep-1][:n-int64(keep-1)*extentSize]
	}
	e.size = n
}

// span calls fn with every stored piece of [off, off+n), in order; the range
// is clipped to the contents.
func (e *extents) span(off, n int64, fn func(piece []byte)) {
	for end := min(off+n, e.size); off < end; {
		c := e.chunks[off/extentSize]
		piece := c[off%extentSize : min(int64(len(c)), off%extentSize+end-off)]
		fn(piece)
		off += int64(len(piece))
	}
}

// readAt copies the contents from off on into p and returns the count.
func (e *extents) readAt(p []byte, off int64) (n int) {
	e.span(off, int64(len(p)), func(piece []byte) { n += copy(p[n:], piece) })
	return n
}

// writeAt overwrites [off, off+len(p)), which must lie inside the contents.
func (e *extents) writeAt(p []byte, off int64) {
	e.span(off, int64(len(p)), func(piece []byte) { p = p[copy(piece, p):] })
}

// clear zeroes the part of [lo, hi) that lies inside the contents.
func (e *extents) clear(lo, hi int64) {
	e.span(lo, hi-lo, func(piece []byte) { clear(piece) })
}
