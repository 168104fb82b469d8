package btree

import "unsafe"

// ItemSize is the size of one index item holding a V.
func ItemSize[V any]() uintptr { return unsafe.Sizeof(item[V]{}) }
