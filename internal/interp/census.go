package interp

import (
	"bytes"
	"unsafe"
)

// Census lists the distinct keys of a watch's census in first-seen
// order. Its entries and key bytes are kept in chunks that hold no
// pointer, so the collector never scans them while the run goes on, and
// that are only ever appended to: nothing is copied as a census grows,
// and a key keeps its bytes for as long as anything refers to it.
type Census struct {
	ents  [][]KeySeen
	arena [][]byte
	n     int
}

// KeySeen is one distinct key of a census: its probe count and the
// run-wide probe sequence number of its first sighting, which orders the
// keys of segments sharing a merged table. The key itself is len bytes
// at off in arena chunk chunk (Census.Key).
type KeySeen struct {
	Count int64
	First int64
	chunk uint32
	off   uint32
	len   uint32
}

// Entries go into chunks of entryChunk, so entry i is entry
// i%entryChunk of chunk i/entryChunk. Key bytes go into chunks that
// double from minChunk up to maxChunk bytes; a longer key gets a chunk
// of its own.
const (
	entryShift = 7
	entryChunk = 1 << entryShift
	minChunk   = 256
	maxChunk   = 64 << 10
)

// Len is the number of distinct keys.
func (c *Census) Len() int { return c.n }

// At is the i-th distinct key's entry.
func (c *Census) At(i int) KeySeen { return *c.at(i) }

func (c *Census) at(i int) *KeySeen { return &c.ents[i>>entryShift][i&(entryChunk-1)] }

// Key is the i-th distinct key. It aliases the census's arena, which is
// never rewritten, so it stays valid as long as it is referenced.
func (c *Census) Key(i int) string {
	k := c.at(i)
	if k.len == 0 {
		return ""
	}
	return unsafe.String(&c.arena[k.chunk][k.off], int(k.len))
}

// equal reports whether k's bytes are key.
func (c *Census) equal(k *KeySeen, key []byte) bool {
	if int(k.len) != len(key) {
		return false
	}
	return len(key) == 0 || bytes.Equal(c.arena[k.chunk][k.off:k.off+k.len], key)
}

// add appends key, first seen at probe seq, and returns its index.
func (c *Census) add(key []byte, seq int64) int {
	i := c.n
	if i&(entryChunk-1) == 0 {
		c.ents = append(c.ents, make([]KeySeen, 0, entryChunk))
	}
	k := KeySeen{Count: 1, First: seq, len: uint32(len(key))}
	k.chunk, k.off = c.store(key)
	last := &c.ents[len(c.ents)-1]
	*last = append(*last, k)
	c.n++
	return i
}

// store copies key into the arena and returns where it put it.
func (c *Census) store(key []byte) (chunk, off uint32) {
	if len(key) == 0 {
		return 0, 0
	}
	n := len(c.arena)
	if n == 0 || cap(c.arena[n-1])-len(c.arena[n-1]) < len(key) {
		size := minChunk
		if n > 0 {
			size = min(maxChunk, 2*cap(c.arena[n-1]))
		}
		c.arena = append(c.arena, make([]byte, 0, max(len(key), size)))
		n++
	}
	a := &c.arena[n-1]
	off = uint32(len(*a))
	*a = append(*a, key...)
	return uint32(n - 1), off
}
