package depmemo

import (
	"encoding/binary"

	"compreuse/internal/reusetab"
)

// refTable is the footprint trie as first written: every internal node
// owns a label map and is allocated on its own. It is kept as the
// reference the differential test drives Table against.

// refNode is one trie position. Exactly one of three shapes:
//   - internal: loc names the next location to read, edges map observed
//     labels to children;
//   - value leaf: slot ≥ 0 indexes the leaf arena holding the outputs;
//   - ghost leaf: ghost is set, gslot indexes the retained encoded key.
type refNode struct {
	parent *refNode
	inEdge uint64

	loc   Loc
	edges map[uint64]*refNode

	leaf  bool
	slot  int32
	ghost bool
	gslot int32
}

// refTable is a footprint-trie memo table for one segment. Not safe for
// concurrent use.
type refTable struct {
	cfg  Config
	root *refNode

	// Value-leaf arena: outs[i] backs the leaf at nodes[i]. Bounded
	// tables pre-size the arena and evict via lru; unbounded tables grow.
	leafNodes []*refNode
	leafOuts  [][]uint64
	leafFree  []int32
	lru       *reusetab.LRUList

	// Ghost arena: encoded keys of evicted results.
	ghostNodes []*refNode
	ghostKeys  [][]byte
	ghostFree  []int32
	glru       *reusetab.LRUList

	stats Stats
}

// newRefTable builds a refTable.
func newRefTable(cfg Config) *refTable {
	t := &refTable{cfg: cfg}
	if cfg.Entries > 0 {
		t.leafNodes = make([]*refNode, cfg.Entries)
		t.leafOuts = make([][]uint64, cfg.Entries)
		t.leafFree = make([]int32, 0, cfg.Entries)
		for i := cfg.Entries - 1; i >= 0; i-- {
			t.leafFree = append(t.leafFree, int32(i))
		}
		t.lru = reusetab.NewLRUList(cfg.Entries)
		if cfg.Ghosts {
			t.ghostNodes = make([]*refNode, cfg.Entries)
			t.ghostKeys = make([][]byte, cfg.Entries)
			t.ghostFree = make([]int32, 0, cfg.Entries)
			for i := cfg.Entries - 1; i >= 0; i-- {
				t.ghostFree = append(t.ghostFree, int32(i))
			}
			t.glru = reusetab.NewLRUList(cfg.Entries)
		}
	}
	return t
}

// Config returns the table's configuration.
func (t *refTable) Config() Config { return t.cfg }

// Stats returns the counter snapshot.
func (t *refTable) Stats() Stats { return t.stats }

// Resident is the number of live (non-ghost) results.
func (t *refTable) Resident() int {
	if t.cfg.Entries > 0 {
		return t.cfg.Entries - len(t.leafFree)
	}
	return len(t.leafNodes) - len(t.leafFree)
}

// refResult is a Probe outcome.
type refResult struct {
	// Outs holds the memoized outputs on a hit. The slice aliases table
	// storage: it is valid until the next Record or Reset.
	Outs []uint64
	// Key is the encoded dependence key when a ghost matched: the probe
	// proved which result is needed without computing it, and Key names
	// it for a remote tier. Nil otherwise.
	Key []byte
	// Steps is the number of locations fetched — the dynamic key width
	// the probe paid for.
	Steps int
	// Hit reports a resident result; Ghost a matched evicted one.
	Hit   bool
	Ghost bool

	// ref pins the matched refNode for Refill.
	ref *refNode
}

// Probe walks the trie, fetching each named location, until it reaches a
// leaf (hit), a ghost (known key, evicted outputs), or falls off (miss).
// In profile mode every probe misses without walking, like
// reusetab.ModeProfile.
func (t *refTable) Probe(f Fetcher) refResult {
	t.stats.Probes++
	if t.cfg.Profile {
		return refResult{}
	}
	n := t.root
	steps := 0
	for n != nil {
		if n.leaf {
			if n.ghost {
				t.glru.MoveToFront(int(n.gslot))
				return refResult{Key: t.ghostKeys[n.gslot], Steps: steps, Ghost: true, ref: n}
			}
			if t.lru != nil {
				t.lru.MoveToFront(int(n.slot))
			}
			t.stats.Hits++
			return refResult{Outs: t.leafOuts[n.slot], Steps: steps, Hit: true}
		}
		label := f.Fetch(n.loc)
		steps++
		n = n.edges[label]
	}
	return refResult{Steps: steps}
}

// Record stores outs for the dependence path of a just-computed call.
// Conflicts with resident structure — a previously shorter or longer
// footprint along the same prefix, which deterministic computations
// never produce but tolerant float equality or a changed compute
// function can — are resolved in favor of the new record: the
// conflicting subtree is evicted. outs is copied.
func (t *refTable) Record(path []Step, outs []uint64) {
	t.stats.Records++
	t.stats.FootprintSum += int64(len(path))
	if len(path) > t.stats.MaxFootprint {
		t.stats.MaxFootprint = len(path)
	}

	if t.root == nil {
		t.root = &refNode{}
	}
	n := t.root
	for i := range path {
		st := &path[i]
		if n.leaf {
			// Footprint widening: the resident record read fewer
			// locations than this run. Displace it.
			t.displace(n)
		}
		if n.edges == nil {
			n.loc = st.Loc
			n.edges = map[uint64]*refNode{}
		} else if n.loc != st.Loc {
			// The resident subtree reads a different location here:
			// the tracked computation changed. Rebuild below this refNode.
			t.dropSubtree(n)
			n.loc = st.Loc
			n.edges = map[uint64]*refNode{}
		}
		child := n.edges[st.Label]
		if child == nil {
			child = &refNode{parent: n, inEdge: st.Label}
			n.edges[st.Label] = child
		}
		n = child
	}
	if n.edges != nil {
		// Footprint narrowing: the resident subtree expects more reads.
		t.dropSubtree(n)
		n.loc = Loc{}
		n.edges = nil
	}
	t.storeLeaf(n, outs)
}

// storeLeaf makes n a value leaf holding a copy of outs.
func (t *refTable) storeLeaf(n *refNode, outs []uint64) {
	if n.ghost {
		// A ghost promoted back to a value leaf: the result was
		// recomputed (or refilled), so the key-only shell fills in.
		t.freeGhost(n)
		n.leaf = false
	}
	fresh := !n.leaf
	if fresh {
		slot, ok := t.allocSlot()
		if !ok {
			// Budget full and nothing evictable (Entries leaves are all
			// on this record's own path — impossible: a path has one
			// leaf). Defensive.
			return
		}
		n.leaf = true
		n.slot = slot
		t.leafNodes[slot] = n
		if t.lru != nil {
			t.lru.PushFront(int(slot))
		}
		t.stats.Distinct++
	} else if t.lru != nil {
		t.lru.MoveToFront(int(n.slot))
	}
	t.leafOuts[n.slot] = append(t.leafOuts[n.slot][:0], outs...)
}

// allocSlot returns a free leaf-arena slot, evicting the LRU resident
// result if the budget is exhausted.
func (t *refTable) allocSlot() (int32, bool) {
	if t.cfg.Entries == 0 {
		// Unbounded: grow the arena.
		if len(t.leafFree) == 0 {
			t.leafNodes = append(t.leafNodes, nil)
			t.leafOuts = append(t.leafOuts, nil)
			return int32(len(t.leafNodes) - 1), true
		}
		slot := t.leafFree[len(t.leafFree)-1]
		t.leafFree = t.leafFree[:len(t.leafFree)-1]
		return slot, true
	}
	if len(t.leafFree) == 0 {
		victim := t.lru.Back()
		if victim < 0 {
			return 0, false
		}
		t.evictLeaf(t.leafNodes[victim])
	}
	slot := t.leafFree[len(t.leafFree)-1]
	t.leafFree = t.leafFree[:len(t.leafFree)-1]
	return slot, true
}

// evictLeaf displaces a resident result for the space budget: its slot is
// reclaimed and, with ghosts enabled, the refNode keeps its encoded key;
// otherwise the refNode is pruned from the trie.
func (t *refTable) evictLeaf(n *refNode) {
	t.stats.Evictions++
	t.releaseSlot(n)
	if t.cfg.Ghosts {
		t.makeGhost(n)
		return
	}
	n.leaf = false
	t.prune(n)
}

// displace removes a leaf (value or ghost) because a conflicting record
// claims its refNode; no ghost is kept (the refNode is being rebuilt).
func (t *refTable) displace(n *refNode) {
	if n.ghost {
		t.freeGhost(n)
	} else {
		t.stats.Evictions++
		t.releaseSlot(n)
	}
	n.leaf = false
}

// releaseSlot returns n's arena slot to the free list.
func (t *refTable) releaseSlot(n *refNode) {
	slot := n.slot
	t.leafNodes[slot] = nil
	if t.leafOuts[slot] != nil {
		t.leafOuts[slot] = t.leafOuts[slot][:0]
	}
	if t.lru != nil {
		t.lru.Remove(int(slot))
	}
	t.leafFree = append(t.leafFree, slot)
	n.slot = 0
}

// makeGhost converts a just-evicted leaf into a ghost retaining its
// encoded dependence key. The oldest ghost is pruned when the ghost
// budget is full.
func (t *refTable) makeGhost(n *refNode) {
	if len(t.ghostFree) == 0 {
		old := t.glru.Back()
		if old < 0 {
			n.leaf = false
			t.prune(n)
			return
		}
		g := t.ghostNodes[old]
		t.freeGhost(g)
		g.leaf = false
		t.prune(g)
	}
	gslot := t.ghostFree[len(t.ghostFree)-1]
	t.ghostFree = t.ghostFree[:len(t.ghostFree)-1]
	n.ghost = true
	n.gslot = gslot
	t.ghostNodes[gslot] = n
	t.ghostKeys[gslot] = t.encodeKey(t.ghostKeys[gslot][:0], n)
	t.glru.PushFront(int(gslot))
}

// freeGhost releases n's ghost-arena slot.
func (t *refTable) freeGhost(n *refNode) {
	gslot := n.gslot
	t.ghostNodes[gslot] = nil
	t.glru.Remove(int(gslot))
	t.ghostFree = append(t.ghostFree, gslot)
	n.ghost = false
	n.gslot = 0
}

// prune removes a now-empty refNode from the trie, cascading up through
// internal nodes left childless.
func (t *refTable) prune(n *refNode) {
	for n != nil && !n.leaf && len(n.edges) == 0 {
		p := n.parent
		if p == nil {
			t.root = nil
			return
		}
		delete(p.edges, n.inEdge)
		n = p
	}
}

// dropSubtree evicts every result and ghost below n (exclusive).
func (t *refTable) dropSubtree(n *refNode) {
	for _, c := range n.edges {
		t.dropNode(c)
	}
}

func (t *refTable) dropNode(n *refNode) {
	if n.leaf {
		if n.ghost {
			t.freeGhost(n)
		} else {
			t.stats.Evictions++
			t.releaseSlot(n)
		}
		n.leaf = false
		return
	}
	for _, c := range n.edges {
		t.dropNode(c)
	}
}

// encodeKey appends the wire encoding of n's root path to b: for each
// step, the input index (2 bytes), the element offset (4 bytes, offset
// by 2 so the reserved negative values encode), and the label (8 bytes),
// all little-endian. The encoding is canonical: one path, one key.
func (t *refTable) encodeKey(b []byte, n *refNode) []byte {
	// Walk up collecting, then reverse in place (14-byte granules).
	start := len(b)
	for n.parent != nil {
		p := n.parent
		var step [14]byte
		binary.LittleEndian.PutUint16(step[0:], uint16(p.loc.Input))
		binary.LittleEndian.PutUint32(step[2:], uint32(p.loc.Off+2))
		binary.LittleEndian.PutUint64(step[6:], n.inEdge)
		b = append(b, step[:]...)
		n = p
	}
	// Reverse the granules so the key reads root-to-leaf.
	const g = 14
	k := (len(b) - start) / g
	for i := 0; i < k/2; i++ {
		lo := start + i*g
		hi := start + (k-1-i)*g
		for j := 0; j < g; j++ {
			b[lo+j], b[hi+j] = b[hi+j], b[lo+j]
		}
	}
	return b
}

// Refill converts the ghost a probe matched back into a value leaf,
// storing outs fetched from elsewhere (a remote tier) by the ghost's
// key. key re-identifies the ghost: if the refNode was evicted or rebuilt
// between the probe and the refill (the caller may have dropped its
// lock for the remote round trip), the refill is silently skipped.
func (t *refTable) Refill(r refResult, key []byte, outs []uint64) {
	n := r.ref
	if n == nil || !n.ghost {
		return
	}
	if string(t.ghostKeys[n.gslot]) != string(key) {
		return
	}
	t.storeLeaf(n, outs)
}

// Reset drops every resident result, ghost, and counter, keeping the
// configuration and arena capacity (a reset table is
// indistinguishable from a fresh one, without reallocating).
func (t *refTable) Reset() {
	t.root = nil
	if t.cfg.Entries > 0 {
		t.leafFree = t.leafFree[:0]
		for i := t.cfg.Entries - 1; i >= 0; i-- {
			t.leafFree = append(t.leafFree, int32(i))
			t.leafNodes[i] = nil
			if t.leafOuts[i] != nil {
				t.leafOuts[i] = t.leafOuts[i][:0]
			}
		}
		t.lru.Reset()
		if t.cfg.Ghosts {
			t.ghostFree = t.ghostFree[:0]
			for i := t.cfg.Entries - 1; i >= 0; i-- {
				t.ghostFree = append(t.ghostFree, int32(i))
				t.ghostNodes[i] = nil
			}
			t.glru.Reset()
		}
	} else {
		t.leafNodes = t.leafNodes[:0]
		t.leafOuts = t.leafOuts[:0]
		t.leafFree = t.leafFree[:0]
	}
	t.stats = Stats{}
}
