// Package depmemo implements dependence-tracked selective memoization:
// a memo table keyed not on a segment's full declared input set but on
// the locations a computation *actually read*, discovered per call.
//
// The idea is Acar–Blelloch–Harper's selective memoization, applied to
// the paper's reuse scheme: a segment whose declared inputs are wide
// (say a whole board array) but whose bodies each touch only a few
// elements can be keyed on that small dynamic footprint, slashing the
// hashing overhead O of formula (3) and flipping O/C ≥ 1 rejections to
// profitable.
//
// The index is a footprint trie. An internal node names the next
// location the computation will read; its out-edges are labeled by the
// value observed there. A leaf holds the memoized outputs. Because the
// computations memoized here are deterministic, the values read so far
// determine which location is read next — so every input set that
// reaches a leaf along matching edges would have produced exactly the
// recorded outputs, even though most of the declared input space was
// never examined. Differing read-sets coexist naturally: two calls that
// branch apart at some read simply occupy different subtrees, possibly
// with different footprints.
//
// A Table is single-goroutine, like reusetab.Table; the public DepMemo
// wrapper adds locking and singleflight. Space budgets bound the number
// of resident results with LRU eviction over a fixed leaf arena,
// reusing reusetab's intrusive LRUList.
package depmemo

import (
	"encoding/binary"

	"compreuse/internal/reusetab"
)

// Loc identifies one trackable input location: an input's index in the
// call's positional input list, plus an element offset within it. The
// offset's meaning is the caller's: the MiniC interpreter uses flattened
// word offsets; the public API reserves OffWhole for a scalar's value or
// a slice's content hash and OffLen for a slice's length.
type Loc struct {
	Input int32
	Off   int32
}

// Reserved Off values for the public tracked-view API.
const (
	// OffWhole marks a dependence on an input's whole value: the scalar
	// itself, or a content hash of the full slice.
	OffWhole int32 = -1
	// OffLen marks a dependence on a slice input's length only.
	OffLen int32 = -2
)

// Step is one recorded dependence: the location read and the encoded
// value (label) observed there at the time of the read.
type Step struct {
	Loc   Loc
	Label uint64
}

// Fetcher supplies the current label of a location during a probe. It is
// an interface rather than a func so a reused implementation probes
// without allocating a closure.
type Fetcher interface {
	Fetch(Loc) uint64
}

// Config sizes a Table.
type Config struct {
	// Name labels the table in reports.
	Name string
	// Entries bounds resident results (0 = unbounded). Bounded tables
	// evict the least recently used result when full.
	Entries int
	// Ghosts keeps an evicted result's encoded dependence key (not its
	// outputs) resident, so a later probe reaching the ghost can fetch
	// the result from a remote tier by key instead of recomputing. At
	// most Entries ghosts are retained.
	Ghosts bool
	// Profile puts the table in census mode: probes always miss and
	// records count distinct footprints, mirroring reusetab.ModeProfile.
	Profile bool
}

// Stats is a Table's counter snapshot.
type Stats struct {
	// Probes and Hits count Probe calls and the subset served from a
	// resident leaf.
	Probes int64
	Hits   int64
	// Records counts Record calls (one per computed result).
	Records int64
	// Distinct counts distinct dependence paths ever recorded; it does
	// not decrease on eviction. In profile mode Records − Distinct is
	// the number of would-be hits, so R = 1 − Distinct/Records.
	Distinct int64
	// Evictions counts resident results displaced by the space budget
	// or by a conflicting record (footprint change at the same prefix).
	Evictions int64
	// FootprintSum and MaxFootprint aggregate the recorded dependence
	// path lengths (in locations); FootprintSum/Records is the mean
	// dynamic key width in words.
	FootprintSum int64
	MaxFootprint int
}

// MeanFootprint is the average recorded dependence path length.
func (s Stats) MeanFootprint() float64 {
	if s.Records == 0 {
		return 0
	}
	return float64(s.FootprintSum) / float64(s.Records)
}

// ReuseRate is R = 1 − Distinct/Records over the recorded census
// (meaningful in profile mode, where every call records).
func (s Stats) ReuseRate() float64 {
	if s.Records == 0 {
		return 0
	}
	return 1 - float64(s.Distinct)/float64(s.Records)
}

// node is one trie position, addressed by its index in the table's node
// slab (index 0 is the nil node). Exactly one of three shapes:
//   - internal: loc names the next location to read; the first child
//     hangs inline off kid, and the others, once a second label
//     appears, in a label map of Table.branches;
//   - value leaf: slot indexes the leaf arena holding the outputs;
//   - ghost leaf: ghost is set, slot indexes the retained encoded key.
//
// In a census almost every internal node has one child, so almost no
// node gets a map. A node holds no pointers: the garbage collector never
// scans the slab.
type node struct {
	inEdge uint64
	loc    Loc
	parent int32
	kid    int32 // the inline child (0 = none)
	branch int32 // 1 + index of the map of the other children (0 = none)
	slot   int32
	// gen stamps the node's allocation, so a Result pinning a node that
	// was since freed and reused does not match it.
	gen   uint32
	leaf  bool
	ghost bool
}

// internal reports whether n names a location to read (has children).
func (n *node) internal() bool { return n.kid != 0 || n.branch != 0 }

// The slab is a list of fixed-size chunks: it grows without copying,
// and a *node stays valid while the node is allocated.
const (
	chunkShift = 8
	chunkMask  = 1<<chunkShift - 1
)

// Table is a footprint-trie memo table for one segment. Not safe for
// concurrent use.
type Table struct {
	cfg  Config
	root int32

	// chunks hold the node slab. Its first nodes nodes are in use or on
	// freeNodes, the pruned nodes kept for reuse; gen counts allocations.
	// branches holds the label maps of nodes with two or more children,
	// freeBranches the emptied ones.
	chunks       []*[1 << chunkShift]node
	nodes        int32
	freeNodes    []int32
	gen          uint32
	branches     []map[uint64]int32
	freeBranches []int32

	// Value-leaf arena: leafOuts[i] backs the leaf at node leafNodes[i].
	// Bounded tables pre-size the arena and evict via lru; unbounded
	// tables grow.
	leafNodes []int32
	leafOuts  [][]uint64
	leafFree  []int32
	lru       *reusetab.LRUList

	// Ghost arena: encoded keys of evicted results.
	ghostNodes []int32
	ghostKeys  [][]byte
	ghostFree  []int32
	glru       *reusetab.LRUList

	stats Stats
}

// New builds a Table.
func New(cfg Config) *Table {
	t := &Table{cfg: cfg, nodes: 1}
	if cfg.Entries > 0 {
		t.leafNodes = make([]int32, cfg.Entries)
		t.leafOuts = make([][]uint64, cfg.Entries)
		t.leafFree = make([]int32, 0, cfg.Entries)
		for i := cfg.Entries - 1; i >= 0; i-- {
			t.leafFree = append(t.leafFree, int32(i))
		}
		t.lru = reusetab.NewLRUList(cfg.Entries)
		if cfg.Ghosts {
			t.ghostNodes = make([]int32, cfg.Entries)
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
func (t *Table) Config() Config { return t.cfg }

// Stats returns the counter snapshot.
func (t *Table) Stats() Stats { return t.stats }

// Resident is the number of live (non-ghost) results.
func (t *Table) Resident() int {
	if t.cfg.Entries > 0 {
		return t.cfg.Entries - len(t.leafFree)
	}
	return len(t.leafNodes) - len(t.leafFree)
}

// Result is a Probe outcome.
type Result struct {
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

	// ref and gen pin the matched node for Refill.
	ref int32
	gen uint32
}

// Probe walks the trie, fetching each named location, until it reaches a
// leaf (hit), a ghost (known key, evicted outputs), or falls off (miss).
// In profile mode every probe misses without walking, like
// reusetab.ModeProfile.
func (t *Table) Probe(f Fetcher) Result {
	t.stats.Probes++
	if t.cfg.Profile {
		return Result{}
	}
	i := t.root
	steps := 0
	for i != 0 {
		n := t.node(i)
		if n.leaf {
			if n.ghost {
				t.glru.MoveToFront(int(n.slot))
				return Result{Key: t.ghostKeys[n.slot], Steps: steps, Ghost: true, ref: i, gen: n.gen}
			}
			if t.lru != nil {
				t.lru.MoveToFront(int(n.slot))
			}
			t.stats.Hits++
			return Result{Outs: t.leafOuts[n.slot], Steps: steps, Hit: true}
		}
		steps++
		i = t.child(n, f.Fetch(n.loc))
	}
	return Result{Steps: steps}
}

// Record stores outs for the dependence path of a just-computed call.
// Conflicts with resident structure — a previously shorter or longer
// footprint along the same prefix, which deterministic computations
// never produce but tolerant float equality or a changed compute
// function can — are resolved in favor of the new record: the
// conflicting subtree is evicted. outs is copied, except in profile
// mode, where no probe ever serves it.
func (t *Table) Record(path []Step, outs []uint64) {
	t.stats.Records++
	t.stats.FootprintSum += int64(len(path))
	if len(path) > t.stats.MaxFootprint {
		t.stats.MaxFootprint = len(path)
	}

	if t.root == 0 {
		t.root = t.alloc()
	}
	i := t.root
	for k := range path {
		st := &path[k]
		n := t.node(i)
		if n.leaf {
			// Footprint widening: the resident record read fewer
			// locations than this run. Displace it.
			t.displace(n)
		}
		if !n.internal() {
			n.loc = st.Loc
		} else if n.loc != st.Loc {
			// The resident subtree reads a different location here:
			// the tracked computation changed. Rebuild below this node.
			t.dropSubtree(n)
			n.loc = st.Loc
		}
		c := t.child(n, st.Label)
		if c == 0 {
			c = t.addChild(i, st.Label)
		}
		i = c
	}
	if n := t.node(i); n.internal() {
		// Footprint narrowing: the resident subtree expects more reads.
		t.dropSubtree(n)
	}
	t.storeLeaf(i, outs)
}

// node is the node at index i.
func (t *Table) node(i int32) *node { return &t.chunks[i>>chunkShift][i&chunkMask] }

// child is n's child under label (0 = none).
func (t *Table) child(n *node, label uint64) int32 {
	if n.kid != 0 && t.node(n.kid).inEdge == label {
		return n.kid
	}
	if n.branch != 0 {
		return t.branches[n.branch-1][label]
	}
	return 0
}

// addChild hangs a new node under p by label: inline when p has no
// inline child, in p's label map otherwise.
func (t *Table) addChild(p int32, label uint64) int32 {
	c := t.alloc()
	t.node(c).parent, t.node(c).inEdge = p, label
	n := t.node(p)
	if n.kid == 0 {
		n.kid = c
		return c
	}
	if n.branch == 0 {
		if k := len(t.freeBranches); k > 0 {
			n.branch = t.freeBranches[k-1] + 1
			t.freeBranches = t.freeBranches[:k-1]
		} else {
			t.branches = append(t.branches, map[uint64]int32{})
			n.branch = int32(len(t.branches))
		}
	}
	t.branches[n.branch-1][label] = c
	return c
}

// removeChild unhooks child c from p.
func (t *Table) removeChild(p, c int32) {
	n := t.node(p)
	if n.kid == c {
		n.kid = 0
		return
	}
	m := t.branches[n.branch-1]
	delete(m, t.node(c).inEdge)
	if len(m) == 0 {
		t.releaseBranch(n)
	}
}

// releaseBranch empties n's label map and keeps it for reuse.
func (t *Table) releaseBranch(n *node) {
	clear(t.branches[n.branch-1])
	t.freeBranches = append(t.freeBranches, n.branch-1)
	n.branch = 0
}

// alloc takes a fresh node from the free list or the end of the slab.
func (t *Table) alloc() int32 {
	t.gen++
	i := t.nodes
	if k := len(t.freeNodes); k > 0 {
		i = t.freeNodes[k-1]
		t.freeNodes = t.freeNodes[:k-1]
	} else {
		if int(i>>chunkShift) == len(t.chunks) {
			t.chunks = append(t.chunks, new([1 << chunkShift]node))
		}
		t.nodes++
	}
	*t.node(i) = node{gen: t.gen}
	return i
}

// free returns an unhooked, childless node to the free list.
func (t *Table) free(i int32) {
	*t.node(i) = node{}
	t.freeNodes = append(t.freeNodes, i)
}

// storeLeaf makes node i a value leaf holding a copy of outs.
func (t *Table) storeLeaf(i int32, outs []uint64) {
	n := t.node(i)
	if n.ghost {
		// A ghost promoted back to a value leaf: the result was
		// recomputed (or refilled), so the key-only shell fills in.
		t.freeGhost(n)
		n.leaf = false
	}
	if !n.leaf {
		slot, ok := t.allocSlot()
		if !ok {
			// Budget full and nothing evictable (Entries leaves are all
			// on this record's own path — impossible: a path has one
			// leaf). Defensive.
			return
		}
		n.leaf = true
		n.slot = slot
		t.leafNodes[slot] = i
		if t.lru != nil {
			t.lru.PushFront(int(slot))
		}
		t.stats.Distinct++
	} else if t.lru != nil {
		t.lru.MoveToFront(int(n.slot))
	}
	if !t.cfg.Profile {
		t.leafOuts[n.slot] = append(t.leafOuts[n.slot][:0], outs...)
	}
}

// allocSlot returns a free leaf-arena slot, evicting the LRU resident
// result if the budget is exhausted.
func (t *Table) allocSlot() (int32, bool) {
	if t.cfg.Entries == 0 {
		// Unbounded: grow the arena.
		if len(t.leafFree) == 0 {
			t.leafNodes = append(t.leafNodes, 0)
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
// reclaimed and, with ghosts enabled, the node keeps its encoded key;
// otherwise the node is pruned from the trie.
func (t *Table) evictLeaf(i int32) {
	t.stats.Evictions++
	n := t.node(i)
	t.releaseSlot(n)
	if t.cfg.Ghosts {
		t.makeGhost(i)
		return
	}
	n.leaf = false
	t.prune(i)
}

// displace removes a leaf (value or ghost) because a conflicting record
// claims its node; no ghost is kept (the node is being rebuilt).
func (t *Table) displace(n *node) {
	if n.ghost {
		t.freeGhost(n)
	} else {
		t.stats.Evictions++
		t.releaseSlot(n)
	}
	n.leaf = false
}

// releaseSlot returns n's arena slot to the free list.
func (t *Table) releaseSlot(n *node) {
	slot := n.slot
	t.leafNodes[slot] = 0
	if t.leafOuts[slot] != nil {
		t.leafOuts[slot] = t.leafOuts[slot][:0]
	}
	if t.lru != nil {
		t.lru.Remove(int(slot))
	}
	t.leafFree = append(t.leafFree, slot)
	n.slot = 0
}

// makeGhost converts just-evicted leaf i into a ghost retaining its
// encoded dependence key. The oldest ghost is pruned when the ghost
// budget is full.
func (t *Table) makeGhost(i int32) {
	if len(t.ghostFree) == 0 {
		old := t.glru.Back()
		if old < 0 {
			t.node(i).leaf = false
			t.prune(i)
			return
		}
		g := t.ghostNodes[old]
		gn := t.node(g)
		t.freeGhost(gn)
		gn.leaf = false
		t.prune(g)
	}
	gslot := t.ghostFree[len(t.ghostFree)-1]
	t.ghostFree = t.ghostFree[:len(t.ghostFree)-1]
	n := t.node(i)
	n.ghost = true
	n.slot = gslot
	t.ghostNodes[gslot] = i
	t.ghostKeys[gslot] = t.encodeKey(t.ghostKeys[gslot][:0], i)
	t.glru.PushFront(int(gslot))
}

// freeGhost releases n's ghost-arena slot.
func (t *Table) freeGhost(n *node) {
	gslot := n.slot
	t.ghostNodes[gslot] = 0
	t.glru.Remove(int(gslot))
	t.ghostFree = append(t.ghostFree, gslot)
	n.ghost = false
	n.slot = 0
}

// prune frees node i, now neither a leaf nor internal, cascading up
// through internal nodes left childless.
func (t *Table) prune(i int32) {
	for i != 0 {
		n := t.node(i)
		if n.leaf || n.internal() {
			return
		}
		p := n.parent
		if p == 0 {
			t.root = 0
		} else {
			t.removeChild(p, i)
		}
		t.free(i)
		i = p
	}
}

// dropSubtree evicts every result and ghost below n (exclusive) and
// frees the nodes there, leaving n childless.
func (t *Table) dropSubtree(n *node) {
	if n.kid != 0 {
		t.dropNode(n.kid)
		n.kid = 0
	}
	if n.branch != 0 {
		for _, c := range t.branches[n.branch-1] {
			t.dropNode(c)
		}
		t.releaseBranch(n)
	}
}

func (t *Table) dropNode(i int32) {
	n := t.node(i)
	if n.leaf {
		if n.ghost {
			t.freeGhost(n)
		} else {
			t.stats.Evictions++
			t.releaseSlot(n)
		}
	} else {
		t.dropSubtree(n)
	}
	t.free(i)
}

// encodeKey appends the wire encoding of node i's root path to b: for
// each step, the input index (2 bytes), the element offset (4 bytes,
// offset by 2 so the reserved negative values encode), and the label (8
// bytes), all little-endian. The encoding is canonical: one path, one
// key.
func (t *Table) encodeKey(b []byte, i int32) []byte {
	// Walk up collecting, then reverse in place (14-byte granules).
	start := len(b)
	for n := t.node(i); n.parent != 0; n = t.node(n.parent) {
		p := t.node(n.parent)
		var step [14]byte
		binary.LittleEndian.PutUint16(step[0:], uint16(p.loc.Input))
		binary.LittleEndian.PutUint32(step[2:], uint32(p.loc.Off+2))
		binary.LittleEndian.PutUint64(step[6:], n.inEdge)
		b = append(b, step[:]...)
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

// EncodeSteps renders a dependence path in the same canonical wire form
// as ghost keys, so a freshly computed footprint can be published to a
// remote tier under the key later ghost probes will use.
func EncodeSteps(b []byte, path []Step) []byte {
	for _, st := range path {
		var step [14]byte
		binary.LittleEndian.PutUint16(step[0:], uint16(st.Loc.Input))
		binary.LittleEndian.PutUint32(step[2:], uint32(st.Loc.Off+2))
		binary.LittleEndian.PutUint64(step[6:], st.Label)
		b = append(b, step[:]...)
	}
	return b
}

// Refill converts the ghost a probe matched back into a value leaf,
// storing outs fetched from elsewhere (a remote tier) by the ghost's
// key. key re-identifies the ghost: if the node was evicted or rebuilt
// between the probe and the refill, or the table was reset (the caller
// may have dropped its lock for the remote round trip), the refill is
// silently skipped.
func (t *Table) Refill(r Result, key []byte, outs []uint64) {
	if r.ref <= 0 || r.ref >= t.nodes {
		return
	}
	n := t.node(r.ref)
	if n.gen != r.gen || !n.ghost || string(t.ghostKeys[n.slot]) != string(key) {
		return
	}
	t.storeLeaf(r.ref, outs)
}

// Reset drops every resident result, ghost, and counter, keeping the
// configuration and arena capacity: a reset table is indistinguishable
// from a fresh one, without reallocating.
func (t *Table) Reset() {
	t.root = 0
	t.nodes = 1
	t.freeNodes = t.freeNodes[:0]
	t.freeBranches = t.freeBranches[:0]
	for i, m := range t.branches {
		clear(m)
		t.freeBranches = append(t.freeBranches, int32(i))
	}
	if t.cfg.Entries > 0 {
		t.leafFree = t.leafFree[:0]
		for i := t.cfg.Entries - 1; i >= 0; i-- {
			t.leafFree = append(t.leafFree, int32(i))
			t.leafNodes[i] = 0
			if t.leafOuts[i] != nil {
				t.leafOuts[i] = t.leafOuts[i][:0]
			}
		}
		t.lru.Reset()
		if t.cfg.Ghosts {
			t.ghostFree = t.ghostFree[:0]
			for i := t.cfg.Entries - 1; i >= 0; i-- {
				t.ghostFree = append(t.ghostFree, int32(i))
				t.ghostNodes[i] = 0
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
