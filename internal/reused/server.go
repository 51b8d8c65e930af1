// Package reused is the server engine of the remote reuse-cache tier:
// one process holding the paper's reuse tables (as concurrent
// reusetab.Sharded instances, one per registered code segment) and
// serving them to a fleet of worker processes over the internal/wire
// protocol, so N workers share one table instead of each re-discovering
// the same N_ds distinct input patterns.
//
// Each connection gets one goroutine that decodes a request, executes it
// against the segment table and encodes the response, flushing once the
// requests already received are answered (see conn.go). Admission is
// governed per segment by the paper's formula 3 evaluated online; see
// governor.go.
package reused

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"compreuse/internal/obs"
	"compreuse/internal/reusetab"
	"compreuse/internal/wire"
)

// Config tunes a Server. The zero value serves with the defaults.
type Config struct {
	// MaxConns caps simultaneously open connections; excess accepts are
	// closed immediately. 0 means DefaultMaxConns.
	MaxConns int
	// MemBudget caps the modeled bytes across all segment tables; when
	// the total exceeds it, the largest table is flushed. 0 = unlimited.
	MemBudget int64
	// Shards is the lock-stripe count of each segment table.
	// 0 picks a power of two near GOMAXPROCS.
	Shards int
	// DrainGrace is how long Shutdown keeps serving already-connected
	// clients before closing their connections. 0 means
	// DefaultDrainGrace.
	DrainGrace time.Duration
	// Governor tunes the online admission policy.
	Governor GovernorConfig
	// SnapshotPath, when set, enables warm snapshots: the tables and
	// governor state are dumped there every SnapshotEvery while serving
	// and once more at drain time (see snapshot.go). Restoring at boot
	// is the caller's move: RestoreFile before Serve.
	SnapshotPath string
	// SnapshotEvery is the periodic snapshot interval.
	// 0 means DefaultSnapshotEvery.
	SnapshotEvery time.Duration
}

// Config defaults.
const (
	DefaultMaxConns      = 1024
	DefaultDrainGrace    = 2 * time.Second
	DefaultSnapshotEvery = 30 * time.Second
)

func (c Config) maxConns() int {
	if c.MaxConns <= 0 {
		return DefaultMaxConns
	}
	return c.MaxConns
}

func (c Config) shards() int {
	if c.Shards > 0 {
		return c.Shards
	}
	n := 1
	for n < runtime.GOMAXPROCS(0) {
		n <<= 1
	}
	return n
}

func (c Config) drainGrace() time.Duration {
	if c.DrainGrace <= 0 {
		return DefaultDrainGrace
	}
	return c.DrainGrace
}

// segment is one registered code segment: its shared table, its
// admission governor, and its per-segment metric counters.
type segment struct {
	id       uint32
	name     string
	outWords int
	tab      *reusetab.Sharded
	gov      *governor

	hits, bypassed *obs.Counter
}

// Server is the reuse-cache service. Create with New, run with Serve,
// stop with Shutdown (graceful) or Close (abrupt).
type Server struct {
	cfg Config

	mu         sync.Mutex
	segsByName map[string]*segment
	segs       []*segment
	conns      map[*conn]struct{}
	listeners  map[net.Listener]struct{}
	decisions  []Decision
	slots      int // table slots the live segments preallocate (maxSlots)

	inShutdown atomic.Bool
	draining   chan struct{} // closed when Shutdown begins
	recordTick atomic.Int64  // budget-check pacing
	connGroup  sync.WaitGroup

	// Snapshot machinery: the periodic loop starts with the first Serve
	// and exits when draining closes; the drain-time final snapshot runs
	// once, after the loop has stopped (so the two never race on the
	// same temp file).
	snapStart sync.Once
	snapFinal sync.Once
	snapGroup sync.WaitGroup
}

// New builds a server from cfg.
func New(cfg Config) *Server {
	return &Server{
		cfg:        cfg,
		segsByName: map[string]*segment{},
		conns:      map[*conn]struct{}{},
		listeners:  map[net.Listener]struct{}{},
		draining:   make(chan struct{}),
	}
}

// ErrServerClosed is returned by Serve after Shutdown or Close.
var ErrServerClosed = errors.New("reused: server closed")

// Serve accepts connections on ln until Shutdown or Close. It always
// returns a non-nil error; after a graceful Shutdown the error is
// ErrServerClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.inShutdown.Load() {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	if s.cfg.SnapshotPath != "" {
		s.snapStart.Do(func() {
			s.snapGroup.Add(1)
			go s.snapshotLoop()
		})
	}
	defer func() {
		s.mu.Lock()
		delete(s.listeners, ln)
		s.mu.Unlock()
	}()

	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.inShutdown.Load() {
				return ErrServerClosed
			}
			return err
		}
		if !s.addConn(nc) {
			nc.Close()
			mConnsRejected.Inc()
			continue
		}
	}
}

// addConn registers and starts a connection, enforcing MaxConns.
// It reports false when the connection was not admitted.
func (s *Server) addConn(nc net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inShutdown.Load() || len(s.conns) >= s.cfg.maxConns() {
		return false
	}
	c := &conn{srv: s, nc: nc}
	s.conns[c] = struct{}{}
	s.connGroup.Add(1)
	mConnsOpen.Add(1)
	mConnsTotal.Inc()
	go c.run()
	return true
}

// removeConn unregisters a finished connection.
func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	mConnsOpen.Add(-1)
	s.connGroup.Done()
}

// Shutdown drains the server: the listeners close, every open
// connection keeps being served for up to DrainGrace (so responses to
// requests already written by clients are never dropped), and once all
// connection goroutines have flushed and exited Shutdown returns nil.
// If ctx expires first, remaining connections are closed abruptly and
// ctx.Err() is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	alreadyDown := s.inShutdown.Swap(true)
	for ln := range s.listeners {
		ln.Close()
	}
	if !alreadyDown {
		close(s.draining)
		deadline := time.Now().Add(s.cfg.drainGrace())
		if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
			deadline = d
		}
		for c := range s.conns {
			c.beginDrain(deadline)
		}
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.connGroup.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.finalSnapshot()
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		<-done
		s.finalSnapshot()
		return ctx.Err()
	}
}

// finalSnapshot writes the drain-time snapshot, once, after every
// connection has finished — so the dump carries the very last PUTs a
// draining client got acknowledged — and after the periodic loop has
// exited (draining is closed before connGroup can finish draining).
func (s *Server) finalSnapshot() {
	if s.cfg.SnapshotPath == "" {
		return
	}
	s.snapFinal.Do(func() {
		s.snapGroup.Wait()
		if err := s.SnapshotFile(s.cfg.SnapshotPath); err != nil {
			mSnapshotErrors.Inc()
		}
	})
}

// Close shuts the server down without draining.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Shutdown(ctx)
	if errors.Is(err, context.Canceled) {
		err = nil
	}
	return err
}

// Decisions returns a copy of the governor's transition ledger, oldest
// first.
func (s *Server) Decisions() []Decision {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Decision(nil), s.decisions...)
}

// maxDecisions bounds the in-memory ledger; older entries roll off.
const maxDecisions = 1024

// recordDecision appends to the ledger and fires the callback.
func (s *Server) recordDecision(d Decision) {
	mGovTransitions.Inc()
	s.mu.Lock()
	if len(s.decisions) >= maxDecisions {
		s.decisions = append(s.decisions[:0], s.decisions[len(s.decisions)-maxDecisions+1:]...)
	}
	s.decisions = append(s.decisions, d)
	s.mu.Unlock()
	if s.cfg.Governor.OnDecision != nil {
		s.cfg.Governor.OnDecision(d)
	}
}

// segmentFor registers (or finds) a named segment. The first HELLO for
// a name creates the table from the requested geometry; later HELLOs
// get the existing segment whatever they asked for — the fleet shares
// one table per name, and the first writer wins the configuration.
func (s *Server) segmentFor(name string, entries int, lru bool, outWords int) (*segment, error) {
	outWords, err := checkSegment(name, outWords)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	seg, ok := s.segsByName[name]
	var d *Decision
	if !ok {
		if err := reserveSlots(entries, s.slots); err != nil {
			s.mu.Unlock()
			return nil, err
		}
		seg = s.newSegment(name, entries, lru, outWords)
		d = s.installLocked(seg)
	}
	s.mu.Unlock()
	if d != nil {
		// Ledger the initial state (recordDecision retakes s.mu and may
		// run the user callback, so it must happen outside the lock).
		s.recordDecision(*d)
	}
	return seg, nil
}

// maxSlots bounds the table slots a server preallocates: the entries
// all of its segments request, together. A new segment that would take
// the total past it is refused rather than allocated; an unbounded
// table (entries 0) grows on use instead, under MemBudget.
const maxSlots = 1 << 20

// reserveSlots checks that a new table of entries slots fits beside the
// used slots already allocated.
func reserveSlots(entries, used int) error {
	if entries > maxSlots-used {
		return fmt.Errorf("entries %d exceed the %d table slots left of the server's %d",
			entries, maxSlots-used, maxSlots)
	}
	return nil
}

// checkSegment validates a requested segment and defaults its output
// width.
func checkSegment(name string, outWords int) (int, error) {
	if name == "" {
		return 0, errors.New("empty segment name")
	}
	if outWords <= 0 {
		outWords = 1
	}
	if outWords > wire.MaxVals {
		return 0, fmt.Errorf("outWords %d exceeds %d", outWords, wire.MaxVals)
	}
	return outWords, nil
}

// newSegment builds a segment that is not yet live (see installLocked).
func (s *Server) newSegment(name string, entries int, lru bool, outWords int) *segment {
	return &segment{
		name:     name,
		outWords: outWords,
		tab: reusetab.NewSharded(reusetab.Config{
			Name:     "crcserve/" + name,
			Segs:     1,
			KeyBytes: 16,
			OutWords: []int{outWords},
			OutBytes: []int{8 * outWords},
			Entries:  entries,
			LRU:      lru,
		}, s.cfg.shards()),
		gov: newGovernor(s.cfg.Governor),
	}
}

// installLocked makes seg live under the next segment id; s.mu is held.
// It returns the governor's initial decision for the caller to ledger
// after unlocking.
func (s *Server) installLocked(seg *segment) *Decision {
	seg.id = uint32(len(s.segs))
	s.slots += max(seg.tab.Config().Entries, 0)
	seg.hits, seg.bypassed = segHitCounters(seg.name), segBypassCounters(seg.name)
	// Seed the compile-time admission prior (static R̂ with expected C
	// and O) before the segment serves its first request, so a cold
	// segment the estimate predicts profitable skips probation.
	var prior AdmitPrior
	havePrior := false
	if s.cfg.Governor.AdmitPrior != nil {
		prior, havePrior = s.cfg.Governor.AdmitPrior(seg.name)
	}
	d := seg.gov.seedPrior(seg.name, prior, havePrior)
	s.segsByName[seg.name] = seg
	s.segs = append(s.segs, seg)
	mSegments.Set(int64(len(s.segs)))
	return d
}

// segmentByID resolves a segment id from GET/PUT/FLUSH/STATS frames.
func (s *Server) segmentByID(id uint32) (*segment, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(id) >= len(s.segs) {
		return nil, false
	}
	return s.segs[id], true
}

// enforceBudget flushes the largest segment table when the modeled
// total exceeds MemBudget. Called every budgetCheckEvery records; the
// scan locks each table's shards briefly, so it stays off the per-PUT
// path.
const budgetCheckEvery = 256

func (s *Server) enforceBudget() {
	if s.cfg.MemBudget <= 0 {
		return
	}
	if s.recordTick.Add(1)%budgetCheckEvery != 0 {
		return
	}
	s.mu.Lock()
	segs := append([]*segment(nil), s.segs...)
	s.mu.Unlock()

	var total int64
	var largest *segment
	var largestBytes int64
	for _, seg := range segs {
		b := int64(seg.tab.SizeBytes())
		total += b
		if b > largestBytes {
			largest, largestBytes = seg, b
		}
	}
	if total <= s.cfg.MemBudget || largest == nil {
		return
	}
	largest.tab.Reset()
	mBudgetFlushes.Inc()
}
