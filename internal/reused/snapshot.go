package reused

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"compreuse/internal/reusetab"
	"compreuse/internal/wire"
)

// Warm snapshots.
//
// A crcserve node's value is what it has learned: the reuse tables and
// the governor's R/C/O estimates. Both live only in memory, so a crash
// or deploy used to reset the node to cold — every distinct pattern
// re-computed fleet-wide, every admission re-probed from scratch. A
// snapshot serializes that learned state to a file so a restarted node
// answers its first GET warm.
//
// The format is the wire codec itself, reused as a dump encoding: a
// fixed magic ("crcsnap" + a format version byte), then ordinary
// length-prefixed wire frames —
//
//	HELLO  one per segment: Seg = the dumping server's segment id,
//	       Name, Vals = [entries, lru, outWords] (the table geometry)
//	STATS  one per segment: Vals = the segment's live STATS vector,
//	       exactly the OpStats response payload (counters, distinct,
//	       resident, bypass state, R·1e6, C ns, O ns)
//	MPUT   the segment's entries, batched up to MaxItems per frame
//	       (Items carry Key and Vals; Cost is unused)
//
// — until EOF. Restore replays the stream: HELLO re-creates each
// segment, MPUT items re-enter the table through the ordinary Record
// path, and the STATS vector is applied last so the restored counters
// and governor estimates report the pre-crash history rather than the
// replay. Reusing the wire codec buys the snapshot the same
// bounds-checked, fuzzed decoding path as network input: a truncated
// or corrupt snapshot errors out, it cannot panic the server. Bumping
// snapVersion invalidates old files explicitly instead of misreading
// them.

// snapMagic prefixes every snapshot file; the final byte is the format
// version.
var snapMagic = []byte{'c', 'r', 'c', 's', 'n', 'a', 'p', snapVersion}

const snapVersion = 1

// snapBatch is how many entries ride in one MPUT frame of the dump.
const snapBatch = 1024

// ErrBadSnapshot reports a file that is not a snapshot or carries an
// unsupported version.
var ErrBadSnapshot = errors.New("reused: not a crcserve snapshot (or unsupported version)")

// WriteSnapshot dumps every segment's geometry, statistics, governor
// state and resident entries to w. It runs against a live server:
// entries are copied out shard by shard (Sharded.Range), so probes
// stall for at most one shard's copy-out and the dump is
// shard-consistent, which is all a warm restart needs.
func (s *Server) WriteSnapshot(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	if _, err := bw.Write(snapMagic); err != nil {
		return err
	}
	ww := wire.NewWriter(bw)

	s.mu.Lock()
	segs := append([]*segment(nil), s.segs...)
	s.mu.Unlock()

	entries := int64(0)
	for _, seg := range segs {
		cfg := seg.tab.Config()
		hello := &wire.Frame{Op: wire.OpHello, Seg: seg.id, Name: seg.name,
			Vals: []uint64{uint64(cfg.Entries), b2u(cfg.LRU), uint64(seg.outWords)}}
		if err := ww.Write(hello); err != nil {
			return err
		}
		stats := &wire.Frame{Op: wire.OpStats, Seg: seg.id, Vals: statsVals(seg, nil)}
		if err := ww.Write(stats); err != nil {
			return err
		}

		var werr error
		batch := &wire.Frame{Op: wire.OpMPut, Seg: seg.id,
			Items: make([]wire.Item, 0, snapBatch)}
		seg.tab.Range(0, func(key []byte, outs []uint64) bool {
			batch.Items = append(batch.Items, wire.Item{Key: key, Vals: outs})
			entries++
			if len(batch.Items) == snapBatch {
				werr = ww.Write(batch)
				batch.Items = batch.Items[:0]
			}
			return werr == nil
		})
		if werr != nil {
			return werr
		}
		if len(batch.Items) > 0 {
			if err := ww.Write(batch); err != nil {
				return err
			}
		}
	}
	mSnapshotEntries.Set(entries)
	return bw.Flush()
}

// ReadSnapshot restores a dump written by WriteSnapshot into s, which
// must not have any segments yet (restore is a startup activity, not a
// merge). It returns how many segments and entries came back warm. The
// restore is all or nothing: segments are staged off the server and go
// live only once the whole dump has read cleanly, so a corrupt or
// truncated dump leaves s empty, ready for another attempt.
func (s *Server) ReadSnapshot(r io.Reader) (segments, entries int, err error) {
	s.mu.Lock()
	empty := len(s.segs) == 0
	s.mu.Unlock()
	if !empty {
		return 0, 0, errors.New("reused: ReadSnapshot on a server with live segments")
	}

	br := bufio.NewReaderSize(r, 64<<10)
	magic := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return 0, 0, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if string(magic) != string(snapMagic) {
		return 0, 0, ErrBadSnapshot
	}

	rd := wire.NewReader(br)
	defer rd.Release()
	byID := map[uint32]*segment{}
	byName := map[string]*segment{}
	var staged []*segment
	slots := 0 // the staged segments' table slots (maxSlots)
	// The STATS vectors apply after the replay: replaying entries
	// through Record advances the records/resident counters, and the
	// stored vector must win over the replay's bookkeeping.
	stats := map[*segment][]uint64{}
	var f wire.Frame
	for {
		err := rd.Next(&f)
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, 0, fmt.Errorf("reused: corrupt snapshot: %w", err)
		}
		switch f.Op {
		case wire.OpHello:
			var entriesCfg, lru, outWords uint64
			if len(f.Vals) > 0 {
				entriesCfg = f.Vals[0]
			}
			if len(f.Vals) > 1 {
				lru = f.Vals[1]
			}
			if len(f.Vals) > 2 {
				outWords = f.Vals[2]
			}
			ow, err := checkSegment(f.Name, int(outWords))
			if err != nil {
				return 0, 0, fmt.Errorf("reused: snapshot segment %q: %w", f.Name, err)
			}
			seg := byName[f.Name]
			if seg == nil {
				if err := reserveSlots(int(entriesCfg), slots); err != nil {
					return 0, 0, fmt.Errorf("reused: snapshot segment %q: %w", f.Name, err)
				}
				seg = s.newSegment(f.Name, int(entriesCfg), lru != 0, ow)
				slots += max(seg.tab.Config().Entries, 0)
				byName[f.Name] = seg
				staged = append(staged, seg)
			}
			byID[f.Seg] = seg
			segments++
		case wire.OpStats:
			seg, ok := byID[f.Seg]
			if !ok {
				return 0, 0, fmt.Errorf("reused: snapshot STATS for unknown segment %d", f.Seg)
			}
			if len(f.Vals) < wire.StatsLen {
				return 0, 0, fmt.Errorf("reused: snapshot STATS too short (%d vals)", len(f.Vals))
			}
			stats[seg] = append([]uint64(nil), f.Vals[:wire.StatsLen]...)
		case wire.OpMPut:
			seg, ok := byID[f.Seg]
			if !ok {
				return 0, 0, fmt.Errorf("reused: snapshot entries for unknown segment %d", f.Seg)
			}
			for i := range f.Items {
				it := &f.Items[i]
				if len(it.Vals) != seg.outWords {
					return 0, 0, fmt.Errorf("reused: snapshot entry arity %d, segment %q wants %d",
						len(it.Vals), seg.name, seg.outWords)
				}
				seg.tab.Record(0, it.Key, it.Vals)
				entries++
			}
		default:
			return 0, 0, fmt.Errorf("reused: unexpected %s frame in snapshot", f.Op)
		}
	}

	s.mu.Lock()
	if len(s.segs) != 0 {
		s.mu.Unlock()
		return 0, 0, errors.New("reused: ReadSnapshot on a server with live segments")
	}
	var decisions []*Decision
	for _, seg := range staged {
		if d := s.installLocked(seg); d != nil {
			decisions = append(decisions, d)
		}
	}
	s.mu.Unlock()
	for _, d := range decisions {
		s.recordDecision(*d)
	}
	for seg, v := range stats {
		seg.tab.RestoreStats(0, reusetab.SegStats{
			Probes:  int64(v[wire.StatsProbes]),
			Hits:    int64(v[wire.StatsHits]),
			Misses:  int64(v[wire.StatsMisses]),
			Records: int64(v[wire.StatsRecords]),
		}, int64(v[wire.StatsDistinct]))
		seg.gov.restoreState(v[wire.StatsState] != 0,
			int64(v[wire.StatsR]), int64(v[wire.StatsC]), int64(v[wire.StatsO]),
			int64(v[wire.StatsBypassed]))
	}
	return segments, entries, nil
}

// SnapshotFile writes a snapshot atomically: the dump lands in a
// sibling temp file first and renames over path only when complete, so
// a crash mid-write can never leave a truncated snapshot where the
// next boot will read it.
func (s *Server) SnapshotFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := s.WriteSnapshot(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	mSnapshots.Inc()
	return nil
}

// RestoreFile loads a snapshot from path. A missing file is not an
// error — it is simply a cold start — and reports (0, 0, nil).
func (s *Server) RestoreFile(path string) (segments, entries int, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	return s.ReadSnapshot(f)
}

// snapshotLoop rewrites the snapshot file every SnapshotEvery until
// the server drains. It is started by Serve when SnapshotPath is set;
// the drain-time final snapshot is Shutdown's job.
func (s *Server) snapshotLoop() {
	defer s.snapGroup.Done()
	every := s.cfg.SnapshotEvery
	if every <= 0 {
		every = DefaultSnapshotEvery
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.draining:
			return
		case <-t.C:
			if err := s.SnapshotFile(s.cfg.SnapshotPath); err != nil {
				mSnapshotErrors.Inc()
			}
		}
	}
}
