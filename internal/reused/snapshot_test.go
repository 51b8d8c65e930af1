package reused

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"compreuse/internal/wire"
)

// populate fills a server with two segments of live-looking state:
// recorded entries, probe traffic behind the counters, and non-trivial
// governor estimates.
func populate(t testing.TB, s *Server) {
	t.Helper()
	alpha, err := s.segmentFor("alpha", 0, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	beta, err := s.segmentFor("beta", 64, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("alpha-%04d", i))
		alpha.tab.Record(0, k, []uint64{uint64(i), uint64(i * i)})
		alpha.tab.Probe(0, k)                                 // hit
		alpha.tab.Probe(0, []byte(fmt.Sprintf("miss-%d", i))) // miss
	}
	for i := 0; i < 32; i++ {
		beta.tab.Record(0, []byte(fmt.Sprintf("beta-%04d", i)), []uint64{uint64(i)})
	}
	alpha.gov.restoreState(false, 512_000, 80_000, 3_000, 7)
	beta.gov.restoreState(true, 10_000, 1_000, 50_000, 123)
}

// TestSnapshotRoundTrip dumps a populated server and restores it into a
// fresh one: the per-segment STATS vectors — the very bytes Stats()
// answers from — must come back identical, and every dumped entry must
// probe as a hit with its original outputs.
func TestSnapshotRoundTrip(t *testing.T) {
	s1 := New(Config{})
	populate(t, s1)

	var buf bytes.Buffer
	if err := s1.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	s2 := New(Config{})
	segs, entries, err := s2.ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if segs != 2 || entries != 132 {
		t.Fatalf("restored %d segments / %d entries, want 2 / 132", segs, entries)
	}

	for _, name := range []string{"alpha", "beta"} {
		a, b := s1.segsByName[name], s2.segsByName[name]
		if b == nil {
			t.Fatalf("segment %q missing after restore", name)
		}
		if b.outWords != a.outWords {
			t.Errorf("%s: outWords %d, want %d", name, b.outWords, a.outWords)
		}
		if got, want := b.tab.Config(), a.tab.Config(); got.Entries != want.Entries || got.LRU != want.LRU {
			t.Errorf("%s: geometry %+v, want %+v", name, got, want)
		}
		got, want := statsVals(b, nil), statsVals(a, nil)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: stats[%d] = %d, want %d (vector %v vs %v)",
					name, i, got[i], want[i], got, want)
				break
			}
		}
	}

	alpha := s2.segsByName["alpha"]
	for i := 0; i < 100; i++ {
		outs, hit := alpha.tab.Probe(0, []byte(fmt.Sprintf("alpha-%04d", i)))
		if !hit || len(outs) != 2 || outs[1] != uint64(i*i) {
			t.Fatalf("alpha-%04d after restore: hit=%v outs=%v", i, hit, outs)
		}
	}

	// Governor state survived: beta restored bypassed, alpha admitted.
	if !s2.segsByName["beta"].gov.bypassed() {
		t.Error("beta restored admitted, want bypassed")
	}
	if s2.segsByName["alpha"].gov.bypassed() {
		t.Error("alpha restored bypassed, want admitted")
	}
}

func TestSnapshotFileRoundTripAndMissing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "node.snap")

	cold := New(Config{})
	if segs, entries, err := cold.RestoreFile(path); err != nil || segs != 0 || entries != 0 {
		t.Fatalf("RestoreFile(missing) = (%d, %d, %v), want (0, 0, nil)", segs, entries, err)
	}

	s1 := New(Config{})
	populate(t, s1)
	if err := s1.SnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("temp file left behind after rename: %v", err)
	}

	s2 := New(Config{})
	segs, entries, err := s2.RestoreFile(path)
	if err != nil || segs != 2 || entries != 132 {
		t.Fatalf("RestoreFile = (%d, %d, %v), want (2, 132, nil)", segs, entries, err)
	}
}

func TestSnapshotRejects(t *testing.T) {
	s := New(Config{})
	if _, _, err := s.ReadSnapshot(bytes.NewReader([]byte("not a snapshot at all"))); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("garbage: err = %v, want ErrBadSnapshot", err)
	}

	populated := New(Config{})
	populate(t, populated)
	var buf bytes.Buffer
	if err := populated.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if _, _, err := populated.ReadSnapshot(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("restore into a non-empty server succeeded, want refusal")
	}

	// A truncated dump must error, not silently restore a prefix, and
	// must leave the server empty for a retry.
	trunc := buf.Bytes()[:buf.Len()-3]
	fresh := New(Config{})
	if _, _, err := fresh.ReadSnapshot(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated snapshot restored cleanly, want error")
	}
	if n := liveSegments(fresh); n != 0 {
		t.Errorf("failed restore left %d live segments, want 0", n)
	}
	if segs, entries, err := fresh.ReadSnapshot(bytes.NewReader(buf.Bytes())); err != nil || segs != 2 || entries != 132 {
		t.Errorf("retry after a failed restore = (%d, %d, %v), want (2, 132, nil)", segs, entries, err)
	}
}

// TestSlotBudget checks that the table slots a server preallocates are
// bounded in total, across segments, on the live HELLO path and on
// restore, and that a refused request allocates nothing.
func TestSlotBudget(t *testing.T) {
	s := New(Config{})
	if _, err := s.segmentFor("huge", maxSlots+1, false, 1); err == nil {
		t.Error("HELLO over the slot budget accepted")
	}
	if _, err := s.segmentFor("small", 64, false, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.segmentFor("rest", maxSlots-63, false, 1); err == nil {
		t.Error("HELLO past the remaining slots accepted")
	}
	if seg, err := s.segmentFor("small", maxSlots, false, 1); err != nil || seg.tab.Config().Entries != 64 {
		t.Errorf("re-HELLO of a live segment = (%v, %v), want the existing 64-entry table", seg, err)
	}
	if _, err := s.segmentFor("unbounded", 0, false, 1); err != nil {
		t.Errorf("unbounded table refused: %v", err)
	}
	if n := liveSegments(s); n != 2 {
		t.Errorf("%d live segments, want 2", n)
	}

	fresh := New(Config{})
	if _, _, err := fresh.ReadSnapshot(bytes.NewReader(helloDump(t, 64, maxSlots-63))); err == nil {
		t.Error("snapshot past the slot budget restored, want error")
	}
	if n := liveSegments(fresh); n != 0 {
		t.Errorf("refused restore left %d live segments, want 0", n)
	}
}

// helloDump is a snapshot of one empty segment per requested table size.
func helloDump(t testing.TB, entries ...uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(snapMagic)
	ww := wire.NewWriter(&buf)
	for i, n := range entries {
		hello := &wire.Frame{Op: wire.OpHello, Seg: uint32(i), Name: fmt.Sprintf("seg%d", i),
			Vals: []uint64{n, 0, 1}}
		if err := ww.Write(hello); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// FuzzReadSnapshot feeds arbitrary bytes to ReadSnapshot: a restore
// either fails and leaves the server empty, or succeeds and then
// round-trips through WriteSnapshot to the same segment and entry
// counts. It never panics.
func FuzzReadSnapshot(f *testing.F) {
	src := New(Config{})
	populate(f, src)
	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	for _, cut := range []int{len(snapMagic), len(snapMagic) + 5, len(good) / 2, len(good) - 3} {
		f.Add(good[:cut])
	}
	// Several tables that each fit the server's slots but together do not.
	f.Add(helloDump(f, maxSlots/2+1, maxSlots/2+1, maxSlots/2+1))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := New(Config{})
		segs, entries, err := s.ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			if n := liveSegments(s); n != 0 {
				t.Fatalf("failed restore (%v) left %d live segments", err, n)
			}
			return
		}
		var again bytes.Buffer
		if err := s.WriteSnapshot(&again); err != nil {
			t.Fatal(err)
		}
		s2 := New(Config{})
		segs2, entries2, err := s2.ReadSnapshot(bytes.NewReader(again.Bytes()))
		if err != nil {
			t.Fatalf("restored snapshot does not round-trip: %v", err)
		}
		if segs2 != liveSegments(s) || entries2 != residentEntries(s) {
			t.Fatalf("round trip restored (%d, %d), want (%d, %d) (first restore reported (%d, %d))",
				segs2, entries2, liveSegments(s), residentEntries(s), segs, entries)
		}
	})
}

func liveSegments(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.segs)
}

// residentEntries counts the entries a server holds.
func residentEntries(s *Server) int {
	n := 0
	s.mu.Lock()
	segs := append([]*segment(nil), s.segs...)
	s.mu.Unlock()
	for _, seg := range segs {
		seg.tab.Range(0, func([]byte, []uint64) bool { n++; return true })
	}
	return n
}

// TestShutdownWritesFinalSnapshot drives a server with SnapshotPath
// over a real connection and checks the drain-time dump: Shutdown must
// leave a snapshot carrying the acknowledged PUTs.
func TestShutdownWritesFinalSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "drain.snap")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{SnapshotPath: path, SnapshotEvery: time.Hour})
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	w := wire.NewWriter(nc)
	r := wire.NewReader(nc)
	var f wire.Frame
	if err := w.Write(&wire.Frame{Op: wire.OpHello, Name: "drainseg", Vals: []uint64{0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := r.Next(&f); err != nil || f.Flags&wire.FlagErr != 0 {
		t.Fatalf("hello: %v %v", err, f.Name)
	}
	segID := f.Seg
	for i := 0; i < 10; i++ {
		if err := w.Write(&wire.Frame{Op: wire.OpPut, Seg: segID, Seq: uint64(i),
			Key: []byte(fmt.Sprintf("k%d", i)), Vals: []uint64{uint64(i)}}); err != nil {
			t.Fatal(err)
		}
		if err := r.Next(&f); err != nil || f.Flags&wire.FlagErr != 0 {
			t.Fatalf("put %d: %v %v", i, err, f.Name)
		}
	}
	nc.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-serveDone; err != ErrServerClosed {
		t.Fatalf("Serve = %v, want ErrServerClosed", err)
	}

	s2 := New(Config{})
	segs, entries, err := s2.RestoreFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if segs != 1 || entries != 10 {
		t.Fatalf("drain snapshot restored (%d, %d), want (1, 10)", segs, entries)
	}
}
